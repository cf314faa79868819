// GPU Manager (paper §III-C): per-node component that executes function
// requests on its GPUs on behalf of the FaaS functions.
//
// For each dispatched request the manager consults the global Cache
// Manager: on a hit it forwards the input to the model already on the
// GPU; on a miss it asks for a victim list, evicts the victims (the paper
// kills their processes), inserts the model and uploads it, then runs the
// inference. The cache entry is the one record of what a GPU holds: the
// manager reports each finished upload to it, and a hit on an entry whose
// upload was aborted re-uploads. It enforces one request per GPU at a
// time. The paper's managers publish GPU status to etcd for the scheduler; here execute() returns the
// estimated finish time to the engine directly, and per-request latency
// flows back in the completion record.
//
// All per-GPU execution state lives in one slot per managed GPU: the
// device, its gray-degradation factor, and the one in-flight execution
// (completion record, batch, timings, pending event and callback). The
// load-finish and completion events capture only the manager and the GPU
// id and read everything else from the slot.
#pragma once

#include <functional>
#include <vector>

#include "cache/cache_manager.h"
#include "cluster/config.h"
#include "common/id.h"
#include "core/request.h"
#include "gpu/virtual_gpu.h"
#include "models/zoo.h"
#include "sim/simulator.h"

namespace gfaas::cluster {

// Completion callback: the finished record flows back to the scheduling
// engine (and, through it, to the Gateway / metrics).
using CompletionCallback = std::function<void(const core::CompletionRecord&)>;

class GpuManager {
 public:
  // `gpus` must carry dense, ascending ids (one node's GPUs).
  GpuManager(NodeId node, sim::Executor* executor, cache::CacheManager* cache,
             const models::ModelRegistry* registry, std::vector<gpu::VirtualGpu*> gpus);

  NodeId node() const { return node_; }
  bool manages(GpuId gpu) const {
    const std::int64_t index = gpu.value() - first_gpu_;
    return index >= 0 && index < static_cast<std::int64_t>(slots_.size());
  }
  // Ids of the managed GPUs: dense and ascending, in construction order.
  std::vector<GpuId> gpu_ids() const;

  // Starts `request` on `gpu` (must be one of this manager's idle GPUs).
  // `cache_hit` / `false_miss` / `via_local_queue` are the scheduler's
  // decision attributes recorded into the completion. Returns the
  // expected absolute finish time (used for finish-time estimation).
  StatusOr<SimTime> execute(const core::Request& request, GpuId gpu, bool false_miss,
                            bool via_local_queue, CompletionCallback done);

  // Aborts the request currently executing on `gpu` (the GPU died, or a
  // hedge loser is being cancelled): cancels the pending load/completion
  // event, forces the device idle, drops the execution pin, evicts a
  // half-loaded model unless a queued request still pins it (an
  // interrupted upload must not linger as a phantom cache entry), and
  // returns the completion record marked failed with `completed` stopped
  // at the abort instant. The registered CompletionCallback never fires
  // for an aborted request — the caller (SchedulerEngine kill_gpu /
  // cancel_request) owns the notification.
  // Must be invoked strictly before the request's completion instant.
  StatusOr<core::CompletionRecord> abort(GpuId gpu);

  // Gray degradation (chaos): the GPU silently runs `factor`x slower —
  // loads and inferences stretch, but execute() still *returns* the
  // healthy profile-based finish estimate, so every scheduler estimate
  // built on it (committed finish, parking decisions) goes stale exactly
  // the way a real straggler's would. factor >= 1; 1 restores health.
  void set_slowdown(GpuId gpu, double factor);

 private:
  // One managed GPU. The execution fields describe the request running on
  // it and are meaningful only while the device is busy.
  struct Slot {
    gpu::VirtualGpu* device = nullptr;
    double slowdown = 1.0;  // 1 = healthy
    core::CompletionRecord record;  // `completed` is set at the finish
    std::int64_t batch = 0;
    SimTime infer_time = 0;  // stretched by the slowdown
    SimTime finish = 0;  // load end while loading, then inference end
    std::uint64_t pending_event = 0;  // load-finish or completion event
    CompletionCallback done;
  };

  Slot& slot(GpuId gpu);

  // Event bodies: each reads the GPU's slot.
  void finish_load(GpuId gpu);
  void finish_inference(GpuId gpu);
  // Schedules the completion event at the slot's `finish`.
  void schedule_completion(GpuId gpu);

  NodeId node_;
  sim::Executor* executor_;
  cache::CacheManager* cache_;
  const models::ModelRegistry* registry_;
  // slots_[i] is GPU first_gpu_ + i.
  std::int64_t first_gpu_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace gfaas::cluster
