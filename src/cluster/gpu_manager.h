// GPU Manager (paper §III-C): per-node component that executes function
// requests on its GPUs on behalf of the FaaS functions.
//
// For each dispatched request the manager consults the global Cache
// Manager: on a hit it forwards the input to the existing GPU process; on
// a miss it asks for a victim list, kills the victims' processes, starts
// a new process and uploads the model, then runs the inference. It
// enforces one request per GPU at a time and publishes busy/idle status
// and estimated finish times to the Datastore. Per-request latency flows
// back to the engine in the completion record.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "cache/cache_manager.h"
#include "cluster/config.h"
#include "common/id.h"
#include "core/request.h"
#include "datastore/kv_store.h"
#include "gpu/virtual_gpu.h"
#include "models/latency_model.h"
#include "models/zoo.h"
#include "sim/simulator.h"

namespace gfaas::cluster {

// Completion callback: the finished record flows back to the scheduling
// engine (and, through it, to the Gateway / metrics).
using CompletionCallback = std::function<void(const core::CompletionRecord&)>;

class GpuManager {
 public:
  GpuManager(NodeId node, sim::Executor* executor, datastore::KvStore* store,
             cache::CacheManager* cache, const models::ModelRegistry* registry,
             const models::LatencyOracle* oracle,
             std::vector<gpu::VirtualGpu*> gpus);

  NodeId node() const { return node_; }
  bool manages(GpuId gpu) const;

  // Starts `request` on `gpu` (must be one of this manager's idle GPUs).
  // `cache_hit` / `false_miss` / `via_local_queue` are the scheduler's
  // decision attributes recorded into the completion. Returns the
  // expected absolute finish time (used for finish-time estimation).
  StatusOr<SimTime> execute(const core::Request& request, GpuId gpu, bool false_miss,
                            bool via_local_queue, CompletionCallback done);

  // Aborts the request currently executing on `gpu` (the GPU died, or a
  // hedge loser is being cancelled): cancels the pending load/completion
  // event, forces the device idle, drops the execution pin, evicts a
  // half-loaded process (an interrupted upload must not linger as a
  // phantom cache entry), and returns the completion record marked failed
  // with `completed` stopped at the abort instant. The registered
  // CompletionCallback never fires for an aborted request — the caller
  // (SchedulerEngine kill_gpu / cancel_request) owns the notification.
  // Must be invoked strictly before the request's completion instant.
  StatusOr<core::CompletionRecord> abort(GpuId gpu);

  // Gray degradation (chaos): the GPU silently runs `factor`x slower —
  // loads and inferences stretch, but execute() still *returns* the
  // healthy profile-based finish estimate, so every scheduler estimate
  // built on it (committed finish, parking decisions) goes stale exactly
  // the way a real straggler's would. factor >= 1; 1 restores health.
  void set_slowdown(GpuId gpu, double factor);
  double slowdown(GpuId gpu) const;

  gpu::VirtualGpu& gpu_ref(GpuId gpu);
  const gpu::VirtualGpu& gpu_ref(GpuId gpu) const;

 private:
  // One executing request: what abort() needs to unwind the lambdas
  // execute() chains through the executor.
  struct InFlightExecution {
    core::Request request;
    core::CompletionRecord record;  // completed still unset
    std::uint64_t pending_event = 0;  // load-finish or completion event
  };

  void publish_status(GpuId gpu, bool busy, SimTime finish_time);

  NodeId node_;
  sim::Executor* executor_;
  datastore::KvStore* store_;
  cache::CacheManager* cache_;
  const models::ModelRegistry* registry_;
  const models::LatencyOracle* oracle_;
  std::vector<gpu::VirtualGpu*> gpus_;
  // In-flight executions by GPU id (one request per GPU at a time).
  std::unordered_map<std::int64_t, InFlightExecution> in_flight_;
  // Active gray-degradation factors by GPU id (absent = healthy).
  std::unordered_map<std::int64_t, double> slowdown_;
};

}  // namespace gfaas::cluster
