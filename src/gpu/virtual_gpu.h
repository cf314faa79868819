// Virtual GPU device: the testbed substitute for a physical RTX 2080.
//
// The device is a timing model only: whether it is idle, uploading or
// running a kernel, how long each operation takes, and how busy its SMs
// were. Which models it holds and how many bytes they use is the
// Cache Manager's per-GPU entry (cache::GpuCacheState); the device keeps
// no second copy. Timing comes from the Table I profiles in
// models::ModelRegistry (scaled by the GpuSpec for heterogeneous types);
// SM utilization integrates occupancy over simulated time the same way
// `nvidia-smi` samples it on the testbed — zero while a model uploads,
// proportional to batch occupancy while a kernel runs (§V-C).
#pragma once

#include "common/id.h"
#include "common/status.h"
#include "common/bytes.h"
#include "gpu/gpu_spec.h"
#include "gpu/pcie.h"
#include "metrics/stats.h"

namespace gfaas::gpu {

enum class GpuPhase { kIdle, kLoading, kInferring };

struct GpuCounters {
  std::int64_t loads = 0;
  std::int64_t inferences = 0;
  std::int64_t evictions = 0;  // models the GPU Manager evicted (§III-C)
};

class VirtualGpu {
 public:
  // `host_link` is the PCIe link used for uploads; it may be shared by
  // several GPUs on a node (contention) or per-GPU. Not owned.
  VirtualGpu(GpuId id, GpuSpec spec, PcieLink* host_link);

  GpuId id() const { return id_; }
  const GpuSpec& spec() const { return spec_; }
  Bytes memory_capacity() const { return spec_.memory_capacity; }

  // --- execution timing (called by the GPU Manager's event handlers) ---

  // Begins uploading a model of `bytes` at `now`; returns the completion
  // time (PCIe transfer of `bytes`, scaled by the spec's load_time_scale
  // around the profiled `load_time`). The GPU is busy and its SMs idle
  // until then.
  StatusOr<SimTime> begin_load(SimTime now, Bytes bytes, SimTime load_time);
  // Marks the upload finished; the GPU is idle again.
  Status finish_load();

  // Begins inference at `now` with the given profiled duration and batch
  // size; returns completion time. SM occupancy = min(1, batch/sm_count)
  // while running.
  StatusOr<SimTime> begin_inference(SimTime now, SimTime infer_time, std::int64_t batch);
  Status finish_inference(SimTime now);

  // Aborts the in-flight load or inference at `now` (the GPU died or the
  // request was cancelled, chaos/hedging paths): the device returns to
  // idle and its SMs stop accruing occupancy. An aborted upload releases
  // its PCIe reservation so co-located GPUs stop queueing behind a
  // transfer that will never finish. The caller decides the fate of the
  // model's cache entry (the GPU Manager evicts a half-loaded one, a
  // killed GPU is retired wholesale via CacheManager::remove_gpu).
  Status abort_execution(SimTime now);

  // Counts one model eviction by the GPU Manager.
  void count_eviction() { ++counters_.evictions; }

  // --- observable state ---
  GpuPhase phase() const { return phase_; }
  bool is_busy() const { return phase_ != GpuPhase::kIdle; }

  // Average SM utilization over [0, now].
  double sm_utilization(SimTime now) const { return sm_meter_.average(now); }
  const GpuCounters& counters() const { return counters_; }

 private:
  GpuId id_;
  GpuSpec spec_;
  PcieLink* host_link_;

  GpuPhase phase_ = GpuPhase::kIdle;
  // The in-flight upload's link reservation (valid while kLoading), so an
  // abort can hand the slot back to the shared host link.
  TransferTiming load_transfer_;
  metrics::TimeWeightedAverage sm_meter_;
  GpuCounters counters_;
};

}  // namespace gfaas::gpu
