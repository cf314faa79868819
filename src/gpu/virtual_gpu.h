// Virtual GPU device: the testbed substitute for a physical RTX 2080.
//
// The scheduling layers observe exactly what they would observe on real
// hardware through the paper's GPU Manager: which models are resident
// (one GPU process per model, §III-C), how much memory is free, whether
// the device is busy, and when it will finish. Timing comes from the
// Table I profiles in models::ModelRegistry (scaled by the GpuSpec
// for heterogeneous types); SM utilization integrates occupancy over
// simulated time the same way `nvidia-smi` samples it on the testbed —
// zero while a model uploads, proportional to batch occupancy while a
// kernel runs (§V-C).
#pragma once

#include <unordered_map>
#include <vector>

#include "common/id.h"
#include "common/status.h"
#include "common/bytes.h"
#include "gpu/gpu_spec.h"
#include "gpu/pcie.h"
#include "metrics/stats.h"

namespace gfaas::gpu {

enum class GpuPhase { kIdle, kLoading, kInferring };

// One resident model = one GPU process (paper §III-C: "Each GPU process
// uploads an inference model when initiating").
struct GpuProcess {
  ProcessId id;
  ModelId model;
  Bytes occupation = 0;  // device bytes reserved for the model
  bool loaded = false;  // false while the model upload is in flight
};

struct GpuCounters {
  std::int64_t loads = 0;
  std::int64_t inferences = 0;
  std::int64_t evictions = 0;
  Bytes bytes_uploaded = 0;
};

class VirtualGpu {
 public:
  // `host_link` is the PCIe link used for uploads; it may be shared by
  // several GPUs on a node (contention) or per-GPU. Not owned.
  VirtualGpu(GpuId id, GpuSpec spec, PcieLink* host_link);

  GpuId id() const { return id_; }
  const GpuSpec& spec() const { return spec_; }

  // --- process / memory management (called by the GPU Manager) ---

  // Creates a process for `model`, reserving `occupation` bytes. Fails
  // with kInvalidArgument if `occupation` <= 0 and with kResourceExhausted
  // if it exceeds free_memory() (the caller must evict first — the GPU
  // never OOMs implicitly). Per-process memory is virtually addressed, so
  // only the byte count matters, not where the bytes lie.
  StatusOr<ProcessId> create_process(ModelId model, Bytes occupation);

  // Kills a process and frees its memory (model eviction, §III-C: "GPU
  // Manager kills the process associated with the evicted model").
  Status kill_process(ProcessId process);

  // The model's process (nullptr if none); valid until it is killed.
  const GpuProcess* find_process(ModelId model) const;
  bool has_model(ModelId model) const { return find_process(model) != nullptr; }
  std::vector<GpuProcess> processes() const;
  std::size_t process_count() const { return processes_.size(); }

  Bytes free_memory() const { return spec_.memory_capacity - used_; }
  Bytes memory_capacity() const { return spec_.memory_capacity; }

  // --- execution timing (called by the GPU Manager's event handlers) ---

  // Begins uploading the model of `process` at `now`; returns the
  // completion time (PCIe transfer of the occupation size, scaled by the
  // spec's load_time_scale around the profiled `load_time`). The GPU is
  // busy and its SMs idle until then.
  StatusOr<SimTime> begin_load(SimTime now, ProcessId process, SimTime load_time);
  // Marks the upload finished; the process becomes usable.
  Status finish_load(SimTime now, ProcessId process);

  // Begins inference at `now` with the given profiled duration and batch
  // size; returns completion time. SM occupancy = min(1, batch/sm_count)
  // while running.
  StatusOr<SimTime> begin_inference(SimTime now, ProcessId process,
                                    SimTime infer_time, std::int64_t batch);
  Status finish_inference(SimTime now, ProcessId process);

  // Aborts the in-flight load or inference at `now` (the GPU died or the
  // request was cancelled, chaos/hedging paths): the device returns to
  // idle and its SMs stop accruing occupancy. An aborted upload releases
  // its PCIe reservation so co-located GPUs stop queueing behind a
  // transfer that will never finish. Resident processes stay; the caller
  // decides their fate (the GPU Manager evicts a half-loaded process, a
  // killed GPU is retired wholesale via CacheManager::remove_gpu).
  Status abort_execution(SimTime now);

  // --- observable state ---
  GpuPhase phase() const { return phase_; }
  bool is_busy() const { return phase_ != GpuPhase::kIdle; }
  // Completion time of the in-flight operation (now if idle).
  SimTime busy_until() const { return busy_until_; }

  // Average SM utilization over [0, now].
  double sm_utilization(SimTime now) const { return sm_meter_.average(now); }
  const GpuCounters& counters() const { return counters_; }

 private:
  GpuProcess* mutable_process(ProcessId id);

  GpuId id_;
  GpuSpec spec_;
  PcieLink* host_link_;
  Bytes used_ = 0;  // sum of the live processes' occupation
  std::unordered_map<std::int64_t, GpuProcess> processes_;  // by process id
  std::int64_t next_process_ = 1;

  GpuPhase phase_ = GpuPhase::kIdle;
  SimTime busy_until_ = 0;
  // The in-flight upload's link reservation (valid while kLoading), so an
  // abort can hand the slot back to the shared host link.
  TransferTiming load_transfer_;
  metrics::TimeWeightedAverage sm_meter_;
  GpuCounters counters_;
};

}  // namespace gfaas::gpu
