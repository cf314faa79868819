// Scheduling policies (paper §IV).
//
// A policy is invoked by the scheduling engine whenever the situation of
// §IV-A holds: "at least one request is waiting in the global queue and at
// least one GPU is idle" (or a local queue has work for an idle GPU). The
// policy inspects cluster state through SchedulingContext and emits
// actions through the same interface; the engine applies each action
// immediately, so within one invocation the policy always sees consistent
// state (a GPU it just dispatched to is no longer idle).
//
// Policies:
//   * LbScheduler       — the baseline: "dispatches the request at the
//                         head of the global queue whenever a GPU becomes
//                         idle" (§V-A).
//   * LalbScheduler     — Locality-Aware Load-Balancing, Algorithms 1 & 2,
//                         with the O3 limit parameter. limit == 0 disables
//                         out-of-order dispatch (plain LALB); the paper's
//                         default for LALBO3 is 25.
//
// LALB's placement queries are set intersections over GPU ids: a model's
// holders (the cache's per-model bitset) with the idle GPUs (the engine's
// idle bitset). The policy walks the words of `holders & idle` for an
// idle holder and `holders & ~idle` for the busy ones, reading each
// visited GPU's dispatch count and finish-time terms from one flat
// per-GPU array, so a placement costs a word per 64 GPUs plus the
// holders it visits, with no per-holder virtual call. Bits come out in
// ascending id order, which every tie-break below relies on.
#pragma once

#include <algorithm>
#include <memory>
#include <string>

#include "cache/cache_manager.h"
#include "common/gpu_bitset.h"
#include "common/id.h"
#include "common/time.h"
#include "core/queues.h"
#include "core/request.h"

namespace gfaas::core {

// One GPU's scheduling load: the idle-order frequency key and the two
// terms of its estimated finish time.
struct GpuLoad {
  std::int64_t dispatches = 0;
  SimTime committed_finish = 0;  // end of the in-flight load + inference
  SimTime local_work = 0;        // inference time parked in its local queue

  // Absolute finish of all work assigned to the GPU: the in-flight
  // operation, then its local queue (§IV-A).
  SimTime estimated_finish(SimTime now) const {
    return std::max(now, committed_finish) + local_work;
  }
};

// What a policy can see and do. Implemented by the scheduling engine
// (cluster::SchedulerEngine for both simulated and real-time modes).
class SchedulingContext {
 public:
  virtual ~SchedulingContext() = default;

  virtual SimTime now() const = 0;

  // Idle GPUs, "sorted by frequency" (Algorithm 1 input). We interpret
  // frequency as dispatch count, most-used first, ties by lowest id: hot
  // GPUs hold hot models, so scanning them first maximizes hit chances.
  // The order is walked, never copied: first/last are O(1), and
  // next_idle_gpu() steps past the (dispatch_count, id) key a GPU had when
  // the walk visited it. All three return an invalid id when there is no
  // such GPU.
  virtual GpuId first_idle_gpu() const = 0;
  virtual GpuId last_idle_gpu() const = 0;
  virtual GpuId next_idle_gpu(std::int64_t dispatches, GpuId gpu) const = 0;
  // O(1) lookups against the engine's cluster-state index, so policies can
  // probe individual GPUs.
  virtual bool is_idle(GpuId gpu) const = 0;
  // Dispatch count backing the idle-GPU frequency ordering: among a set of
  // candidates, the "first in idle order" is the one maximizing
  // (dispatch_count, lowest id).
  virtual std::int64_t dispatch_count(GpuId gpu) const = 0;
  // First GPU in idle order with pending local-queue work (invalid id if
  // none): the serve-local head of Algorithm 1 as an O(1) index lookup, so
  // policies never enumerate the idle set just to find queued local work.
  virtual GpuId first_idle_with_local_work() const = 0;
  // The idle GPUs (those is_idle() reports) as a bitset over GPU ids, to
  // intersect with cache().holders(): valid until the next action.
  virtual GpuBits idle_gpu_bits() const = 0;
  // Every GPU's load, indexed by GPU id value: dispatch_count() and the
  // terms of estimated_finish_time() as one flat array. Valid until the
  // next action or fleet change.
  virtual const GpuLoad* gpu_loads() const = 0;

  virtual const GlobalQueue& global_queue() const = 0;
  virtual GlobalQueue& mutable_global_queue() = 0;
  virtual const LocalQueues& local_queues() const = 0;

  virtual const cache::CacheManager& cache() const = 0;

  // Absolute estimated finish time of ALL work assigned to the GPU:
  // in-flight operation + local queue contents (§IV-A).
  virtual SimTime estimated_finish_time(GpuId gpu) const = 0;

  // Profiled latencies (§IV-A, Table I).
  virtual SimTime load_time(ModelId model) const = 0;
  virtual SimTime infer_time(ModelId model, std::int64_t batch) const = 0;

  // --- actions (applied immediately by the engine) ---
  // Starts `request` (currently in the global queue) on `gpu` (idle).
  virtual void dispatch_from_global(RequestId request, GpuId gpu, bool false_miss) = 0;
  // Starts the head of `gpu`'s local queue on it.
  virtual void dispatch_from_local(GpuId gpu) = 0;
  // Moves `request` from the global queue to `gpu`'s local queue.
  virtual void move_to_local(RequestId request, GpuId gpu) = 0;
};

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;
  virtual std::string name() const = 0;
  // Performs zero or more actions. Called on request arrival and on every
  // GPU idle transition.
  virtual void schedule(SchedulingContext& ctx) = 0;
};

// Baseline load-balancing scheduler.
class LbScheduler final : public SchedulingPolicy {
 public:
  std::string name() const override { return "LB"; }
  void schedule(SchedulingContext& ctx) override;
};

// Locality-aware load-balancing, with optional out-of-order dispatch.
class LalbScheduler final : public SchedulingPolicy {
 public:
  // o3_limit == 0: in-order LALB. o3_limit > 0: Algorithm 1 with the
  // given starvation limit (paper default 25).
  explicit LalbScheduler(int o3_limit = 0);

  std::string name() const override;
  void schedule(SchedulingContext& ctx) override;

  int o3_limit() const { return o3_limit_; }

 private:
  // Algorithm 2. Returns true iff the request was dispatched to gpu_i.
  bool locality_load_balance(SchedulingContext& ctx, GpuId gpu_i, RequestId request);

  void schedule_in_order(SchedulingContext& ctx);
  void schedule_out_of_order(SchedulingContext& ctx);
  // Algorithm 1 lines 2-21 for one idle GPU.
  void serve_out_of_order(SchedulingContext& ctx, GpuId gpu_i);

  int o3_limit_;
};

// Factory used by experiment configs.
enum class PolicyName { kLb, kLalb, kLalbO3 };
std::string policy_display_name(PolicyName name);
std::unique_ptr<SchedulingPolicy> make_scheduler(PolicyName name, int o3_limit = 25);

}  // namespace gfaas::core
