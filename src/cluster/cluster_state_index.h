// Incrementally maintained cluster-state index for the scheduling engine.
//
// The paper's §VI scalability note requires the Scheduler to answer
// "which GPUs are idle" and "how loaded is this GPU" in time bounded by
// the answer, not by cluster size. This index keeps that promise by
// updating state at the three mutation points the engine already owns —
// dispatch, completion, and local-queue push/pop — instead of rebuilding
// views per policy invocation:
//
//   * idle GPUs, ordered by dispatch frequency (most-dispatched first,
//     ties by id): Algorithm 1's "sorted by frequency" input, O(#idle) to
//     enumerate, O(log #gpus) to maintain;
//   * idle GPUs with pending local-queue work, in the same order: the
//     serve-local head of Algorithm 1 (lines 2-5) as an O(1) lookup
//     instead of an idle-set scan per dispatch. "Pending work" is keyed
//     on local_work > 0, not on a request count: every parked request
//     adds its inference time, which the latency model never predicts
//     below 1 µs, so the aggregate is positive exactly when the local
//     queue is non-empty (add_local_work rejects a zero delta);
//   * the same idle, unfenced GPUs as a bitset over GPU ids
//     (common/gpu_bitset.h), set and cleared wherever a GPU enters and
//     leaves the idle order: Algorithm 2 intersects it with a model's
//     holder bitset from the cache, a word per 64 GPUs, so an idle or a
//     busy holder is found without probing holders one by one;
//   * busy GPUs in id order: O(#gpus) to enumerate (a cold path);
//   * per-GPU dispatch count, committed finish time and local-queue work
//     aggregate in one flat array (core::GpuLoad, indexed by GPU id): the
//     frequency key and the two integer terms of estimated_finish_time(),
//     which the policy reads straight from the array for each holder.
//     SimTime is integer microseconds, so the running local-work sum is
//     exact (no float drift against a per-invocation re-sum).
//
// A GPU leaving an ordered set parks the set node in its per-GPU entry,
// and re-entering re-keys and re-inserts that node (C++17 extract/insert),
// so busy/idle transitions and dispatch re-keying allocate nothing once
// every GPU has been idle once.
//
// Membership is dynamic (elastic fleets, src/autoscale): GPUs join with
// add_gpu, leave through fence -> remove_gpu. A fenced GPU keeps its
// physical idle/busy state but is excluded from both ordered sets, so the
// policies never see it as a dispatch target while it drains; remove_gpu
// retires the id permanently (ids are never reused).
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/gpu_bitset.h"
#include "common/id.h"
#include "common/log.h"
#include "common/time.h"
#include "core/scheduler.h"

namespace gfaas::cluster {

class ClusterStateIndex {
 public:
  // Registers a GPU (initially idle, unfenced, zero dispatches). Ids must
  // be dense from 0, matching the engine's GPU numbering; retired ids
  // stay reserved, so new GPUs always get fresh ids.
  void add_gpu(GpuId gpu);

  // Total ids ever registered (including retired ones).
  std::size_t gpu_count() const { return gpus_.size(); }
  // Registered and not fenced: the GPUs the policies may target.
  std::size_t schedulable_count() const { return schedulable_count_; }
  std::size_t idle_count() const { return idle_.size(); }

  // --- membership transitions (elastic fleet) ---
  // Fences the GPU: it leaves the idle/serviceable sets and stops being a
  // dispatch target; physical state keeps updating while it drains.
  void fence(GpuId gpu);
  // Reverses fence (an aborted scale-down): the GPU rejoins the sets.
  void unfence(GpuId gpu);
  // Retires a drained GPU (must be fenced, idle, with no local work).
  void remove_gpu(GpuId gpu);
  bool is_fenced(GpuId gpu) const { return state(gpu).fenced; }
  bool is_registered(GpuId gpu) const {
    const auto index = static_cast<std::size_t>(gpu.value());
    return gpu.valid() && index < gpus_.size() && gpus_[index].registered;
  }

  // --- transitions (engine mutation points) ---
  void mark_busy(GpuId gpu);
  void mark_idle(GpuId gpu);
  // Counts a dispatch for the frequency ordering; reorders the ordered-set
  // entries if the GPU currently appears in them.
  void record_dispatch(GpuId gpu);
  void set_committed_finish(GpuId gpu, SimTime finish);
  // Adjusts the local-queue work aggregate (positive on push, negative on
  // pop of the corresponding request's inference time; never zero). The
  // GPU is serviceable while the aggregate is positive.
  void add_local_work(GpuId gpu, SimTime delta);

  // --- O(1) lookups ---
  bool is_idle(GpuId gpu) const { return state(gpu).idle; }
  // Idle and not fenced: a dispatch target (one lookup, policy hot path).
  bool is_idle_unfenced(GpuId gpu) const {
    const PerGpu& s = state(gpu);
    return s.idle && !s.fenced;
  }
  // Dispatch count, committed finish time and local-queue work.
  const core::GpuLoad& load(GpuId gpu) const {
    state(gpu);  // checks the id
    return loads_[static_cast<std::size_t>(gpu.value())];
  }

  // --- flat views for the policies' holder walks ---
  // Idle, unfenced GPUs as a bitset over ids (the idle order's members).
  GpuBits idle_bits() const { return idle_bits_.bits(); }
  // Every registered id's load entry, indexed by GPU id (retired ids keep
  // their last values); valid until the next add_gpu.
  const core::GpuLoad* loads() const { return loads_.data(); }

  // First GPU in idle order that is unfenced and has local-queue work
  // (invalid id if none): the serve-local target of Algorithm 1.
  GpuId first_idle_with_local_work() const;

  // --- idle-order walks, allocation-free ---
  // First and last schedulable idle GPU in idle order (invalid if none).
  GpuId first_idle() const {
    return idle_.empty() ? GpuId() : GpuId(idle_.begin()->second);
  }
  GpuId last_idle() const {
    return idle_.empty() ? GpuId() : GpuId(idle_.rbegin()->second);
  }
  // First schedulable idle GPU ordered strictly after the key
  // (dispatches, gpu), invalid if none. `gpu` need not be idle any more:
  // a walk passes the key the previous GPU had when it was visited.
  GpuId next_idle_after(std::int64_t dispatches, GpuId gpu) const {
    const auto it = idle_.upper_bound({dispatches, gpu.value()});
    return it == idle_.end() ? GpuId() : GpuId(it->second);
  }

  // --- enumerations ---
  // Schedulable idle GPUs, most-dispatched first, ties broken by ascending
  // id; O(#idle) off the incrementally ordered set.
  std::vector<GpuId> idle_gpus() const;
  // Registered busy GPUs in ascending id order. Derived from the per-GPU
  // flags in O(#gpus): since Algorithm 2 moved onto the cache location
  // index this is a cold path (the Gateway's full-window estimate,
  // diagnostics), not worth an ordered set maintained on every
  // dispatch/completion transition. for_each_busy calls `visit(GpuId)`
  // for each of them without allocating.
  template <typename Visit>
  void for_each_busy(Visit&& visit) const {
    for (std::size_t id = 0; id < gpus_.size(); ++id) {
      if (gpus_[id].registered && !gpus_[id].idle) {
        visit(GpuId(static_cast<std::int64_t>(id)));
      }
    }
  }
  std::vector<GpuId> busy_gpus() const;

  // Recomputes the idle and serviceable sets, the idle bitset and the
  // schedulable count from the per-GPU flags and local_work, and CHECKs
  // them against the maintained ones.
  void audit() const;

 private:
  // (dispatches, id) ordered most-dispatched first, then id ascending.
  struct IdleOrder {
    bool operator()(const std::pair<std::int64_t, std::int64_t>& a,
                    const std::pair<std::int64_t, std::int64_t>& b) const {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    }
  };
  using OrderedSet = std::set<std::pair<std::int64_t, std::int64_t>, IdleOrder>;
  struct PerGpu {
    bool registered = false;
    bool idle = true;
    bool fenced = false;
    // The GPU's set nodes while it is out of idle_ / serviceable_.
    OrderedSet::node_type idle_node;
    OrderedSet::node_type serviceable_node;
  };

  // Checked per-GPU lookup; inline, as every O(1) query goes through it.
  const PerGpu& state(GpuId gpu) const {
    const auto index = static_cast<std::size_t>(gpu.value());
    GFAAS_CHECK(gpu.valid() && index < gpus_.size()) << "unknown gpu " << gpu.value();
    GFAAS_CHECK(gpus_[index].registered) << "gpu " << gpu.value() << " was removed";
    return gpus_[index];
  }
  PerGpu& state(GpuId gpu) {
    return const_cast<PerGpu&>(static_cast<const ClusterStateIndex*>(this)->state(gpu));
  }
  core::GpuLoad& mutable_load(GpuId gpu) {
    return const_cast<core::GpuLoad&>(
        static_cast<const ClusterStateIndex*>(this)->load(gpu));
  }
  // Inserts/erases the GPU in the ordered sets according to its flags.
  void enter_sets(PerGpu& s, GpuId gpu);
  void leave_sets(PerGpu& s, GpuId gpu);
  // Inserts the GPU's key into the set, reusing its parked node.
  static void enter(OrderedSet& set, OrderedSet::node_type& parked,
                    std::int64_t dispatches, GpuId gpu);
  // Removes the GPU's key from the set, parking its node.
  static void leave(OrderedSet& set, OrderedSet::node_type& parked,
                    std::int64_t dispatches, GpuId gpu);

  std::vector<PerGpu> gpus_;  // indexed by GpuId value
  std::vector<core::GpuLoad> loads_;  // indexed by GpuId value
  // Idle, unfenced GPUs in dispatch-frequency order, and as a bitset.
  OrderedSet idle_;
  GpuBitset idle_bits_;
  // Subset of idle_ with local_work > 0, same order.
  OrderedSet serviceable_;
  std::size_t schedulable_count_ = 0;
};

}  // namespace gfaas::cluster
