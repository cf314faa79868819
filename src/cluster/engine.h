// Scheduling engine: owns the request table, the global/local queues over
// it and the policy, and implements the paper's Scheduler component
// (Fig. 3).
//
// Event flow: the Gateway (src/gateway) submits requests -> global queue
// -> the policy is invoked ("at least one request waiting and at least
// one GPU idle", §IV-A) -> policy actions are applied synchronously
// (dispatch via the owning GPU Manager, or move to a local queue) -> on
// every GPU completion the engine re-invokes the policy and fires the
// request's own completion hook (core::Request::on_complete).
//
// Every request the engine owns — queued globally, parked in a local
// queue, or executing — sits in one slot of a core::RequestTable from
// submit to completion: the queues relink the slot, dispatch marks it
// executing on its GPU, and completion frees it before the hook fires.
// One id -> slot index answers cancel, hedge and "where is it" lookups in
// O(1), and the slots and index nodes are recycled, so a request that
// hits the cache costs the engine no allocation.
//
// The engine is also the core::SchedulingContext the policies program
// against, providing finish-time estimates built from the GPU Managers'
// committed finish times plus local-queue work (§IV-A).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "cache/cache_manager.h"
#include "cluster/cluster_state_index.h"
#include "common/function_ref.h"
#include "common/thread_annotations.h"
#include "cluster/gpu_manager.h"
#include "core/queues.h"
#include "core/scheduler.h"
#include "metrics/stats.h"

namespace gfaas::telemetry {
class Telemetry;
}  // namespace gfaas::telemetry

namespace gfaas::cluster {

class SchedulerEngine final : public core::SchedulingContext {
 public:
  // The fleet is the managers' GPUs, whose ids must run 0, 1, 2, ... in
  // manager order.
  SchedulerEngine(sim::Executor* executor, cache::CacheManager* cache,
                  const models::ModelRegistry* registry,
                  const std::vector<GpuManager*>& managers,
                  std::unique_ptr<core::SchedulingPolicy> policy);
  ~SchedulerEngine();

  // Attaches the live-telemetry seam: dispatch/completion/failure/
  // cancellation counters, execution-time accumulators, dispatch and
  // model-load lifecycle spans, and a pull probe for queue depths, idle
  // and schedulable GPU counts, and the cache hit ratio. Nullable — the
  // default (detached) hot path records nothing (the
  // bench_seed_digest guard covers both states).
  void set_telemetry(telemetry::Telemetry* telemetry);

  // Submits an arriving request; invokes the policy.
  void submit(core::Request request);

  // --- dynamic fleet membership (src/autoscale) ---
  // Joins a provisioned node's GPUs (fresh ids that continue the dense
  // numbering; the caller has already added them to the cache): they
  // enter the idle set, and the policy runs immediately so a backed-up
  // global queue can use them at once. `manager` must outlive the engine.
  void add_node(GpuManager* manager);
  // Begins draining: the GPU leaves the idle/location indexes (no new
  // dispatches, its cached models stop attracting requests), finishes its
  // in-flight work, and serves out its local queue — those requests hold
  // pins on its cached models and would strand anywhere else.
  void fence_gpu(GpuId gpu);
  // Aborts a drain: the GPU rejoins the indexes and the policy runs.
  void unfence_gpu(GpuId gpu);
  // Retires a drained GPU (fenced, idle, empty local queue) permanently.
  void remove_gpu(GpuId gpu);
  // Chaos verb: the GPU dies mid-run. The in-flight request (if any)
  // fails — its completion hook fires with `failed = true` rather than
  // silence — local-queue requests give back their model pins and rejoin
  // the global queue (keeping their ids, deadlines and hooks), and the
  // GPU is fenced and removed in one step. Must run strictly before the
  // in-flight request's completion instant.
  void kill_gpu(GpuId gpu);
  bool is_fenced(GpuId gpu) const {
    serial_.AssertHeld();
    return index_.is_fenced(gpu);
  }
  // Whether the GPU is currently part of the cluster (false once removed
  // or killed; ids are never reused).
  bool is_registered(GpuId gpu) const {
    serial_.AssertHeld();
    return index_.is_registered(gpu);
  }
  // Whether a fenced GPU has finished all committed work and can be removed.
  bool drained(GpuId gpu) const {
    serial_.AssertHeld();
    return index_.is_fenced(gpu) && index_.is_idle(gpu) && local_queues_.empty(gpu);
  }
  // GPUs the policy may currently target (registered and not fenced).
  std::size_t schedulable_gpu_count() const {
    serial_.AssertHeld();
    return index_.schedulable_count();
  }
  std::size_t idle_gpu_count() const {
    serial_.AssertHeld();
    return index_.idle_count();
  }

  // --- retry / hedging support (src/gateway) ---
  // Cancels a not-yet-completed request wherever it sits: waiting in the
  // global queue, parked in a local queue (its model pin is given back),
  // or executing on a GPU (aborted through the GPU Manager; the wasted
  // GPU-time accrues to cancelled_execution_time()). The request's
  // completion hook is dropped with it, without firing — the caller owns
  // result delivery for cancelled duplicates. Returns false if the request is
  // unknown here (already completed, failed, or never submitted).
  bool cancel_request(RequestId id);
  // Whether the request is still queued (global or local), i.e. has not
  // started executing — the hedging trigger: duplicating a request that
  // is already running buys nothing.
  bool request_waiting(RequestId id) const;
  // Whether the request is currently executing on some GPU.
  bool request_executing(RequestId id) const {
    serial_.AssertHeld();
    return table_.place_of(id) == core::Place::kExecuting;
  }
  // Dispatches a hedge duplicate directly onto an idle schedulable GPU,
  // bypassing the queues: prefers an idle holder of the model (a warm
  // duplicate finishes fastest), else the least-dispatched idle GPU (the
  // classic LB pick). The duplicate only launches when its ETA on the
  // target beats the work still queued ahead of `primary` (the original
  // submission id) — otherwise the parked placement is still the right
  // call and duplicating would waste the idle GPU. Returns the chosen
  // GPU, or an invalid id when no idle GPU exists or the hedge cannot
  // win — the caller re-arms its hedge timer.
  GpuId hedge_dispatch(core::Request request, RequestId primary);
  // Gray-degrades (or, with factor 1, heals) a GPU: executions run
  // `factor`x slower while every estimate the scheduler sees stays at the
  // healthy profile numbers (see GpuManager::set_slowdown). The straggler
  // injection behind the hedging win.
  void degrade_gpu(GpuId gpu, double factor) {
    manager_for(gpu).set_slowdown(gpu, factor);
  }
  // GPU-time thrown away by cancel_request() aborts — the duplicate-work
  // overhead hedging pays for its p99 win — and the cancellation count.
  SimTime cancelled_execution_time() const {
    serial_.AssertHeld();
    return cancelled_execution_time_;
  }
  std::int64_t cancellations() const {
    serial_.AssertHeld();
    return cancellations_;
  }

  // --- cross-shard work stealing (src/shard) ---
  // Removes up to `max_count` requests from the BACK of the global queue
  // — the newest arrivals, which have waited least, hold no O3 skip
  // credit, and whose departure can invalidate no placement already made
  // — and leaves them in `out` (its old contents dropped) in arrival
  // order, each still carrying its completion hook, ready to be
  // submit()ed into another engine. The caller (shard::ShardedCluster's
  // steal balancer) stamps the steal marker; this engine only forgets the
  // requests. Requests parked in local queues or executing are never
  // stolen: they hold model pins and committed GPU state here.
  // `eligible` filters victims: ineligible requests are skipped during
  // the backward walk and stay queued here — the steal balancer passes
  // "warm on some other shard" so stolen work lands on its cached copies
  // while cold tail-model work keeps its home shard. Allocates nothing
  // once `out` has room for `max_count` requests.
  void steal_from_global(std::size_t max_count,
                         FunctionRef<bool(const core::Request&)> eligible,
                         std::vector<core::Request>& out);

  // Optionally tracked model for the duplicate meter (Fig. 6).
  void track_duplicates_of(ModelId model) { tracked_model_ = model; }

  // --- results ---
  const std::vector<core::CompletionRecord>& completions() const {
    serial_.AssertHeld();
    return completions_;
  }
  // Requests that died with their GPU (kill_gpu); disjoint from
  // completions() and excluded from every latency/miss metric.
  const std::vector<core::CompletionRecord>& failures() const {
    serial_.AssertHeld();
    return failures_;
  }
  // Recomputes the request table from scratch and CHECKs it against the
  // maintained state: the global list's length is its size(), every id
  // index entry names a live slot with that id, each GPU's local list
  // length is its size() and they sum to total_pending(), each GPU's
  // local_work is the inference time of its local list, and every
  // executing slot runs on its own busy GPU, one per registered busy GPU.
  // Also audits the cluster index (ClusterStateIndex::audit) and the
  // cache (CacheManager::audit).
  void audit() const;

  // Requests the engine holds: queued globally, parked locally or
  // executing (hedge duplicates included).
  std::size_t pending() const {
    serial_.AssertHeld();
    return table_.size();
  }
  // Calls `visit(const core::Request&)` for every request the engine
  // holds, in slot order (audits; not a hot path).
  template <typename Visit>
  void for_each_request(Visit&& visit) const {
    serial_.AssertHeld();
    for (core::RequestTable::Index i = 0; i < table_.slot_count(); ++i) {
      if (table_[i].place != core::Place::kFree) visit(table_[i].request);
    }
  }
  std::size_t in_flight() const {
    serial_.AssertHeld();
    return table_.size() - global_queue_.size() - local_queues_.total_pending();
  }
  std::int64_t false_misses() const {
    serial_.AssertHeld();
    return false_misses_;
  }
  double average_top_duplicates(SimTime now) const {
    serial_.AssertHeld();
    return duplicates_meter_.average(now);
  }
  const core::SchedulingPolicy& policy() const { return *policy_; }

  // Policy-invocation cost counters (bench_cluster_scale): number of times
  // the policy actually ran, cumulative wall-clock spent inside it, and the
  // global-queue length observed at each invocation. Wall timing never
  // feeds back into simulated time, so determinism is unaffected.
  std::uint64_t policy_invocations() const {
    serial_.AssertHeld();
    return policy_invocations_;
  }
  std::uint64_t policy_wall_ns() const {
    serial_.AssertHeld();
    return policy_wall_ns_;
  }
  std::uint64_t policy_queue_len_sum() const {
    serial_.AssertHeld();
    return policy_queue_len_sum_;
  }
  std::size_t policy_queue_len_max() const {
    serial_.AssertHeld();
    return policy_queue_len_max_;
  }

  // Copies of the idle set (frequency order) and busy set (id order) for
  // tests and the autoscaler; the policies walk the index.
  std::vector<GpuId> idle_gpus() const {
    serial_.AssertHeld();
    return index_.idle_gpus();
  }
  std::vector<GpuId> busy_gpus() const {
    serial_.AssertHeld();
    return index_.busy_gpus();
  }
  // Calls `visit(GpuId)` for each busy GPU in id order, allocation-free.
  template <typename Visit>
  void for_each_busy_gpu(Visit&& visit) const {
    serial_.AssertHeld();
    index_.for_each_busy(std::forward<Visit>(visit));
  }

  // --- core::SchedulingContext ---
  SimTime now() const override;
  GpuId first_idle_gpu() const override {
    serial_.AssertHeld();
    return index_.first_idle();
  }
  GpuId last_idle_gpu() const override {
    serial_.AssertHeld();
    return index_.last_idle();
  }
  GpuId next_idle_gpu(std::int64_t dispatches, GpuId gpu) const override {
    serial_.AssertHeld();
    return index_.next_idle_after(dispatches, gpu);
  }
  // Fenced GPUs report busy to the policies: they must not be targeted
  // while draining even if physically idle between local-queue requests.
  bool is_idle(GpuId gpu) const override {
    serial_.AssertHeld();
    return index_.is_idle_unfenced(gpu);
  }
  std::int64_t dispatch_count(GpuId gpu) const override {
    serial_.AssertHeld();
    return index_.load(gpu).dispatches;
  }
  GpuId first_idle_with_local_work() const override {
    serial_.AssertHeld();
    return index_.first_idle_with_local_work();
  }
  GpuBits idle_gpu_bits() const override {
    serial_.AssertHeld();
    return index_.idle_bits();
  }
  const core::GpuLoad* gpu_loads() const override {
    serial_.AssertHeld();
    return index_.loads();
  }
  const core::GlobalQueue& global_queue() const override {
    serial_.AssertHeld();
    return global_queue_;
  }
  core::GlobalQueue& mutable_global_queue() override {
    serial_.AssertHeld();
    return global_queue_;
  }
  const core::LocalQueues& local_queues() const override {
    serial_.AssertHeld();
    return local_queues_;
  }
  const cache::CacheManager& cache() const override { return *cache_; }
  SimTime estimated_finish_time(GpuId gpu) const override;
  SimTime load_time(ModelId model) const override;
  SimTime infer_time(ModelId model, std::int64_t batch) const override;
  void dispatch_from_global(RequestId request, GpuId gpu, bool false_miss) override;
  void dispatch_from_local(GpuId gpu) override;
  void move_to_local(RequestId request, GpuId gpu) override;

 private:
  GpuManager& manager_for(GpuId gpu);
  // Registers the manager's GPUs, checking their ids extend the fleet.
  void join(GpuManager* manager) REQUIRES(serial_);
  void run_policy() REQUIRES(serial_);
  // Marks the slot executing on the GPU and starts it there.
  void start_execution(core::RequestTable::Index slot, GpuId gpu, bool false_miss,
                       bool via_local_queue) REQUIRES(serial_);
  // Takes a slot out of its local queue, undoing what move_to_local charged
  // the GPU: the queued-work aggregate and the pin.
  void unpark(core::RequestTable::Index slot) REQUIRES(serial_);
  void on_completion(const core::CompletionRecord& record) REQUIRES(serial_);
  // Retires an executing request: frees its slot and hands back its
  // completion hook.
  core::CompletionHook retire(RequestId id) REQUIRES(serial_);
  void update_duplicates_meter() REQUIRES(serial_);

  // Telemetry instrument handles, resolved once at set_telemetry();
  // null when detached (the hot paths then skip every record).
  struct TelemetryHandles;
  std::unique_ptr<TelemetryHandles> tel_;

  sim::Executor* executor_;
  cache::CacheManager* cache_;
  const models::ModelRegistry* registry_;
  // Owning GPU Manager of each GPU, indexed by GpuId value.
  std::vector<GpuManager*> manager_by_gpu_;
  std::unique_ptr<core::SchedulingPolicy> policy_;

  // Thread-affinity capability: the engine is a single event-loop by
  // contract (Fig. 3) — every method below runs on the executor worker
  // thread. The scheduler state is GUARDED_BY(serial_) so a code path
  // that reaches it without passing an asserted entry point fails the
  // thread-safety analysis.
  common::ExecutorAffinity serial_;

  // Every request the engine owns; the two queues are lists over it.
  core::RequestTable table_ GUARDED_BY(serial_);
  core::GlobalQueue global_queue_ GUARDED_BY(serial_);
  core::LocalQueues local_queues_ GUARDED_BY(serial_);
  // Idle/busy sets, dispatch frequencies, committed finish times and
  // local-queue work aggregates, maintained incrementally at dispatch,
  // completion and local-queue push/pop.
  ClusterStateIndex index_ GUARDED_BY(serial_);
  bool policy_running_ GUARDED_BY(serial_) = false;
  std::int64_t false_misses_ GUARDED_BY(serial_) = 0;
  std::uint64_t policy_invocations_ GUARDED_BY(serial_) = 0;
  std::uint64_t policy_wall_ns_ GUARDED_BY(serial_) = 0;
  std::uint64_t policy_queue_len_sum_ GUARDED_BY(serial_) = 0;
  std::size_t policy_queue_len_max_ GUARDED_BY(serial_) = 0;

  std::vector<core::CompletionRecord> completions_ GUARDED_BY(serial_);
  std::vector<core::CompletionRecord> failures_ GUARDED_BY(serial_);
  SimTime cancelled_execution_time_ GUARDED_BY(serial_) = 0;
  std::int64_t cancellations_ GUARDED_BY(serial_) = 0;
  ModelId tracked_model_;
  metrics::TimeWeightedAverage duplicates_meter_ GUARDED_BY(serial_);
};

}  // namespace gfaas::cluster
