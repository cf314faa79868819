// Sharded multi-engine serving tier: N independent SchedulerEngine
// shards, each a complete SimCluster (own simulator, GPU partition,
// cache manager, ClusterStateIndex), fronted by a model-affinity
// ShardRouter and balanced by bounded cross-shard work stealing.
//
// Why this scales: a single SchedulerEngine is one event loop — no
// matter how many GPUs or producers exist, every dispatch decision
// serializes through it. Sharding splits the fleet into N partitions
// whose event loops share NOTHING on the hot path: requests are routed
// once at arrival (consistent hashing on model id, so a model's warm
// copies and its traffic concentrate on one shard and the paper's
// cache-locality reasoning survives sharding), and the shards only meet
// at epoch barriers.
//
// Epoch-barrier replay (conservative bulk-synchronous PDES): the
// orchestrator repeatedly (1) routes and injects the next epoch's
// arrivals into their shards' simulators (on the arrival lane, so
// same-time ordering matches an upfront-scheduled replay exactly; a
// replicated model's replica is chosen against the shards' backlogs at
// the barrier, ShardRouter::route_by_backlog),
// (2) runs every shard independently — sequentially or on a worker
// pool; the results are bit-identical either way because shards never
// read each other mid-epoch — to the epoch's end, and (3) at the
// barrier runs the steal balancer: a shard whose global-queue depth
// exceeds max(min_queue, threshold x fleet-median depth) donates up to
// max_batch of its NEWEST queued requests to the shallowest shard, and
// a dead shard (no schedulable GPUs — e.g. chaos killed all its
// domains) is evacuated entirely. Stolen requests keep their ids,
// deadlines and completion hooks and carry a steal marker
// (core::Request::steal_hops) for telemetry and the digest guard.
//
// Determinism: with one shard this machinery reproduces the seed engine
// BYTE-IDENTICALLY (bench_seed_digest --sharded=1); with N shards the
// epoch schedule, the routing, and every steal decision are pure
// functions of (configs, workload, options), so repeated runs — and
// sequential vs threaded runs — produce bit-identical completion
// digests, steal decisions included.
#pragma once

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/config.h"
#include "cluster/engine.h"
#include "cluster/experiment.h"
#include "common/thread_annotations.h"
#include "common/time.h"
#include "core/request.h"
#include "models/zoo.h"
#include "shard/router.h"

namespace gfaas::telemetry {
class Telemetry;
class Counter;
}  // namespace gfaas::telemetry

namespace gfaas::shard {

struct StealConfig {
  bool enabled = true;
  // A shard donates when its global-queue depth exceeds
  // max(min_queue, threshold x fleet-median depth). The median (not the
  // mean) keeps one pathological shard from dragging the trigger up for
  // everyone.
  double threshold = 1.5;
  std::size_t min_queue = 8;
  // Per-shard trigger floor scales with capacity: a queue worth half the
  // shard's schedulable GPUs is dispatch jitter, not overload — stealing
  // it pays cold-miss cost for no queueing win.
  double min_queue_per_gpu = 0.5;
  // Per-donor, per-barrier steal cap (dead-shard evacuation ignores it
  // in total but still moves chunks of this size, spread over the
  // shallowest targets).
  std::size_t max_batch = 64;
};

struct ShardedOptions {
  // Barrier interval, simulated time. Smaller = tighter steal response
  // and finer-grained arrival routing; larger = less coordination
  // overhead. Must be >= 2 (the epoch runs to its deadline minus one
  // tick so barrier-time events stay ordered after injected arrivals).
  SimTime epoch = msec(500);
  StealConfig steal;
  // Worker threads driving shards each epoch; 1 = run shards inline on
  // the orchestrator thread. Results are identical either way.
  int threads = 1;
  RouterConfig router;
  // Hot-model spread target, consumed by prepare_routing (the cluster
  // itself never reads it): a model whose traffic share exceeds
  // 1/(spread x shards) is replicated over ceil(share x shards x spread)
  // ring successors, keeping every replica's slice under a shard's fair
  // share with 2x headroom at the default. 0 disables spreading.
  double hot_model_spread = 2.0;
  // Offline ring-weight calibration rounds, also prepare_routing-only: route the
  // whole (known) replay, damp each shard's weight toward the fair
  // per-shard request share, repeat. Flattens the binomial tail-model
  // imbalance that per-model hashing leaves behind. 0 disables.
  int calibration_rounds = 4;
};

struct ShardedReplayStats {
  std::size_t epochs = 0;
  // Requests moved by the steal balancer (evacuations included), and
  // the number of donor->target batches they moved in.
  std::int64_t steals = 0;
  std::int64_t steal_batches = 0;
  // Steals out of shards with zero schedulable GPUs (domain kills).
  std::int64_t evacuations = 0;
  // Wall-clock decomposition of the replay. critical_path_ns sums, per
  // epoch, the SLOWEST shard's wall time — what the epoch costs when
  // every shard has its own core, measured independently of how many
  // cores this host actually has. serial_ns is the orchestrator-only
  // work between barriers (routing, injection, steal decisions).
  // total_work_ns sums every shard's wall time (= single-loop cost).
  std::uint64_t critical_path_ns = 0;
  std::uint64_t serial_ns = 0;
  std::uint64_t total_work_ns = 0;
  std::vector<std::uint64_t> shard_work_ns;
  std::vector<std::int64_t> stolen_from;
  std::vector<std::int64_t> stolen_to;
};

class ShardedCluster {
 public:
  // One ClusterConfig per shard (its GPU partition); `registry` is the
  // model catalog every shard's cluster copies.
  ShardedCluster(std::vector<cluster::ClusterConfig> configs,
                 const models::ModelRegistry& registry,
                 ShardedOptions options = {});
  ~ShardedCluster();
  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  cluster::SimCluster& shard(std::size_t index) { return *shards_[index]; }
  cluster::SchedulerEngine& engine(std::size_t index) {
    return shards_[index]->engine();
  }
  ShardRouter& router() { return router_; }
  const ShardedOptions& options() const { return options_; }
  std::size_t route(ModelId model, std::uint64_t salt = 0) const {
    return router_.route(model, salt);
  }
  std::size_t total_gpu_count() const;

  // Attaches one shard's telemetry: labels every engine.*/cache.*
  // instrument with `{shard=index}` (Telemetry::set_shard), stamps the
  // shard onto its span records, and resolves the steal counters
  // (engine.steals.out / engine.steals.in) the balancer bumps at each
  // barrier. Wire before replay(); nullable.
  void set_telemetry(std::size_t index, telemetry::Telemetry* telemetry);

  // Membership-rebalancing hook for shard `index`'s Autoscaler
  // (AutoscalerConfig::membership_hook): re-weights the router ring to
  // the shard's schedulable-GPU count, so a grown partition attracts
  // proportionally more models and a draining one sheds them — without
  // re-routing any model whose shard did not change (consistent
  // hashing), so warm copies elsewhere are never stranded. Safe to call
  // from the shard's own executor context; per-shard updates commute.
  std::function<void()> membership_hook(std::size_t index);

  // Routes and replays the arrival-sorted request stream to completion.
  // Dies if work strands (every shard dead with requests queued).
  ShardedReplayStats replay(const std::vector<core::Request>& requests);

  const ShardedReplayStats& stats() const {
    orchestrator_serial_.AssertHeld();
    return stats_;
  }
  // Completion/failure records, concatenated shard-major (shard 0's
  // stream first) — deterministic, and with one shard exactly the seed
  // engine's stream.
  std::vector<core::CompletionRecord> completions() const;
  std::vector<core::CompletionRecord> failures() const;

 private:
  // Per-shard telemetry handles resolved at set_telemetry().
  struct ShardTelemetry {
    telemetry::Telemetry* telemetry = nullptr;
    telemetry::Counter* steals_out = nullptr;
    telemetry::Counter* steals_in = nullptr;
  };

  void inject_arrivals(const std::vector<core::Request>& requests,
                       std::size_t& next, SimTime horizon)
      REQUIRES(orchestrator_serial_);
  // Runs every shard's simulator to `deadline` (inline or on the worker
  // pool) and folds the per-shard wall times into the stats.
  void run_shards_until(SimTime deadline) REQUIRES(orchestrator_serial_);
  void run_one_shard(std::size_t index, SimTime deadline);
  // The barrier balancer; returns how many requests moved.
  std::size_t steal_rebalance(SimTime at) REQUIRES(orchestrator_serial_);
  // All arrivals injected, all simulators drained, all engines empty.
  bool drained(std::size_t requests_injected, std::size_t total) const;
  void worker_loop(std::size_t worker);

  const ShardedOptions options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<cluster::SimCluster>> shards_;
  std::vector<ShardTelemetry> telemetry_;

  // Replay-orchestration affinity: replay() and the steal balancer's
  // accounting run on the single orchestrating thread (the shard
  // simulators fan out to workers; this state never does).
  common::ExecutorAffinity orchestrator_serial_;
  ShardedReplayStats stats_ GUARDED_BY(orchestrator_serial_);

  // Per-shard backlog (requests in the global and local queues), taken
  // at each barrier and bumped per injected arrival; read by the
  // router's replica choice. Sized once, reused every epoch.
  std::vector<std::size_t> backlog_ GUARDED_BY(orchestrator_serial_);

  // Per-epoch scratch: slot i is written by the worker running shard i
  // during the epoch and read by the orchestrator after the barrier —
  // the mutex hand-off below orders the accesses (no annotation: the
  // guard is the barrier protocol, not a single capability).
  std::vector<std::uint64_t> epoch_wall_ns_;

  // Worker-pool barrier state (threads > 1 only).
  common::Mutex mu_;
  common::CondVar work_cv_;
  common::CondVar done_cv_;
  SimTime epoch_deadline_ GUARDED_BY(mu_) = 0;
  std::uint64_t generation_ GUARDED_BY(mu_) = 0;
  std::size_t remaining_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace gfaas::shard
