// Model-affinity shard router: consistent hashing on model id over a
// weighted ring of scheduler shards.
//
// Why affinity, not round-robin: LALB's whole story (the paper's
// cache-aware placement) depends on a model's requests meeting its warm
// copies. Hashing the MODEL (never the request) to a shard concentrates
// each model's traffic — and therefore its warm copies — on one shard's
// GPU partition, so every shard-local LALB instance keeps the full
// locality signal. Consistent hashing makes membership changes cheap:
// when the Autoscaler grows or shrinks one shard's partition, only the
// ring arcs owned by that shard move, so the other shards' warm models
// are never re-routed (no stranded warm state on rebalance).
//
// Weighted virtual nodes: each shard owns round(virtual_nodes * weight)
// pseudo-random ring points; weight defaults to 1 per shard and the
// rebalancing hooks set it to the shard's schedulable-GPU count, so a
// half-drained shard attracts half the models. Weight 0 removes the
// shard from the ring entirely (a dead partition routes nothing).
//
// Hot-model replication: affinity has a capacity ceiling — a model whose
// traffic share exceeds one shard's fair share CANNOT fit any single
// shard, and steady-state work stealing of its overflow de-localizes
// exactly the requests that most want their warm copies. set_replication
// spreads such a model across its first K DISTINCT ring successors (the
// replica set is as stable under membership changes as single-copy
// routing); route()'s salt — callers pass the request id — picks the
// replica deterministically. Each replicated model's replica set is
// computed when its replication is set and again at every ring rebuild,
// so route() only indexes it and never allocates. A model hot enough to need K shards keeps
// warm copies on all K, so the locality story survives the split. The
// replay orchestrator, which holds a consistent per-shard backlog
// snapshot at every epoch barrier, routes through route_by_backlog()
// instead: the same salted pick, moved toward a less backlogged replica
// with a probability proportional to the backlog gap.
//
// Threading: route() is called from producer threads (ShardedIngress) and
// from the replay orchestrator, route_by_backlog() from the orchestrator
// only; set_weight() from autoscaler callbacks on
// shard worker threads. All ring/weight state is GUARDED_BY(mu_) — the
// negative-compile probe nc_shard_router_guarded pins the contract.
// Determinism: the ring is a pure function of (config, weights), and
// weight updates commute, so any interleaving of per-shard set_weight()
// calls converges to the same ring — routing decisions taken at epoch
// barriers are bit-reproducible.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/id.h"
#include "common/thread_annotations.h"

namespace gfaas::shard {

struct RouterConfig {
  // Ring points per unit of weight. More points = smoother balance on
  // weight changes, at O(points * shards) rebuild cost.
  int virtual_nodes = 64;
  // Perturbs ring-point placement (never consumed as an RNG stream).
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;
};

class ShardRouter {
 public:
  explicit ShardRouter(std::size_t shards, RouterConfig config = {});

  std::size_t shard_count() const { return shard_count_; }

  // Model -> shard. Pure function of (ring, replication, model, salt);
  // O(log points). With replication set for the model, `salt` (pass the
  // request id) picks among its K distinct ring successors; unreplicated
  // models ignore the salt entirely.
  std::size_t route(ModelId model, std::uint64_t salt = 0) const;

  // route(model, salt) made backlog-aware, for the replay orchestrator:
  // `backlog` holds each shard's queued-request count. A replicated
  // model's salted pick p moves to its least-backlogged replica b (the
  // first in replica order on ties) with probability
  // (backlog[p] - backlog[b]) / (backlog[p] + backlog[b]), the coin a
  // second stateless hash of the salt. Proportional, not join-the-
  // shortest-queue: evening two overloaded replicas exactly kept both
  // under the steal balancer's trigger when it was relative to the fleet
  // median, which stopped the stealing that relieved them (the trigger
  // now follows the lightest shard and the mean; JSQ was not measured
  // against it).
  // Unreplicated models, and picks whose backlog ties the lightest,
  // route exactly as route(). Allocates nothing.
  std::size_t route_by_backlog(ModelId model, std::uint64_t salt,
                               const std::vector<std::size_t>& backlog) const;

  // Spreads `model` over its first `copies` distinct ring successors
  // (clamped to the shard count; <=1 restores single-copy affinity).
  void set_replication(ModelId model, std::uint32_t copies);
  std::uint32_t replication(ModelId model) const;

  // Sets one shard's weight and rebuilds the ring. Per-shard updates
  // commute (each writes a distinct slot), so concurrent autoscaler
  // hooks converge to the same membership regardless of order.
  void set_weight(std::size_t shard, double weight);
  // Replaces all weights at once (initial wiring, tests).
  void set_weights(const std::vector<double>& weights);
  std::vector<double> weights() const;

  // Ring occupancy per shard (diagnostics/tests): how many of the ring's
  // points each shard owns under the current weights.
  std::vector<std::size_t> ring_share() const;

 private:
  // Negative-compile probe seam (tests/negative_compile): pokes at the
  // guarded membership table without the lock; must fail the analysis.
  friend class ThreadSafetyProbe;

  // A replicated model: its configured copy count and its replica set,
  // the first `copies` distinct shards clockwise from its ring point
  // (fewer when fewer shards are on the ring).
  struct Replicas {
    std::uint32_t copies = 1;
    std::vector<std::uint32_t> shards;
  };

  void rebuild() REQUIRES(mu_);
  // `model`'s replica set, or null when it has a single copy.
  const std::vector<std::uint32_t>* replicas(ModelId model) const REQUIRES(mu_);
  std::uint64_t model_point(ModelId model) const;
  // Index of the first ring point clockwise from `point` (wrapping).
  std::size_t successor(std::uint64_t point) const REQUIRES(mu_);
  void place_replicas(std::int64_t model, Replicas& replicas) const REQUIRES(mu_);

  const std::size_t shard_count_;
  const RouterConfig config_;

  mutable common::Mutex mu_;
  std::vector<double> weights_ GUARDED_BY(mu_);
  // The membership table: sorted (point, shard) ring.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_ GUARDED_BY(mu_);
  // model id -> replicas (absent = 1 copy). Survives ring rebuilds, which
  // recompute every replica set.
  std::unordered_map<std::int64_t, Replicas> replication_ GUARDED_BY(mu_);
};

}  // namespace gfaas::shard
