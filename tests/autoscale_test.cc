// Elastic-fleet tests: dynamic GPU membership invariants in
// ClusterStateIndex and CacheManager (add/fence/remove mid-run), the
// engine's drain/cold-start semantics, the scaling policies (reactive,
// keep-alive, predictive), warm-pool-aware drain-victim selection, the
// Autoscaler end-to-end, sim-vs-realtime deployment-mode consistency, and
// the determinism guard asserting the paper grid is bit-identical with
// the autoscaler disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <vector>

#include "autoscale/autoscaler.h"
#include "autoscale/deployment.h"
#include "cache/cache_manager.h"
#include "cluster/cluster_state_index.h"
#include "cluster/realtime_cluster.h"
#include "common/rng.h"
#include "metrics/fleet.h"
#include "testing/builders.h"
#include "trace/workload.h"

namespace gfaas::autoscale {
namespace {

using cluster::ClusterStateIndex;
using testkit::head_registry;
using testkit::make_request;

// ---------------------------------------------------------------------------
// ClusterStateIndex membership
// ---------------------------------------------------------------------------

TEST(ClusterStateIndexTest, FenceRemovesFromIdleEnumeration) {
  ClusterStateIndex index;
  for (int i = 0; i < 3; ++i) index.add_gpu(GpuId(i));
  EXPECT_EQ(index.schedulable_count(), 3u);
  index.fence(GpuId(1));
  EXPECT_EQ(index.schedulable_count(), 2u);
  EXPECT_TRUE(index.is_fenced(GpuId(1)));
  EXPECT_TRUE(index.is_idle(GpuId(1)));  // physically idle, just fenced
  const auto idle = index.idle_gpus();
  EXPECT_EQ(idle.size(), 2u);
  EXPECT_TRUE(std::find(idle.begin(), idle.end(), GpuId(1)) == idle.end());
  index.unfence(GpuId(1));
  EXPECT_EQ(index.idle_gpus().size(), 3u);
}

TEST(ClusterStateIndexTest, RemoveRetiresIdAndRejectsLookups) {
  ClusterStateIndex index;
  index.add_gpu(GpuId(0));
  index.add_gpu(GpuId(1));
  index.fence(GpuId(0));
  index.remove_gpu(GpuId(0));
  EXPECT_FALSE(index.is_registered(GpuId(0)));
  EXPECT_TRUE(index.is_registered(GpuId(1)));
  EXPECT_EQ(index.gpu_count(), 2u);  // ids stay reserved
  EXPECT_EQ(index.schedulable_count(), 1u);
  EXPECT_EQ(index.idle_gpus().size(), 1u);
  // New GPUs keep dense numbering after a removal.
  index.add_gpu(GpuId(2));
  EXPECT_EQ(index.idle_gpus().size(), 2u);
  EXPECT_DEATH(index.mark_busy(GpuId(0)), "removed");
}

TEST(ClusterStateIndexTest, RemoveBeforeDrainDies) {
  ClusterStateIndex index;
  index.add_gpu(GpuId(0));
  EXPECT_DEATH(index.remove_gpu(GpuId(0)), "fenced");
  index.fence(GpuId(0));
  index.mark_busy(GpuId(0));
  EXPECT_DEATH(index.remove_gpu(GpuId(0)), "drain");
}

TEST(ClusterStateIndexTest, ServiceableTracksIdleLocalWorkInFrequencyOrder) {
  ClusterStateIndex index;
  for (int i = 0; i < 3; ++i) index.add_gpu(GpuId(i));
  EXPECT_FALSE(index.first_idle_with_local_work().valid());

  // gpu2 is hottest (2 dispatches), gpu1 has 1, gpu0 none.
  for (GpuId gpu : {GpuId(2), GpuId(2), GpuId(1)}) index.record_dispatch(gpu);
  index.add_local_work(GpuId(1), msec(5));
  index.add_local_work(GpuId(2), msec(7));
  EXPECT_EQ(index.first_idle_with_local_work(), GpuId(2));  // most dispatched

  index.mark_busy(GpuId(2));  // busy GPUs are not serviceable
  EXPECT_EQ(index.first_idle_with_local_work(), GpuId(1));
  index.fence(GpuId(1));  // fenced GPUs are not serviceable
  EXPECT_FALSE(index.first_idle_with_local_work().valid());
  index.unfence(GpuId(1));
  EXPECT_EQ(index.first_idle_with_local_work(), GpuId(1));
  index.add_local_work(GpuId(1), -msec(5));
  EXPECT_FALSE(index.first_idle_with_local_work().valid());
  index.mark_idle(GpuId(2));
  EXPECT_EQ(index.first_idle_with_local_work(), GpuId(2));
  index.audit();
  // Every parked request adds positive work, so a zero delta is a bug.
  EXPECT_DEATH(index.add_local_work(GpuId(0), 0), "zero");
}

// Randomized add/fence/unfence/busy/idle/dispatch/local-queue churn,
// cross-checked against a naive full-rescan model after every step.
TEST(ClusterStateIndexTest, RandomizedMembershipMatchesFullRescan) {
  struct Naive {
    bool registered = false, idle = true, fenced = false;
    std::int64_t dispatches = 0;
    std::deque<SimTime> parked;  // inference time of each local request
  };
  ClusterStateIndex index;
  std::vector<Naive> naive;
  Rng rng(1234);

  auto naive_idle_order = [&] {
    std::vector<std::pair<std::int64_t, std::int64_t>> keys;
    for (std::size_t i = 0; i < naive.size(); ++i) {
      const Naive& n = naive[i];
      if (n.registered && n.idle && !n.fenced) {
        keys.emplace_back(-n.dispatches, static_cast<std::int64_t>(i));
      }
    }
    std::sort(keys.begin(), keys.end());
    std::vector<GpuId> out;
    for (const auto& [neg, id] : keys) out.push_back(GpuId(id));
    return out;
  };
  auto naive_first_serviceable = [&] {
    GpuId best;
    std::int64_t best_dispatches = -1;
    for (std::size_t i = 0; i < naive.size(); ++i) {
      const Naive& n = naive[i];
      if (!n.registered || !n.idle || n.fenced || n.parked.empty()) continue;
      if (n.dispatches > best_dispatches) {  // strict >: lowest id wins ties
        best_dispatches = n.dispatches;
        best = GpuId(static_cast<std::int64_t>(i));
      }
    }
    return best;
  };

  for (int step = 0; step < 4000; ++step) {
    const auto op = rng.next_below(8);
    const auto pick = [&]() -> std::int64_t {
      return naive.empty()
                 ? -1
                 : static_cast<std::int64_t>(rng.next_below(naive.size()));
    };
    if (op == 0 || naive.empty()) {
      const GpuId id(static_cast<std::int64_t>(naive.size()));
      index.add_gpu(id);
      naive.emplace_back().registered = true;
    } else if (op == 1) {
      const std::int64_t g = pick();
      Naive& n = naive[static_cast<std::size_t>(g)];
      if (n.registered && !n.fenced) {
        index.fence(GpuId(g));
        n.fenced = true;
      }
    } else if (op == 2) {
      const std::int64_t g = pick();
      Naive& n = naive[static_cast<std::size_t>(g)];
      if (n.registered && n.fenced) {
        // Half the time retire a drained GPU, half the time abort the drain.
        if (n.idle && n.parked.empty() && rng.next_below(2) == 0) {
          index.remove_gpu(GpuId(g));
          n.registered = false;
        } else {
          index.unfence(GpuId(g));
          n.fenced = false;
        }
      }
    } else if (op == 3) {
      const std::int64_t g = pick();
      Naive& n = naive[static_cast<std::size_t>(g)];
      if (n.registered && n.idle) {
        index.mark_busy(GpuId(g));
        n.idle = false;
      }
    } else if (op == 4) {
      const std::int64_t g = pick();
      Naive& n = naive[static_cast<std::size_t>(g)];
      if (n.registered && !n.idle) {
        index.mark_idle(GpuId(g));
        n.idle = true;
      }
    } else if (op == 5) {
      const std::int64_t g = pick();
      Naive& n = naive[static_cast<std::size_t>(g)];
      if (n.registered) {
        index.record_dispatch(GpuId(g));
        ++n.dispatches;
      }
    } else if (op == 6) {
      const std::int64_t g = pick();
      Naive& n = naive[static_cast<std::size_t>(g)];
      if (n.registered) {
        const auto work = static_cast<SimTime>(1 + rng.next_below(100));
        index.add_local_work(GpuId(g), work);
        n.parked.push_back(work);
      }
    } else {
      const std::int64_t g = pick();
      Naive& n = naive[static_cast<std::size_t>(g)];
      if (n.registered && !n.parked.empty()) {
        index.add_local_work(GpuId(g), -n.parked.front());
        n.parked.pop_front();
      }
    }
    ASSERT_EQ(index.idle_gpus(), naive_idle_order()) << "step " << step;
    ASSERT_EQ(index.first_idle_with_local_work(), naive_first_serviceable())
        << "step " << step;
    for (std::size_t i = 0; i < naive.size(); ++i) {
      const Naive& n = naive[i];
      ASSERT_EQ(index.idle_bits().test(GpuId(static_cast<std::int64_t>(i))),
                n.registered && n.idle && !n.fenced)
          << "step " << step << " gpu " << i;
      if (!n.registered) continue;
      SimTime work = 0;
      for (const SimTime w : naive[i].parked) work += w;
      ASSERT_EQ(index.load(GpuId(static_cast<std::int64_t>(i))).local_work, work)
          << "step " << step << " gpu " << i;
    }
    index.audit();
  }
}

// ---------------------------------------------------------------------------
// CacheManager membership
// ---------------------------------------------------------------------------

TEST(CacheMembershipTest, FenceHidesHolderFromLocationIndex) {
  cache::CacheManager cache(cache::PolicyKind::kLru);
  cache.add_gpu(GpuId(0), GiB(1));
  cache.add_gpu(GpuId(1), GiB(1));
  ASSERT_TRUE(cache.record_insertion(GpuId(0), ModelId(7), MiB(100)).ok());
  ASSERT_TRUE(cache.record_insertion(GpuId(1), ModelId(7), MiB(100)).ok());
  EXPECT_EQ(cache.duplicate_count(ModelId(7)), 2u);

  cache.fence_gpu(GpuId(0));
  // The scheduler-facing views stop reporting the draining holder...
  EXPECT_EQ(cache.locations(ModelId(7)), std::vector<GpuId>{GpuId(1)});
  EXPECT_EQ(cache.duplicate_count(ModelId(7)), 1u);
  // ...while the per-GPU truth stays live for in-flight bookkeeping.
  EXPECT_TRUE(cache.is_cached(GpuId(0), ModelId(7)));
  EXPECT_EQ(cache.acquire(GpuId(0), ModelId(7)), cache::Residency::kUnloaded);

  cache.unfence_gpu(GpuId(0));
  EXPECT_EQ(cache.locations(ModelId(7)).size(), 2u);
}

TEST(CacheMembershipTest, FencedSoleHolderIsNotCachedAnywhere) {
  cache::CacheManager cache(cache::PolicyKind::kLru);
  cache.add_gpu(GpuId(0), GiB(1));
  ASSERT_TRUE(cache.record_insertion(GpuId(0), ModelId(3), MiB(100)).ok());
  EXPECT_TRUE(cache.cached_anywhere(ModelId(3)));
  cache.fence_gpu(GpuId(0));
  EXPECT_FALSE(cache.cached_anywhere(ModelId(3)));
  EXPECT_TRUE(cache.locations(ModelId(3)).empty());
}

TEST(CacheMembershipTest, RemoveDropsResidentModelsAndRetiresSlot) {
  cache::CacheManager cache(cache::PolicyKind::kLru);
  cache.add_gpu(GpuId(0), GiB(1));
  cache.add_gpu(GpuId(1), GiB(1));
  ASSERT_TRUE(cache.record_insertion(GpuId(0), ModelId(1), MiB(100)).ok());
  ASSERT_TRUE(cache.record_insertion(GpuId(0), ModelId(2), MiB(100)).ok());
  const std::int64_t evictions_before = cache.stats().evictions;

  cache.fence_gpu(GpuId(0));
  cache.remove_gpu(GpuId(0));
  EXPECT_EQ(cache.gpu_count(), 1u);
  EXPECT_FALSE(cache.is_registered(GpuId(0)));
  EXPECT_TRUE(cache.is_registered(GpuId(1)));
  // Decommission drops are not cache-pressure evictions.
  EXPECT_EQ(cache.stats().evictions, evictions_before);
  EXPECT_DEATH(cache.is_cached(GpuId(0), ModelId(1)), "unknown gpu");
}

TEST(CacheMembershipTest, RemoveWithPinnedModelDies) {
  cache::CacheManager cache(cache::PolicyKind::kLru);
  cache.add_gpu(GpuId(0), GiB(1));
  ASSERT_TRUE(cache.record_insertion(GpuId(0), ModelId(1), MiB(100)).ok());
  ASSERT_TRUE(cache.pin(GpuId(0), ModelId(1)).ok());
  cache.fence_gpu(GpuId(0));
  EXPECT_DEATH(cache.remove_gpu(GpuId(0)), "pinned");
  ASSERT_TRUE(cache.unpin(GpuId(0), ModelId(1)).ok());
  cache.remove_gpu(GpuId(0));  // drained now
}

TEST(CacheMembershipTest, EvictionOnFencedGpuSkipsLocationIndex) {
  cache::CacheManager cache(cache::PolicyKind::kLru);
  cache.add_gpu(GpuId(0), GiB(1));
  ASSERT_TRUE(cache.record_insertion(GpuId(0), ModelId(1), MiB(100)).ok());
  cache.fence_gpu(GpuId(0));
  ASSERT_TRUE(cache.record_eviction(GpuId(0), ModelId(1)).ok());
  EXPECT_FALSE(cache.cached_anywhere(ModelId(1)));
  cache.unfence_gpu(GpuId(0));  // nothing resident: no index entries return
  EXPECT_TRUE(cache.locations(ModelId(1)).empty());
}

// ---------------------------------------------------------------------------
// Engine drain / cold-start semantics
// ---------------------------------------------------------------------------

TEST(EngineMembershipTest, ScaleUpDuringFullGlobalQueueDrainsToNewGpu) {
  auto built = testkit::ClusterBuilder().nodes(1).gpus_per_node(1).models(1).build();
  cluster::SimCluster& cluster = *built;

  // Backlog: one runs, four wait in the global queue.
  for (int i = 0; i < 5; ++i) {
    cluster.simulator().schedule_at(0, [&cluster, i] {
      cluster.engine().submit(make_request(i, 0, 0));
    });
  }
  // Provisioned GPU joins mid-backlog; the policy must use it immediately.
  GpuId added;
  cluster.simulator().schedule_at(sec(1), [&cluster, &added] {
    EXPECT_GT(cluster.engine().global_queue().size(), 0u);
    added = cluster.add_gpu(gpu::rtx2080());
  });
  cluster.simulator().run();

  ASSERT_EQ(cluster.engine().completions().size(), 5u);
  int on_added = 0;
  for (const auto& record : cluster.engine().completions()) {
    if (record.gpu == added) ++on_added;
  }
  EXPECT_GT(on_added, 0);
  EXPECT_EQ(cluster.engine().schedulable_gpu_count(), 2u);
}

TEST(EngineMembershipTest, ScaleDownDrainsInFlightAndLocalQueueWork) {
  // inception.v3 has the catalog's widest load/infer gap, so follow-up
  // requests queue locally on the warm GPU (see cluster_test). Fencing
  // that GPU mid-burst must finish the in-flight hit AND the local queue
  // on it, then report drained.
  models::ModelRegistry registry;
  models::ModelProfile inception = *models::find_model("inception.v3");
  inception.id = ModelId(0);
  ASSERT_TRUE(registry.register_model(inception).ok());
  cluster::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 2;
  config.policy = core::PolicyName::kLalb;
  cluster::SimCluster cluster(config, registry);
  auto& engine = cluster.engine();

  cluster.simulator().schedule_at(0, [&] { engine.submit(make_request(0, 0, 0)); });
  cluster.simulator().run();
  const GpuId hot = engine.completions().at(0).gpu;

  cluster.simulator().schedule_at(sec(10), [&] {
    engine.submit(make_request(1, 0, sec(10)));
    engine.submit(make_request(2, 0, sec(10)));
    engine.submit(make_request(3, 0, sec(10)));
  });
  cluster.simulator().schedule_at(sec(10) + usec(1), [&, hot] {
    ASSERT_EQ(engine.local_queues().size(hot), 2u);
    cluster.fence_gpu(hot);
    EXPECT_TRUE(engine.is_fenced(hot));
    EXPECT_FALSE(cluster.gpu_drained(hot));
    // The draining holder no longer attracts requests.
    EXPECT_TRUE(cluster.cache().locations(ModelId(0)).empty());
  });
  cluster.simulator().run();

  ASSERT_EQ(engine.completions().size(), 4u);
  for (const auto& record : engine.completions()) {
    EXPECT_EQ(record.gpu, hot);  // committed work finished on the fenced GPU
  }
  EXPECT_TRUE(cluster.gpu_drained(hot));
  cluster.remove_gpu(hot);
  EXPECT_EQ(engine.schedulable_gpu_count(), 1u);

  // Post-removal traffic lands on the surviving GPU as a plain cold miss.
  cluster.simulator().schedule_at(sec(60),
                                  [&] { engine.submit(make_request(4, 0, sec(60))); });
  cluster.simulator().run();
  const auto& last = engine.completions().back();
  EXPECT_NE(last.gpu, hot);
  EXPECT_FALSE(last.cache_hit);
  EXPECT_FALSE(last.false_miss);  // fenced/removed holders don't count
}

TEST(EngineMembershipTest, FenceIdleGpuWithQueuedLocalWorkStartsDrainImmediately) {
  models::ModelRegistry registry;
  models::ModelProfile inception = *models::find_model("inception.v3");
  inception.id = ModelId(0);
  ASSERT_TRUE(registry.register_model(inception).ok());
  cluster::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 2;
  config.policy = core::PolicyName::kLalb;
  cluster::SimCluster cluster(config, registry);
  auto& engine = cluster.engine();

  cluster.simulator().schedule_at(0, [&] { engine.submit(make_request(0, 0, 0)); });
  cluster.simulator().run();
  const GpuId hot = engine.completions().at(0).gpu;

  // Build a local queue, then fence at the exact completion instant: the
  // engine serves the fenced GPU's local queue without policy help.
  cluster.simulator().schedule_at(sec(10), [&] {
    engine.submit(make_request(1, 0, sec(10)));
    engine.submit(make_request(2, 0, sec(10)));
  });
  cluster.simulator().schedule_at(sec(10) + usec(1), [&, hot] {
    ASSERT_EQ(engine.local_queues().size(hot), 1u);
    cluster.fence_gpu(hot);
  });
  cluster.simulator().run();
  EXPECT_EQ(engine.completions().size(), 3u);
  EXPECT_TRUE(cluster.gpu_drained(hot));
}

TEST(EngineMembershipTest, UnfenceAbortsDrainAndRestoresLocality) {
  auto built = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).models(1).build();
  cluster::SimCluster& cluster = *built;
  auto& engine = cluster.engine();

  cluster.simulator().schedule_at(0, [&] { engine.submit(make_request(0, 0, 0)); });
  cluster.simulator().run();
  const GpuId hot = engine.completions().at(0).gpu;

  cluster.fence_gpu(hot);
  EXPECT_TRUE(cluster.cache().locations(ModelId(0)).empty());
  cluster.unfence_gpu(hot);
  EXPECT_EQ(cluster.cache().locations(ModelId(0)), std::vector<GpuId>{hot});

  cluster.simulator().schedule_at(sec(10),
                                  [&] { engine.submit(make_request(1, 0, sec(10))); });
  cluster.simulator().run();
  EXPECT_TRUE(engine.completions().back().cache_hit);
  EXPECT_EQ(engine.completions().back().gpu, hot);
}

// ---------------------------------------------------------------------------
// Scaling policies
// ---------------------------------------------------------------------------

FleetView view_at(SimTime now, std::size_t gpus, std::size_t idle,
                  std::size_t queue_len) {
  FleetView view;
  view.now = now;
  view.schedulable_gpus = gpus;
  view.idle_gpus = idle;
  view.queue_len = queue_len;
  view.in_flight = gpus - idle;
  view.min_gpus = 2;
  view.max_gpus = 16;
  return view;
}

TEST(ReactivePolicyTest, ScalesUpOnQueuePressureWithCooldown) {
  ReactivePolicy policy;
  // 4 GPUs, 12 queued: wants queue/gpu back to 1.0 -> add 8.
  ScalingDecision d = policy.evaluate(view_at(sec(100), 4, 0, 12));
  EXPECT_EQ(d.add, 8u);
  EXPECT_EQ(d.remove, 0u);
  // Cooldown gates an immediate repeat...
  d = policy.evaluate(view_at(sec(101), 4, 0, 12));
  EXPECT_EQ(d.add, 0u);
  // ...and the ceiling clamps once it expires.
  d = policy.evaluate(view_at(sec(130), 12, 0, 40));
  EXPECT_EQ(d.add, 4u);
}

TEST(ReactivePolicyTest, ScalesDownOnlyAfterSustainedIdle) {
  ReactivePolicyConfig config;
  config.down_stability = sec(30);
  config.down_cooldown = sec(10);
  ReactivePolicy policy(config);
  // Idle but not yet sustained.
  EXPECT_EQ(policy.evaluate(view_at(sec(0), 8, 8, 0)).remove, 0u);
  EXPECT_EQ(policy.evaluate(view_at(sec(20), 8, 8, 0)).remove, 0u);
  // A pressure blip resets the stretch.
  EXPECT_EQ(policy.evaluate(view_at(sec(25), 8, 0, 20)).remove, 0u);
  EXPECT_EQ(policy.evaluate(view_at(sec(40), 8, 8, 0)).remove, 0u);
  EXPECT_EQ(policy.evaluate(view_at(sec(60), 8, 8, 0)).remove, 0u);
  // Sustained now (40 -> 70) and cooled down: reclaim, bounded.
  const ScalingDecision d = policy.evaluate(view_at(sec(70), 8, 8, 0));
  EXPECT_EQ(d.remove, 2u);  // max_step_down
  EXPECT_EQ(d.add, 0u);
}

TEST(ReactivePolicyTest, ConsecutiveShrinksReestablishStability) {
  ReactivePolicyConfig config;
  config.down_stability = sec(30);
  config.down_cooldown = sec(10);  // shorter than stability: the old bug
                                   // shrank again every cooldown
  ReactivePolicy policy(config);
  // Idle stretch established at t=0; first shrink once sustained.
  EXPECT_EQ(policy.evaluate(view_at(sec(0), 8, 8, 0)).remove, 0u);
  EXPECT_EQ(policy.evaluate(view_at(sec(40), 8, 8, 0)).remove, 2u);
  // Still idle, cooldown already expired — but the shrink must have reset
  // the stability window, so the smaller fleet gets its full
  // down_stability of observation before shrinking again.
  EXPECT_EQ(policy.evaluate(view_at(sec(50), 6, 6, 0)).remove, 0u);
  EXPECT_EQ(policy.evaluate(view_at(sec(60), 6, 6, 0)).remove, 0u);
  // 30s of sustained idleness after the shrink: reclaim again.
  EXPECT_EQ(policy.evaluate(view_at(sec(70), 6, 6, 0)).remove, 2u);
}

TEST(ReactivePolicyTest, RespectsFloor) {
  ReactivePolicyConfig config;
  config.down_stability = 0;
  config.down_cooldown = 0;
  ReactivePolicy policy(config);
  FleetView view = view_at(sec(100), 2, 2, 0);  // at min_gpus already
  EXPECT_EQ(policy.evaluate(view).remove, 0u);
}

TEST(KeepAlivePolicyTest, CapacityPersistsForTheWindowThenDecays) {
  KeepAlivePolicyConfig config;
  config.keep_alive = sec(60);
  config.headroom = 1.0;
  KeepAlivePolicy policy(config);

  // Demand spike to 10 concurrent requests.
  FleetView spike = view_at(sec(0), 4, 0, 6);  // 4 running + 6 queued
  ScalingDecision d = policy.evaluate(spike);
  EXPECT_EQ(d.add, 6u);  // target 10, committed 4

  // Demand gone, but the spike is inside the keep-alive window: no reclaim
  // below the remembered peak.
  FleetView quiet = view_at(sec(30), 10, 10, 0);
  quiet.in_flight = 0;
  d = policy.evaluate(quiet);
  EXPECT_EQ(d.add, 0u);
  EXPECT_EQ(d.remove, 0u);

  // Window expired: reclaim down to the floor.
  FleetView later = view_at(sec(120), 10, 10, 0);
  later.in_flight = 0;
  d = policy.evaluate(later);
  EXPECT_EQ(d.remove, 8u);  // target max(peak 0, min 2)
}

TEST(KeepAlivePolicyTest, SampleExpiresAtExactlyKeepAlive) {
  KeepAlivePolicyConfig config;
  config.keep_alive = sec(60);
  config.headroom = 1.0;
  KeepAlivePolicy policy(config);

  FleetView spike = view_at(sec(0), 4, 0, 6);  // demand 10
  EXPECT_EQ(policy.evaluate(spike).add, 6u);

  // A sample at t covers [t, t + keep_alive): at exactly t = keep_alive
  // the spike has aged out and the fleet collapses to the floor. (The old
  // strict-< eviction kept it one extra tick, stretching every window by
  // an evaluation interval.)
  FleetView later = view_at(sec(60), 10, 10, 0);
  later.in_flight = 0;
  const ScalingDecision d = policy.evaluate(later);
  EXPECT_EQ(d.remove, 8u);  // target max(peak 0, min 2)
}

TEST(KeepAlivePolicyDeathTest, BindRejectsWindowShorterThanInterval) {
  // keep_alive < evaluation_interval means the trailing window can never
  // hold more than the current sample — the policy silently degenerates
  // to instantaneous tracking, so the config is rejected outright.
  KeepAlivePolicyConfig config;
  config.keep_alive = sec(2);
  KeepAlivePolicy policy(config);
  EXPECT_DEATH(policy.bind(sec(5)), "evaluation interval");
  // == interval is just as degenerate under the half-open expiry (the
  // previous sample is dropped the instant the next tick arrives).
  KeepAlivePolicy boundary(config);
  EXPECT_DEATH(boundary.bind(sec(2)), "evaluation interval");
  KeepAlivePolicy ok(config);
  ok.bind(sec(1));  // window spans two ticks: fine
}

// ---------------------------------------------------------------------------
// PredictivePolicy: histogram percentile + trend forecast
// ---------------------------------------------------------------------------

PredictivePolicyConfig predictive_config() {
  PredictivePolicyConfig config;
  config.history = sec(100);
  config.target_percentile = 0.90;
  config.headroom = 1.0;
  config.lead_time = sec(20);
  config.trend_samples = 3;
  config.target_hold = 0;  // most tests probe single-tick decisions
  return config;
}

TEST(PredictivePolicyTest, ForecastsRampOneLeadTimeAhead) {
  PredictivePolicy policy(predictive_config());
  // Demand climbing 0.2/s at a floor-sized fleet. The forecast projects
  // the slope lead_time ahead: capacity for the demand of t+20s is
  // ordered now, so it finishes cold-starting when that demand arrives.
  EXPECT_EQ(policy.evaluate(view_at(sec(0), 2, 2, 2)).add, 0u);  // demand 2
  const ScalingDecision d = policy.evaluate(view_at(sec(10), 2, 2, 4));
  // projected = 4 + 0.2/s * 20s = 8, above the windowed p90 of 4.
  EXPECT_EQ(d.add, 6u);
  EXPECT_EQ(d.remove, 0u);
}

TEST(PredictivePolicyTest, HistogramHoldsCapacityThroughDips) {
  PredictivePolicy policy(predictive_config());
  // A sustained plateau of demand 10 dominates the histogram...
  for (int i = 0; i < 9; ++i) {
    policy.evaluate(view_at(sec(10 * i), 10, 0, 0));  // demand 10
  }
  // ...so one quiet tick does not release it: p90 of {10 x 9, 0} is 10.
  FleetView dip = view_at(sec(90), 10, 10, 0);
  dip.in_flight = 0;
  const ScalingDecision d = policy.evaluate(dip);
  EXPECT_EQ(d.add, 0u);
  EXPECT_EQ(d.remove, 0u);
}

TEST(PredictivePolicyTest, HistoryExpiryReleasesCapacity) {
  PredictivePolicyConfig config = predictive_config();
  config.history = sec(30);
  PredictivePolicy policy(config);
  policy.evaluate(view_at(sec(0), 10, 0, 0));  // demand 10
  // At exactly t = history the plateau sample is out of the window.
  FleetView quiet = view_at(sec(30), 10, 10, 0);
  quiet.in_flight = 0;
  const ScalingDecision d = policy.evaluate(quiet);
  EXPECT_EQ(d.remove, 8u);  // down to the min_gpus floor
}

TEST(PredictivePolicyTest, HeldTargetDelaysReclaim) {
  PredictivePolicyConfig config = predictive_config();
  config.history = sec(30);       // demand samples age out quickly...
  config.target_hold = sec(60);   // ...but predictions floor capacity longer
  PredictivePolicy policy(config);
  policy.evaluate(view_at(sec(0), 10, 0, 0));  // demand 10: target 10 held
  // t=40: the demand sample is out of the history window, so the raw
  // target collapses — but the held prediction from t=0 still floors the
  // fleet, so nothing is released between bursts.
  FleetView quiet = view_at(sec(40), 10, 10, 0);
  quiet.in_flight = 0;
  EXPECT_EQ(policy.evaluate(quiet).remove, 0u);
  // t=70: the held target expired too; capacity finally comes back.
  FleetView later = view_at(sec(70), 10, 10, 0);
  later.in_flight = 0;
  EXPECT_EQ(policy.evaluate(later).remove, 8u);
}

TEST(PredictivePolicyDeathTest, BindRejectsHistoryShorterThanInterval) {
  PredictivePolicyConfig config = predictive_config();
  config.history = sec(2);
  PredictivePolicy policy(config);
  EXPECT_DEATH(policy.bind(sec(5)), "evaluation interval");
}

// ---------------------------------------------------------------------------
// Warm-pool-aware drain-victim selection
// ---------------------------------------------------------------------------

TEST(DrainVictimSelectionTest, PrefersVictimsWhoseModelsAreDuplicated) {
  cache::CacheManager cache(cache::PolicyKind::kLru);
  for (int g = 0; g < 3; ++g) cache.add_gpu(GpuId(g), GiB(1));
  // gpu0 holds the fleet's only copy of model 1; gpus 1 and 2 both hold
  // model 2.
  ASSERT_TRUE(cache.record_insertion(GpuId(0), ModelId(1), MiB(100)).ok());
  ASSERT_TRUE(cache.record_insertion(GpuId(1), ModelId(2), MiB(100)).ok());
  ASSERT_TRUE(cache.record_insertion(GpuId(2), ModelId(2), MiB(100)).ok());

  // Hot-first idle order puts gpu0 coldest (back of the list): pure
  // coldest-first reclaim would evict the sole warm copy of model 1.
  const std::vector<GpuId> idle = {GpuId(1), GpuId(2), GpuId(0)};
  EXPECT_EQ(select_drain_victims(idle, cache, 1), (std::vector<GpuId>{GpuId(2)}));
  // Full drain: gpu2 (duplicated, colder than gpu1) goes first. That pick
  // makes gpu1 a sole holder of model 2, so rounds two and three see two
  // equally expensive victims and fall back to coldness: gpu0, then gpu1.
  EXPECT_EQ(select_drain_victims(idle, cache, 3),
            (std::vector<GpuId>{GpuId(2), GpuId(0), GpuId(1)}));
  // Never returns more victims than idle candidates.
  EXPECT_EQ(select_drain_victims(idle, cache, 5).size(), 3u);
}

TEST(DrainVictimSelectionTest, BatchNeverDrainsEveryCopyWhileCheaperVictimExists) {
  cache::CacheManager cache(cache::PolicyKind::kLru);
  for (int g = 0; g < 3; ++g) cache.add_gpu(GpuId(g), GiB(1));
  // gpus 0 and 1 are each other's only duplicate for model 7; gpu2 holds
  // a (differently) duplicated... nothing at all: an empty, free victim.
  ASSERT_TRUE(cache.record_insertion(GpuId(0), ModelId(7), MiB(100)).ok());
  ASSERT_TRUE(cache.record_insertion(GpuId(1), ModelId(7), MiB(100)).ok());

  // Scored against static pre-fence state, gpus 0 and 1 both look free
  // (duplicate_count == 2) and a 2-victim batch would evict every warm
  // copy of model 7. The greedy per-pick recount must route the second
  // pick to the empty gpu2 instead.
  const std::vector<GpuId> idle = {GpuId(2), GpuId(1), GpuId(0)};
  const std::vector<GpuId> victims = select_drain_victims(idle, cache, 2);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], GpuId(0));  // coldest of the duplicated holders
  EXPECT_EQ(victims[1], GpuId(2));  // NOT gpu1: it now holds the sole copy
}

TEST(DrainVictimSelectionTest, EmptyGpuIsAFreeVictim) {
  cache::CacheManager cache(cache::PolicyKind::kLru);
  cache.add_gpu(GpuId(0), GiB(1));
  cache.add_gpu(GpuId(1), GiB(1));
  ASSERT_TRUE(cache.record_insertion(GpuId(0), ModelId(5), MiB(100)).ok());
  // gpu1 holds nothing: reclaiming it forfeits no locality even though
  // gpu0 is colder in the idle ordering.
  const std::vector<GpuId> idle = {GpuId(1), GpuId(0)};
  EXPECT_EQ(select_drain_victims(idle, cache, 1), (std::vector<GpuId>{GpuId(1)}));
}

// ---------------------------------------------------------------------------
// Autoscaler end-to-end + accounting
// ---------------------------------------------------------------------------

TEST(StepTimelineTest, IntegralAndSamplingMatchSteps) {
  metrics::StepTimeline timeline;
  EXPECT_DOUBLE_EQ(timeline.value_at(sec(5)), 0.0);
  timeline.set(0, 4);
  timeline.set(sec(10), 8);
  timeline.set(sec(20), 2);
  EXPECT_DOUBLE_EQ(timeline.value_at(sec(5)), 4.0);
  EXPECT_DOUBLE_EQ(timeline.value_at(sec(10)), 8.0);
  EXPECT_DOUBLE_EQ(timeline.value_at(sec(30)), 2.0);
  EXPECT_DOUBLE_EQ(timeline.max_value(), 8.0);
  EXPECT_DOUBLE_EQ(timeline.min_value(), 2.0);
  // 10s*4 + 10s*8 + 10s*2 = 140 value-seconds.
  EXPECT_DOUBLE_EQ(timeline.value_seconds(sec(30)), 140.0);
  EXPECT_NEAR(timeline.time_weighted_mean(sec(30)), 140.0 / 30.0, 1e-12);
  // Overwrite at the same instant replaces the step.
  timeline.set(sec(20), 6);
  EXPECT_DOUBLE_EQ(timeline.value_at(sec(25)), 6.0);
}

// A policy that always demands maximal reclaim: the Autoscaler's central
// clamps, not the policy, must hold the min_gpus floor (a KeepAlive-style
// policy computes remove from committed = schedulable + provisioning, so
// without the central clamp a cold-start overlap could breach the floor).
class DrainEverythingPolicy final : public ScalingPolicy {
 public:
  std::string name() const override { return "drain-everything"; }
  ScalingDecision evaluate(const FleetView& view) override {
    ScalingDecision d;
    d.remove = view.schedulable_gpus + view.provisioning_gpus;
    return d;
  }
};

TEST(AutoscalerTest, CentralClampHoldsTheMinGpusFloor) {
  const trace::Workload workload = testkit::make_workload(5, 7, 2);
  AutoscalerConfig config;
  config.min_gpus = 2;
  config.max_gpus = 8;
  config.evaluation_interval = sec(2);

  cluster::ClusterConfig cluster_config;
  cluster_config.nodes = 4;  // start above the floor: drains must stop at it
  cluster_config.gpus_per_node = 1;
  cluster_config.shared_pcie_per_node = false;
  cluster::SimCluster cluster(cluster_config, workload.registry);
  Autoscaler scaler(&cluster, std::make_unique<DrainEverythingPolicy>(), config);

  for (const core::Request& req : workload.requests) {
    cluster.simulator().schedule_at(
        req.arrival, [&cluster, req] { cluster.engine().submit(req); });
  }
  scaler.start(workload.requests.back().arrival);
  cluster.simulator().run();
  scaler.finalize();

  EXPECT_EQ(cluster.engine().pending(), 0u);
  EXPECT_EQ(cluster.engine().completions().size(), workload.requests.size());
  EXPECT_EQ(cluster.engine().schedulable_gpu_count(), 2u);  // floor, not zero
  EXPECT_EQ(scaler.counters().gpus_retired, 2);
  EXPECT_GE(scaler.schedulable_timeline().min_value(), 2.0);
}

TEST(AutoscalerTest, ElasticFleetServesDiurnalTraceCheaperThanPeakFleet) {
  trace::WorkloadConfig wconfig;
  wconfig.working_set_size = 10;
  trace::DiurnalConfig diurnal;
  diurnal.window_minutes = 12;
  diurnal.period_minutes = 12;
  diurnal.trough_rpm = 20;
  diurnal.peak_rpm = 150;
  auto workload = trace::build_diurnal_workload(wconfig, diurnal);
  ASSERT_TRUE(workload.ok());

  AutoscalerConfig config;
  config.min_gpus = 2;
  config.max_gpus = 10;
  config.cold_start = sec(15);

  cluster::ClusterConfig cluster_config;
  cluster_config.nodes = 2;
  cluster_config.gpus_per_node = 1;
  cluster_config.shared_pcie_per_node = false;
  cluster::SimCluster cluster(cluster_config, workload->registry);
  Autoscaler scaler(&cluster, std::make_unique<ReactivePolicy>(), config);

  for (const core::Request& req : workload->requests) {
    cluster.simulator().schedule_at(
        req.arrival, [&cluster, req] { cluster.engine().submit(req); });
  }
  scaler.start(workload->requests.back().arrival);
  cluster.simulator().run();
  scaler.finalize();

  EXPECT_EQ(cluster.engine().pending(), 0u);
  EXPECT_EQ(cluster.engine().completions().size(), workload->requests.size());
  EXPECT_GT(scaler.counters().gpus_added, 0);
  EXPECT_GT(scaler.counters().gpus_retired, 0);
  EXPECT_GT(scaler.powered_timeline().max_value(), 2.0);

  const SimTime end = cluster.simulator().now();
  const double peak_fleet_gpu_seconds = 10.0 * sim_to_seconds(end);
  EXPECT_LT(scaler.gpu_seconds(end), peak_fleet_gpu_seconds);
}

// ---------------------------------------------------------------------------
// Deployment mode: the same driver + autoscaler + policy, on the
// wall-clock executor with compressed time, agrees with the simulator.
// ---------------------------------------------------------------------------

TEST(DeploymentModeTest, RealtimeReplayMatchesSimulatorWithinTolerance) {
  trace::WorkloadConfig wconfig;
  wconfig.working_set_size = 5;
  trace::DiurnalConfig diurnal;
  diurnal.window_minutes = 3;
  diurnal.period_minutes = 3;
  diurnal.trough_rpm = 20;
  diurnal.peak_rpm = 80;
  auto workload = trace::build_diurnal_workload(wconfig, diurnal);
  ASSERT_TRUE(workload.ok());

  AutoscalerConfig config;
  config.min_gpus = 2;
  config.max_gpus = 8;
  config.cold_start = sec(10);

  cluster::ClusterConfig cluster_config;
  cluster_config.nodes = 2;
  cluster_config.gpus_per_node = 1;
  cluster_config.shared_pcie_per_node = false;

  PredictivePolicyConfig policy;
  policy.lead_time = config.cold_start;

  cluster::SimCluster sim(cluster_config, workload->registry);
  Autoscaler sim_scaler(&sim, std::make_unique<PredictivePolicy>(policy), config);
  const ReplayResult sim_run =
      replay_with_autoscaler(sim, workload->requests, sim_scaler);

  // 3 simulated minutes compressed into ~90ms of wall time. Under heavy
  // slowdown (sanitizers, loaded CI) wall-clock jitter perturbs the
  // interleavings, so the cross-checks below are deliberately loose: they
  // catch wiring bugs, not jitter.
  cluster::RealTimeCluster realtime(cluster_config, workload->registry,
                                    /*time_scale=*/2000.0);
  Autoscaler rt_scaler(&realtime, std::make_unique<PredictivePolicy>(policy), config);
  const ReplayResult rt_run =
      replay_with_autoscaler(realtime, workload->requests, rt_scaler);

  // Every request completes in both modes — nothing strands on a drained
  // GPU or races past the executor shutdown.
  EXPECT_EQ(sim_run.completed, workload->requests.size());
  EXPECT_EQ(rt_run.completed, workload->requests.size());
  // Both fleets actually breathed, inside the configured band.
  EXPECT_GT(sim_scaler.counters().gpus_added, 0);
  EXPECT_GT(rt_scaler.counters().gpus_added, 0);
  EXPECT_LE(rt_scaler.powered_timeline().max_value(),
            static_cast<double>(config.max_gpus));
  EXPECT_GE(rt_scaler.schedulable_timeline().min_value(), 0.0);
  // Fleet trajectories agree within a generous factor.
  const SimTime sim_end = sim.executor().now();
  const SimTime rt_end = realtime.executor().now();
  const double sim_mean = sim_scaler.powered_timeline().time_weighted_mean(sim_end);
  const double rt_mean = rt_scaler.powered_timeline().time_weighted_mean(rt_end);
  EXPECT_GT(rt_mean, 0.4 * sim_mean);
  EXPECT_LT(rt_mean, 2.5 * sim_mean);
}

// ---------------------------------------------------------------------------
// Chaos seed for the drain/reap paths: a GPU killed mid-request and a
// delayed cold start, injected into an autoscaled run.
// ---------------------------------------------------------------------------

TEST(AutoscalerChaosTest, DelayedColdStartKeepsAccountingConsistent) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(1).models(3).build();

  AutoscalerConfig config;
  config.evaluation_interval = sec(5);
  config.cold_start = sec(10);
  config.min_gpus = 1;
  config.max_gpus = 4;
  // Fault injection: the first cold start stalls an extra 30s (container
  // pull hang); later ones are healthy.
  std::vector<std::int64_t> delayed_indexes;
  config.cold_start_delay_hook = [&](std::int64_t index) {
    delayed_indexes.push_back(index);
    return index == 0 ? sec(30) : 0;
  };
  Autoscaler scaler(cluster.get(), std::make_unique<ReactivePolicy>(), config);

  // A burst on the single-GPU fleet forces a scale-up decision at the
  // first tick.
  const auto requests = testkit::make_request_sequence(24, 3, 0, msec(50));
  for (const core::Request& req : requests) {
    cluster->simulator().schedule_at(req.arrival,
                                     [&, req] { cluster->engine().submit(req); });
  }
  scaler.start(requests.back().arrival);
  cluster->simulator().run();
  scaler.finalize();

  EXPECT_EQ(cluster->engine().pending(), 0u);
  EXPECT_EQ(cluster->engine().completions().size(), requests.size());
  EXPECT_GE(scaler.counters().gpus_added, 1);
  EXPECT_EQ(scaler.provisioning_count(), 0u);
  ASSERT_FALSE(delayed_indexes.empty());
  EXPECT_EQ(delayed_indexes[0], 0);

  // The stalled provisioning really held its join back: the batch's
  // healthy cold starts land at decision + cold_start, while the delayed
  // one (begun first, joining last) lands no earlier than decision +
  // cold_start + injected delay.
  const auto& steps = scaler.schedulable_timeline().steps();
  SimTime last_join = -1;
  double previous = 0;
  for (const auto& [when, value] : steps) {
    if (value > previous) last_join = when;
    previous = value;
  }
  ASSERT_GE(last_join, 0);
  EXPECT_GE(last_join, config.cold_start + sec(30));
}

TEST(AutoscalerChaosTest, GpuKilledMidRequestLeavesNoStrandedState) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).models(3).build();

  AutoscalerConfig config;
  config.evaluation_interval = sec(5);
  config.cold_start = sec(10);
  config.min_gpus = 2;
  config.max_gpus = 4;
  Autoscaler scaler(cluster.get(), std::make_unique<ReactivePolicy>(), config);

  const auto requests = testkit::make_request_sequence(30, 3, 0, msec(400));
  for (const core::Request& req : requests) {
    cluster->simulator().schedule_at(req.arrival,
                                     [&, req] { cluster->engine().submit(req); });
  }
  // Mid-run, kill whichever GPU is busy: its in-flight request fails,
  // its local queue rejoins the global queue, and the membership indexes
  // (engine, cache, autoscaler view) must all stay consistent.
  GpuId victim;
  cluster->simulator().schedule_at(sec(4), [&] {
    const auto busy = cluster->engine().busy_gpus();
    ASSERT_FALSE(busy.empty());
    victim = busy[0];
    cluster->kill_gpu(victim);
  });
  scaler.start(requests.back().arrival);
  cluster->simulator().run();
  scaler.finalize();

  ASSERT_TRUE(victim.valid());
  EXPECT_EQ(cluster->engine().pending(), 0u);
  ASSERT_EQ(cluster->engine().failures().size(), 1u);
  EXPECT_TRUE(cluster->engine().failures()[0].failed);
  EXPECT_EQ(cluster->engine().failures()[0].gpu, victim);
  EXPECT_EQ(cluster->engine().completions().size(), requests.size() - 1);
  EXPECT_FALSE(cluster->cache().is_registered(victim));
  // No stranded pins on the survivors; the dead GPU never rejoins.
  for (const GpuId gpu : cluster->engine().idle_gpus()) {
    EXPECT_NE(gpu, victim);
    EXPECT_FALSE(cluster->cache().state(gpu).any_pinned());
  }
}

// ---------------------------------------------------------------------------
// Determinism guard: with the autoscaler disabled (or pinned min == max),
// the paper grid's completion stream is bit-identical to a plain run.
// ---------------------------------------------------------------------------

std::uint64_t completion_digest(const cluster::SchedulerEngine& engine) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  };
  for (const auto& r : engine.completions()) {
    mix(static_cast<std::uint64_t>(r.id.value()));
    mix(static_cast<std::uint64_t>(r.gpu.value()));
    mix(static_cast<std::uint64_t>(r.arrival));
    mix(static_cast<std::uint64_t>(r.dispatched));
    mix(static_cast<std::uint64_t>(r.completed));
    mix((r.cache_hit ? 1u : 0u) | (r.false_miss ? 2u : 0u) |
        (r.via_local_queue ? 4u : 0u));
  }
  return hash;
}

enum class ScalerMode { kNone, kDisabled, kPinned };

std::uint64_t grid_cell_digest(core::PolicyName policy,
                               const trace::Workload& workload, ScalerMode mode) {
  cluster::ClusterConfig config;  // the paper's 3x4 testbed
  config.policy = policy;
  cluster::SimCluster cluster(config, workload.registry);

  std::unique_ptr<Autoscaler> scaler;
  if (mode != ScalerMode::kNone) {
    AutoscalerConfig scaler_config;
    scaler_config.enabled = mode != ScalerMode::kDisabled;
    // Pinned: evaluation ticks run, but min == max == fleet size means no
    // decision can ever change membership.
    scaler_config.min_gpus = 12;
    scaler_config.max_gpus = 12;
    scaler = std::make_unique<Autoscaler>(
        &cluster, std::make_unique<ReactivePolicy>(), scaler_config);
  }
  for (const core::Request& req : workload.requests) {
    cluster.simulator().schedule_at(
        req.arrival, [&cluster, req] { cluster.engine().submit(req); });
  }
  if (scaler) scaler->start(workload.requests.back().arrival);
  cluster.simulator().run();
  if (scaler) scaler->finalize();
  GFAAS_CHECK(cluster.engine().pending() == 0);
  return completion_digest(cluster.engine());
}

TEST(AutoscalerDeterminismTest, PaperGridBitIdenticalWithAutoscalerDisabled) {
  // Full paper window (6 min x 325 rpm), working set 15, all three
  // schedulers: a disabled autoscaler must leave no trace in the
  // completion stream, and even a ticking one pinned to min == max must
  // only read state, never perturb it.
  const trace::Workload workload = testkit::make_workload(15, 7, 6);
  for (core::PolicyName policy :
       {core::PolicyName::kLb, core::PolicyName::kLalb, core::PolicyName::kLalbO3}) {
    const std::uint64_t plain =
        grid_cell_digest(policy, workload, ScalerMode::kNone);
    EXPECT_EQ(plain, grid_cell_digest(policy, workload, ScalerMode::kDisabled))
        << core::policy_display_name(policy);
    EXPECT_EQ(plain, grid_cell_digest(policy, workload, ScalerMode::kPinned))
        << core::policy_display_name(policy);
  }
}

}  // namespace
}  // namespace gfaas::autoscale
