// Chaos-harness tests: the fault schedule as a pure function of
// (seed, config), domain-kill and gray-degrade semantics through the
// injector, end-to-end determinism of a full chaos run (two identical
// seeds must produce bit-identical completion streams through the
// gateway + autoscaler + injector stack), a sim-vs-realtime cross-check
// of the same schedule, and the kill/cancel-during-model-load
// regressions (aborting a mid-load request whose model is pinned by
// parked same-model waiters must keep the residency for them instead of
// tripping the eviction CHECK).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "autoscale/autoscaler.h"
#include "chaos/fault_injector.h"
#include "cluster/experiment.h"
#include "cluster/realtime_cluster.h"
#include "gateway/gateway.h"
#include "testing/builders.h"
#include "trace/clients.h"

namespace gfaas::chaos {
namespace {

using testkit::make_request;

// ---------------------------------------------------------------------------
// Fault schedule: pure function of (seed, config)
// ---------------------------------------------------------------------------

TEST(FaultScheduleTest, PureFunctionOfSeedAndConfig) {
  FaultScheduleConfig config;
  config.seed = 9;
  config.horizon = minutes(90);
  config.domain_kills_per_hour = 2.0;
  config.cold_start_stalls_per_hour = 2.0;
  config.degrades_per_hour = 4.0;

  const std::vector<FaultEvent> a = make_fault_schedule(config);
  const std::vector<FaultEvent> b = make_fault_schedule(config);
  ASSERT_EQ(a.size(), 12u);  // llround(1.5h x {2, 2, 4}) = 3 + 3 + 6
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].domain_ordinal, b[i].domain_ordinal) << i;
    EXPECT_EQ(a[i].cold_start_index, b[i].cold_start_index) << i;
    EXPECT_EQ(a[i].stall, b[i].stall) << i;
    EXPECT_EQ(a[i].degrade_factor, b[i].degrade_factor) << i;
    EXPECT_EQ(a[i].degrade_duration, b[i].degrade_duration) << i;
  }

  std::size_t kills = 0, stalls = 0, degrades = 0;
  for (const FaultEvent& event : a) {
    switch (event.kind) {
      case FaultKind::kKillDomain:
        ++kills;
        EXPECT_GT(event.at, 0);
        EXPECT_LT(event.at, config.horizon);
        break;
      case FaultKind::kStallColdStart:
        ++stalls;
        EXPECT_GE(event.cold_start_index, 0);
        EXPECT_GT(event.stall, 0);
        break;
      case FaultKind::kDegradeDomain:
        ++degrades;
        EXPECT_EQ(event.degrade_factor, config.degrade_factor);
        EXPECT_GT(event.degrade_duration, 0);
        EXPECT_LE(event.degrade_duration, config.max_degrade);
        break;
    }
  }
  EXPECT_EQ(kills, 3u);
  EXPECT_EQ(stalls, 3u);
  EXPECT_EQ(degrades, 6u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(), [](const FaultEvent& x,
                                                    const FaultEvent& y) {
    return x.at < y.at;
  }));

  // A different seed moves the events (the schedule is seeded, not fixed).
  config.seed = 10;
  const std::vector<FaultEvent> c = make_fault_schedule(config);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    any_diff = any_diff || a[i].at != c[i].at ||
               a[i].domain_ordinal != c[i].domain_ordinal;
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------------
// Injector semantics: kills and gray degrades
// ---------------------------------------------------------------------------

TEST(ChaosInjectorTest, DomainKillRemovesEveryMemberAndGuardsExtinction) {
  auto cluster = testkit::ClusterBuilder().nodes(2).gpus_per_node(2).build();
  ASSERT_EQ(cluster->domain_count(), 2u);

  // Three kill events, all ordinal 0: the first takes out domain 0, the
  // other two would leave the fleet below min_alive_domains and must be
  // skipped, not rerouted onto the survivor.
  std::vector<FaultEvent> schedule;
  for (int i = 0; i < 3; ++i) {
    FaultEvent event;
    event.kind = FaultKind::kKillDomain;
    event.at = sec(1 + i);
    event.domain_ordinal = 0;
    schedule.push_back(event);
  }
  ChaosInjector injector(cluster.get(), schedule, /*min_alive_domains=*/1);
  injector.arm();
  cluster->run_to_completion();

  EXPECT_EQ(injector.counters().domain_kills, 1);
  EXPECT_EQ(injector.counters().kills_skipped, 2);
  EXPECT_EQ(injector.counters().gpus_killed, 2);
  EXPECT_EQ(cluster->engine().schedulable_gpu_count(), 2u);
  for (const GpuId gpu : cluster->domain_gpus(0)) {
    EXPECT_FALSE(cluster->engine().is_registered(gpu));
  }
  for (const GpuId gpu : cluster->domain_gpus(1)) {
    EXPECT_TRUE(cluster->engine().is_registered(gpu));
  }
}

TEST(ChaosInjectorTest, DegradeSlowsExecutionThenHeals) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  ASSERT_EQ(cluster->domain_count(), 1u);

  FaultEvent event;
  event.kind = FaultKind::kDegradeDomain;
  event.at = sec(10);
  event.domain_ordinal = 0;
  event.degrade_factor = 4.0;
  event.degrade_duration = sec(20);  // heals at t = 30s
  ChaosInjector injector(cluster.get(), {event});

  auto& engine = cluster->engine();
  auto& sim = cluster->simulator();
  // Request 0 cold-loads the model while healthy; 1 is a warm hit inside
  // the degrade window; 2 is a warm hit after the heal.
  sim.schedule_at(0, [&] { engine.submit(make_request(0, 0, 0)); });
  sim.schedule_at(sec(12), [&] { engine.submit(make_request(1, 0, sec(12))); });
  sim.schedule_at(sec(40), [&] { engine.submit(make_request(2, 0, sec(40))); });
  injector.arm();
  cluster->run_to_completion();

  EXPECT_EQ(injector.counters().degrades, 1);
  EXPECT_EQ(injector.counters().degrades_skipped, 0);
  ASSERT_EQ(engine.completions().size(), 3u);
  auto latency = [&](std::int64_t id) {
    for (const auto& record : engine.completions()) {
      if (record.id.value() == id) return record.completed - record.arrival;
    }
    ADD_FAILURE() << "no completion for " << id;
    return SimTime{0};
  };
  // The degraded warm hit runs exactly factor x the healed warm hit, and
  // the gray part is that the scheduler never saw it coming: both were
  // dispatched immediately off the same healthy estimates.
  EXPECT_EQ(latency(1), 4 * latency(2));
  EXPECT_LT(latency(2), latency(0));  // healed hit beats the cold load
}

// ---------------------------------------------------------------------------
// End-to-end determinism: identical seeds, bit-identical completions
// ---------------------------------------------------------------------------

std::uint64_t mix_records(const std::vector<core::CompletionRecord>& records,
                          std::uint64_t hash) {
  auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  };
  for (const auto& r : records) {
    mix(static_cast<std::uint64_t>(r.id.value()));
    mix(static_cast<std::uint64_t>(r.gpu.value()));
    mix(static_cast<std::uint64_t>(r.arrival));
    mix(static_cast<std::uint64_t>(r.dispatched));
    mix(static_cast<std::uint64_t>(r.completed));
    mix((r.cache_hit ? 1u : 0u) | (r.failed ? 2u : 0u));
  }
  return hash;
}

// One full chaos run — gateway (retry + hedging), reactive autoscaler,
// injector (kills + degrades) — digested down to a single hash over the
// completion and failure streams plus the serving counters.
std::uint64_t chaos_run_digest(std::uint64_t chaos_seed) {
  auto cluster =
      testkit::ClusterBuilder().nodes(2).gpus_per_node(2).models(6).build();

  gateway::GatewayConfig gw_config;
  gw_config.max_in_flight = 64;
  gw_config.default_slo = sec(10);
  gw_config.max_retries = 2;
  gw_config.hedge_budget_fraction = 0.2;
  gateway::Gateway gateway(cluster.get(), gw_config);

  autoscale::AutoscalerConfig as_config;
  as_config.evaluation_interval = sec(5);
  as_config.cold_start = sec(10);
  as_config.min_gpus = 4;
  as_config.max_gpus = 6;
  autoscale::Autoscaler scaler(cluster.get(),
                               std::make_unique<autoscale::ReactivePolicy>(),
                               as_config);

  FaultScheduleConfig fault_config;
  fault_config.seed = chaos_seed;
  fault_config.horizon = minutes(4);
  fault_config.domain_kills_per_hour = 15.0;  // 1 kill over the window
  fault_config.degrades_per_hour = 30.0;      // 2 degrades
  fault_config.degrade_factor = 6.0;
  fault_config.max_degrade = minutes(1);
  ChaosInjector injector(cluster.get(), make_fault_schedule(fault_config));

  trace::ClientConfig client_config;
  client_config.model_count = 6;
  trace::ClientSink sink = [&gateway](core::Request request,
                                      std::function<void()> done) {
    gateway.submit(std::move(request),
                   [done = std::move(done)](const gateway::GatewayResult&) {
                     done();
                   });
  };
  trace::OpenLoopClient client(&cluster->executor(), sink, client_config,
                               {90, 90, 90, 90});

  client.start();
  scaler.start(client.horizon());
  injector.arm();
  cluster->run_to_completion();
  scaler.finalize();
  cluster->engine().audit();

  EXPECT_EQ(client.completed(), client.submitted());
  EXPECT_EQ(cluster->engine().pending(), 0u);

  std::uint64_t hash = 0xcbf29ce484222325ull;
  hash = mix_records(cluster->engine().completions(), hash);
  hash = mix_records(cluster->engine().failures(), hash);
  const gateway::GatewayCounters& counters = gateway.counters();
  for (std::int64_t v :
       {counters.submitted, counters.completed, counters.failed,
        counters.retries, counters.hedges, counters.hedge_wins,
        injector.counters().domain_kills, injector.counters().degrades}) {
    hash = hash * 0x100000001b3ull + static_cast<std::uint64_t>(v);
  }
  return hash;
}

TEST(ChaosDeterminismTest, IdenticalSeedsBitIdenticalCompletions) {
  EXPECT_EQ(chaos_run_digest(5), chaos_run_digest(5));
  EXPECT_NE(chaos_run_digest(5), chaos_run_digest(6));
}

// ---------------------------------------------------------------------------
// Sim vs realtime: the same schedule replays on both executors
// ---------------------------------------------------------------------------

struct CrossCheckOutcome {
  std::size_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t kills = 0;
  std::int64_t degrades = 0;
};

CrossCheckOutcome run_chaos_stack(cluster::ElasticCluster& cluster) {
  gateway::GatewayConfig gw_config;
  gw_config.max_in_flight = 64;
  gw_config.default_slo = sec(30);
  gw_config.max_retries = 2;
  gateway::Gateway gateway(&cluster, gw_config);

  FaultScheduleConfig fault_config;
  fault_config.seed = 11;
  fault_config.horizon = minutes(2);
  fault_config.domain_kills_per_hour = 30.0;  // 1 kill over the window
  fault_config.degrades_per_hour = 30.0;      // 1 degrade
  fault_config.degrade_factor = 4.0;
  fault_config.max_degrade = minutes(1);
  ChaosInjector injector(&cluster, make_fault_schedule(fault_config));

  trace::ClientConfig client_config;
  client_config.model_count = 4;
  trace::ClientSink sink = [&gateway](core::Request request,
                                      std::function<void()> done) {
    gateway.submit(std::move(request),
                   [done = std::move(done)](const gateway::GatewayResult&) {
                     done();
                   });
  };
  trace::OpenLoopClient client(&cluster.executor(), sink, client_config,
                               {60, 60});

  client.start();
  injector.arm();
  cluster.run_to_completion();

  CrossCheckOutcome outcome;
  outcome.submitted = client.submitted();
  outcome.completed = gateway.counters().completed;
  outcome.kills = injector.counters().domain_kills;
  outcome.degrades = injector.counters().degrades;
  return outcome;
}

TEST(ChaosDeterminismTest, SimVsRealtimeCrossCheck) {
  const models::ModelRegistry registry = testkit::head_registry(4);
  cluster::ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;

  cluster::SimCluster sim_cluster(config, registry);
  const CrossCheckOutcome sim_outcome = run_chaos_stack(sim_cluster);

  // 240x compression: the 2-minute trace replays in ~0.5s of wall time.
  // Event interleavings drift under real scheduling, so the cross-check
  // asserts the loose invariants — the schedule fires identically and
  // retry absorbs the kill in both modes — not timestamp equality.
  cluster::RealTimeCluster rt_cluster(config, registry, /*time_scale=*/240.0);
  const CrossCheckOutcome rt_outcome = run_chaos_stack(rt_cluster);

  EXPECT_EQ(sim_outcome.submitted, rt_outcome.submitted);
  EXPECT_EQ(sim_outcome.kills, rt_outcome.kills);
  EXPECT_EQ(sim_outcome.degrades, rt_outcome.degrades);
  EXPECT_GT(sim_outcome.kills, 0);
  EXPECT_EQ(sim_outcome.completed,
            static_cast<std::int64_t>(sim_outcome.submitted));
  EXPECT_EQ(rt_outcome.completed,
            static_cast<std::int64_t>(rt_outcome.submitted));
}

// ---------------------------------------------------------------------------
// Kill / cancel during model load (regression)
// ---------------------------------------------------------------------------

// Aborting a mid-load request whose model is pinned by parked same-model
// waiters used to CHECK-fail in the eviction path (the abort tried to
// evict an entry the waiters still pin). The fix keeps the residency for
// them and re-uploads on dispatch; this is the exact crash scenario.
TEST(KillDuringLoadTest, CancelMidLoadKeepsResidencyForPinnedWaiters) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  auto& engine = cluster->engine();
  auto& sim = cluster->simulator();

  core::Request first = make_request(0, 0, 0);
  const auto victim_id = first.id;
  sim.schedule_at(0, [&, first] { engine.submit(first); });
  GpuId loader;
  sim.schedule_at(msec(2000), [&] {
    // Still inside the ~2.4s cold load; the residual wait beats a fresh
    // load, so LALB parks the same-model requests with pins.
    const auto busy = engine.busy_gpus();
    ASSERT_EQ(busy.size(), 1u);
    loader = busy[0];
    engine.submit(make_request(1, 0, msec(2000)));
    ASSERT_EQ(engine.local_queues().size(loader), 1u)
        << "expected LALB to park the same-model request behind the load";
  });
  sim.schedule_at(msec(2100), [&] {
    ASSERT_FALSE(engine.is_idle(loader));
    EXPECT_TRUE(engine.cancel_request(victim_id));
  });
  cluster->run_to_completion();

  // The waiter completed on the kept-resident model; nothing leaked.
  EXPECT_EQ(engine.completions().size(), 1u);
  EXPECT_EQ(engine.failures().size(), 0u);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.cancellations(), 1);
  EXPECT_GT(engine.cancelled_execution_time(), 0);
  for (const GpuId gpu : engine.idle_gpus()) {
    EXPECT_FALSE(cluster->cache().state(gpu).any_pinned());
  }
  // The devices count exactly the evictions the cache recorded.
  std::int64_t device_evictions = 0;
  for (std::size_t g = 0; g < cluster->gpu_count(); ++g) {
    device_evictions += cluster->gpu(g).counters().evictions;
  }
  EXPECT_EQ(cluster->cache().stats().evictions, device_evictions);
}

TEST(KillDuringLoadTest, KillGpuMidLoadRequeuesPinnedWaiters) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  auto& engine = cluster->engine();
  auto& sim = cluster->simulator();

  sim.schedule_at(0, [&] { engine.submit(make_request(0, 0, 0)); });
  GpuId loader;
  sim.schedule_at(msec(2000), [&] {
    const auto busy = engine.busy_gpus();
    ASSERT_EQ(busy.size(), 1u);
    loader = busy[0];
    engine.submit(make_request(1, 0, msec(2000)));
    ASSERT_EQ(engine.local_queues().size(loader), 1u);
  });
  sim.schedule_at(msec(2100), [&] {
    ASSERT_FALSE(engine.is_idle(loader));
    cluster->kill_gpu(loader);
  });
  cluster->run_to_completion();

  // The in-flight load died with its GPU; the parked waiter was
  // requeued and served by the survivor.
  ASSERT_EQ(engine.failures().size(), 1u);
  EXPECT_EQ(engine.failures()[0].gpu, loader);
  EXPECT_EQ(engine.completions().size(), 1u);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.schedulable_gpu_count(), 1u);
  EXPECT_FALSE(cluster->cache().is_registered(loader));
  for (const GpuId gpu : engine.idle_gpus()) {
    EXPECT_FALSE(cluster->cache().state(gpu).any_pinned());
  }
}

}  // namespace
}  // namespace gfaas::chaos
