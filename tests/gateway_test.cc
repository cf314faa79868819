// Serving-layer tests: Gateway admission edge cases (zero-capacity
// window, shed-under-burst, expired-at-submit), completion-callback
// ordering against the engine's completion log, per-model SLO stats and
// the windowed outcome record, the open/closed-loop client generators,
// the chaos path (GPU killed mid-request: failed callback, local-queue
// requeue, no stranded pins), the SLO-aware scaling policy's bands, and
// the digest guard proving the paper grid routed through the Gateway is
// bit-identical to direct engine submission.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "autoscale/slo_policy.h"
#include "common/rng.h"
#include "gateway/gateway.h"
#include "testing/builders.h"
#include "trace/clients.h"
#include "trace/workload.h"

namespace gfaas::gateway {
namespace {

using testkit::make_request;

core::Request serving_request(std::int64_t id, std::int64_t model) {
  // Arrival/deadline are stamped by the Gateway at submit time.
  return make_request(id, model, /*arrival=*/0);
}

struct Outcome {
  std::int64_t id;
  Disposition disposition;
  bool slo_met;
};

// Collects every callback in firing order.
struct Collector {
  std::vector<Outcome> outcomes;

  ResultCallback callback(std::int64_t id) {
    return [this, id](const GatewayResult& result) {
      outcomes.push_back(Outcome{id, result.disposition, result.slo_met});
    };
  }
  std::size_t count(Disposition disposition) const {
    return static_cast<std::size_t>(
        std::count_if(outcomes.begin(), outcomes.end(), [&](const Outcome& o) {
          return o.disposition == disposition;
        }));
  }
};

// ---------------------------------------------------------------------------
// Admission edge cases
// ---------------------------------------------------------------------------

TEST(GatewayAdmissionTest, ServesAndTracksSlo) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  Gateway gateway(cluster.get());
  Collector collector;

  cluster->simulator().schedule_at(0, [&] {
    gateway.submit(serving_request(0, 0), collector.callback(0));
  });
  cluster->run_to_completion();

  ASSERT_EQ(collector.outcomes.size(), 1u);
  EXPECT_EQ(collector.outcomes[0].disposition, Disposition::kCompleted);
  EXPECT_TRUE(collector.outcomes[0].slo_met);
  EXPECT_EQ(gateway.counters().submitted, 1);
  EXPECT_EQ(gateway.counters().completed, 1);
  EXPECT_EQ(gateway.counters().slo_met, 1);
  EXPECT_EQ(gateway.in_flight(), 0u);
  EXPECT_DOUBLE_EQ(gateway.slo_attainment(), 1.0);
  const auto& stats = gateway.model_stats().at(0);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_DOUBLE_EQ(stats.slo_attainment(), 1.0);
  EXPECT_GT(stats.latency_s.mean(), 0.0);
}

TEST(GatewayAdmissionTest, ZeroCapacityWindowShedsEverything) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  GatewayConfig config;
  config.max_in_flight = 0;
  Gateway gateway(cluster.get(), config);
  Collector collector;

  cluster->simulator().schedule_at(0, [&] {
    for (std::int64_t i = 0; i < 5; ++i) {
      gateway.submit(serving_request(i, 0), collector.callback(i));
    }
  });
  cluster->run_to_completion();

  EXPECT_EQ(collector.outcomes.size(), 5u);
  EXPECT_EQ(collector.count(Disposition::kShed), 5u);
  EXPECT_EQ(gateway.counters().shed, 5);
  EXPECT_EQ(gateway.counters().admitted, 0);
  EXPECT_EQ(cluster->engine().completions().size(), 0u);
}

TEST(GatewayAdmissionTest, ExpiredAtSubmitResolvesImmediately) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  Gateway gateway(cluster.get());
  Collector collector;

  cluster->simulator().schedule_at(sec(5), [&] {
    core::Request stale = serving_request(0, 0);
    stale.deadline = sec(3);  // already in the past at submit
    gateway.submit(std::move(stale), collector.callback(0));
  });
  cluster->run_to_completion();

  ASSERT_EQ(collector.outcomes.size(), 1u);
  EXPECT_EQ(collector.outcomes[0].disposition, Disposition::kExpired);
  EXPECT_EQ(gateway.counters().expired, 1);
  EXPECT_EQ(gateway.counters().admitted, 0);
}

TEST(GatewayAdmissionTest, ShedsUnderBurstBeyondWindowAndPendingBounds) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  GatewayConfig config;
  config.max_in_flight = 2;
  config.max_pending = 2;
  config.default_slo = minutes(5);  // generous: pending-queue estimate passes
  Gateway gateway(cluster.get(), config);
  Collector collector;

  constexpr std::int64_t kBurst = 10;
  cluster->simulator().schedule_at(0, [&] {
    for (std::int64_t i = 0; i < kBurst; ++i) {
      gateway.submit(serving_request(i, 0), collector.callback(i));
    }
    // Window full, pending bounded: the overflow shed synchronously.
    EXPECT_EQ(gateway.in_flight(), 2u);
    EXPECT_EQ(gateway.pending(), 2u);
  });
  cluster->run_to_completion();

  EXPECT_EQ(collector.outcomes.size(), static_cast<std::size_t>(kBurst));
  EXPECT_EQ(collector.count(Disposition::kShed), 6u);
  EXPECT_EQ(collector.count(Disposition::kCompleted), 4u);
  EXPECT_EQ(gateway.counters().admitted, 4);
  EXPECT_EQ(cluster->engine().completions().size(), 4u);
  EXPECT_EQ(gateway.pending(), 0u);
}

TEST(GatewayAdmissionTest, TightDeadlineShedsInsteadOfQueueing) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  GatewayConfig config;
  config.max_in_flight = 1;
  // SLO far below any backlog estimate: over-window submissions must be
  // shed (queueing them would just deliver expiries later).
  config.default_slo = msec(1);
  Gateway gateway(cluster.get(), config);
  Collector collector;

  cluster->simulator().schedule_at(0, [&] {
    for (std::int64_t i = 0; i < 3; ++i) {
      gateway.submit(serving_request(i, 0), collector.callback(i));
    }
  });
  cluster->run_to_completion();

  // First admitted (window had room; admission never rejects on
  // estimate), the rest shed by the estimate-vs-deadline decision.
  EXPECT_EQ(collector.count(Disposition::kShed), 2u);
  EXPECT_EQ(gateway.pending(), 0u);
  ASSERT_EQ(cluster->engine().completions().size(), 1u);
  // The admitted request blew its (absurd) deadline: completed, SLO missed.
  EXPECT_EQ(collector.count(Disposition::kCompleted), 1u);
  EXPECT_EQ(gateway.counters().slo_met, 0);
}

TEST(GatewayAdmissionTest, PendingQueueAdmitsInSubmitOrderAcrossWrapAndGrowth) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(1).build();
  GatewayConfig config;
  config.max_in_flight = 1;  // one flight: completions follow admissions
  config.default_slo = minutes(30);
  Gateway gateway(cluster.get(), config);
  std::vector<std::int64_t> order;
  constexpr std::int64_t kFirst = 12;
  constexpr std::int64_t kSecond = 30;
  std::function<void(std::int64_t)> submit = [&](std::int64_t id) {
    gateway.submit(serving_request(id, 0), [&, id](const GatewayResult& result) {
      EXPECT_EQ(result.disposition, Disposition::kCompleted) << id;
      order.push_back(id);
      // Once the queue's front has moved, a second wave wraps the queue
      // around its end and then grows it.
      if (id == 4) {
        cluster->simulator().schedule_at(cluster->simulator().now(), [&] {
          for (std::int64_t i = kFirst; i < kFirst + kSecond; ++i) submit(i);
        });
      }
    });
  };
  cluster->simulator().schedule_at(0, [&] {
    for (std::int64_t i = 0; i < kFirst; ++i) submit(i);
  });
  cluster->run_to_completion();

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kFirst + kSecond));
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<std::int64_t>(i)) << "position " << i;
  }
  EXPECT_EQ(gateway.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Completion-callback ordering and windowed outcomes
// ---------------------------------------------------------------------------

TEST(GatewayOrderingTest, CallbacksFollowEngineCompletionLogOrder) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(3).models(4).build();
  Gateway gateway(cluster.get());
  Collector collector;

  for (std::int64_t i = 0; i < 24; ++i) {
    cluster->simulator().schedule_at(msec(100) * i, [&, i] {
      gateway.submit(serving_request(i, i % 4), collector.callback(i));
    });
  }
  cluster->run_to_completion();

  const auto& log = cluster->engine().completions();
  ASSERT_EQ(collector.outcomes.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(collector.outcomes[i].id, log[i].id.value()) << "position " << i;
    EXPECT_EQ(collector.outcomes[i].disposition, Disposition::kCompleted);
  }
}

TEST(GatewayStatsTest, WindowedOutcomesTrimAndQuantiles) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  GatewayConfig config;
  config.stats_window = sec(30);
  Gateway gateway(cluster.get(), config);
  Collector collector;

  for (std::int64_t i = 0; i < 6; ++i) {
    cluster->simulator().schedule_at(sec(10) * i, [&, i] {
      gateway.submit(serving_request(i, 0), collector.callback(i));
    });
  }
  cluster->run_to_completion();

  // Only completions inside the trailing 30s survive in the window.
  const WindowedOutcomes window = gateway.windowed_outcomes();
  EXPECT_GT(window.completions, 0u);
  EXPECT_LT(window.completions, 6u);
  EXPECT_GT(window.p99_latency, 0);
  EXPECT_GE(window.p99_latency, window.p50_latency);
  EXPECT_DOUBLE_EQ(window.shed_fraction(), 0.0);
}

// ---------------------------------------------------------------------------
// Client generators
// ---------------------------------------------------------------------------

TEST(OpenLoopClientTest, GeneratesPerMinuteRatesLazily) {
  sim::Simulator simulator;
  std::vector<SimTime> arrivals;
  trace::ClientSink sink = [&](core::Request request, std::function<void()> done) {
    EXPECT_TRUE(request.id.valid());
    EXPECT_LT(request.model.value(), 3);
    arrivals.push_back(simulator.now());
    done();
  };
  trace::ClientConfig config;
  config.model_count = 3;
  trace::OpenLoopClient client(&simulator, sink, config, {5, 0, 3});

  client.start();
  simulator.run();

  EXPECT_EQ(client.submitted(), 8u);
  EXPECT_EQ(client.completed(), 8u);
  EXPECT_EQ(client.horizon(), minutes(3));
  ASSERT_EQ(arrivals.size(), 8u);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  // Minute 1 carries zero arrivals.
  for (const SimTime t : arrivals) {
    EXPECT_TRUE(t < minutes(1) || t >= minutes(2));
  }
}

TEST(OpenLoopClientTest, DeterministicForAGivenSeed) {
  auto run_once = [] {
    sim::Simulator simulator;
    std::vector<std::int64_t> models;
    trace::ClientSink sink = [&](core::Request request, std::function<void()> done) {
      models.push_back(request.model.value());
      done();
    };
    trace::ClientConfig config;
    config.model_count = 5;
    config.seed = 99;
    trace::OpenLoopClient client(&simulator, sink, config, {20, 20});
    client.start();
    simulator.run();
    return models;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ClosedLoopClientTest, ConcurrencyNeverExceedsUsers) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  Gateway gateway(cluster.get());

  std::size_t max_in_flight = 0;
  trace::ClientSink sink = [&](core::Request request, std::function<void()> done) {
    gateway.submit(std::move(request),
                   [done = std::move(done)](const GatewayResult&) { done(); });
  };
  trace::ClientConfig config;
  config.model_count = 2;
  trace::ClosedLoopClient client(&cluster->simulator(), sink, config, /*users=*/3,
                                 /*think_time=*/msec(50), /*duration=*/sec(30));
  // Track peak concurrency from the client's own accounting every 100ms.
  for (SimTime t = 0; t < sec(30); t += msec(100)) {
    cluster->simulator().schedule_at(t, [&] {
      max_in_flight = std::max(max_in_flight, client.in_flight());
    });
  }
  client.start();
  cluster->run_to_completion();

  EXPECT_GT(client.submitted(), 3u);  // users cycled more than once
  EXPECT_EQ(client.completed(), client.submitted());
  EXPECT_EQ(client.in_flight(), 0u);
  EXPECT_LE(max_in_flight, 3u);
  EXPECT_EQ(cluster->engine().completions().size(), client.submitted());
}

// ---------------------------------------------------------------------------
// Chaos: GPU killed mid-request
// ---------------------------------------------------------------------------

TEST(GatewayChaosTest, KilledGpuFailsInFlightAndRequeuesLocalQueue) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  Gateway gateway(cluster.get());
  Collector collector;

  // A (model 0) takes a GPU with a cold load (~2.4s) and infers (~1.3s).
  // B and C (same model) arrive near A's finish: waiting the residual
  // fraction of a second beats a fresh 2.4s load, so LALB parks them in
  // that GPU's local queue for the guaranteed hit (each holding a pin on
  // the model).
  cluster->simulator().schedule_at(0, [&] {
    gateway.submit(serving_request(0, 0), collector.callback(0));
  });
  GpuId victim;
  cluster->simulator().schedule_at(msec(3300), [&] {
    const auto busy = cluster->engine().busy_gpus();
    ASSERT_EQ(busy.size(), 1u);
    victim = busy[0];
    gateway.submit(serving_request(1, 0), collector.callback(1));
    gateway.submit(serving_request(2, 0), collector.callback(2));
    ASSERT_GT(cluster->engine().local_queues().size(victim), 0u)
        << "expected LALB to park same-model requests in the local queue";
  });
  cluster->simulator().schedule_at(msec(3500), [&] {
    ASSERT_TRUE(victim.valid());
    ASSERT_FALSE(cluster->engine().is_idle(victim)) << "A already finished";
    cluster->kill_gpu(victim);
  });
  cluster->run_to_completion();

  // All three callbacks fired: the in-flight request failed (not
  // silence), the requeued ones completed on the surviving GPU.
  ASSERT_EQ(collector.outcomes.size(), 3u);
  EXPECT_EQ(collector.count(Disposition::kFailed), 1u);
  EXPECT_EQ(collector.count(Disposition::kCompleted), 2u);
  EXPECT_EQ(collector.outcomes.back().disposition != Disposition::kFailed, true);
  EXPECT_EQ(gateway.counters().failed, 1);
  EXPECT_EQ(gateway.counters().completed, 2);
  EXPECT_EQ(gateway.in_flight(), 0u);

  // The engine recorded the failure separately from the completion log.
  ASSERT_EQ(cluster->engine().failures().size(), 1u);
  EXPECT_TRUE(cluster->engine().failures()[0].failed);
  EXPECT_EQ(cluster->engine().failures()[0].gpu, victim);
  EXPECT_EQ(cluster->engine().completions().size(), 2u);
  EXPECT_EQ(cluster->engine().pending(), 0u);

  // No stranded pins anywhere, and the dead GPU left every index.
  EXPECT_FALSE(cluster->cache().is_registered(victim));
  EXPECT_EQ(cluster->engine().schedulable_gpu_count(), 1u);
  for (const GpuId gpu : cluster->engine().idle_gpus()) {
    EXPECT_FALSE(cluster->cache().state(gpu).any_pinned());
  }
}

TEST(GatewayChaosTest, KillIdleGpuRetiresWithoutCallbacks) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  Gateway gateway(cluster.get());

  cluster->simulator().schedule_at(0, [&] { cluster->kill_gpu(GpuId(1)); });
  cluster->run_to_completion();

  EXPECT_EQ(cluster->engine().schedulable_gpu_count(), 1u);
  EXPECT_EQ(cluster->engine().failures().size(), 0u);
  EXPECT_EQ(gateway.counters().failed, 0);
}

// ---------------------------------------------------------------------------
// SLO-aware scaling policy bands
// ---------------------------------------------------------------------------

autoscale::FleetView steady_view(SimTime now, std::size_t gpus, std::size_t busy) {
  autoscale::FleetView view;
  view.now = now;
  view.schedulable_gpus = gpus;
  view.idle_gpus = gpus - busy;
  view.in_flight = busy;
  view.min_gpus = 1;
  view.max_gpus = 64;
  return view;
}

TEST(SloAwarePolicyTest, DangerBandBoostsAndVetoesRemoves) {
  autoscale::SloSignal signal;
  signal.samples = 100;
  signal.deep_wait_fraction = 0.6;  // deep congestion
  autoscale::SloAwarePolicyConfig config;
  config.min_samples = 1;
  autoscale::SloAwarePolicy policy([&] { return signal; }, config);
  policy.bind(sec(5));

  const auto decision = policy.evaluate(steady_view(minutes(1), 8, 8));
  EXPECT_GT(decision.add, 0u);
  EXPECT_EQ(decision.remove, 0u);
}

TEST(SloAwarePolicyTest, HoldBandOnlyVetoesRemoves) {
  autoscale::SloSignal signal;
  signal.samples = 100;
  autoscale::SloAwarePolicyConfig config;
  config.min_samples = 1;
  autoscale::SloAwarePolicy policy([&] { return signal; }, config);
  policy.bind(sec(5));

  // Seed the envelope/forecast with a lightly-busy fleet (the 2x floor
  // stays below the fleet), then report deep waits between the safe and
  // danger fractions: the surplus the forecast would reclaim is vetoed,
  // and nothing is added either.
  for (int tick = 0; tick < 24; ++tick) {
    policy.evaluate(steady_view(sec(5) * tick, 8, 3));
  }
  signal.deep_wait_fraction =
      (config.deep_wait_safe + config.deep_wait_danger) / 2;
  const auto held = policy.evaluate(steady_view(minutes(3), 8, 3));
  EXPECT_EQ(held.add, 0u);
  EXPECT_EQ(held.remove, 0u);
}

TEST(SloAwarePolicyTest, EnvelopeFloorBacksCleanScaleDowns) {
  autoscale::SloSignal clean;
  clean.samples = 100;
  clean.deep_wait_fraction = 0.0;
  autoscale::SloAwarePolicyConfig config;
  config.min_samples = 1;
  config.burst_headroom = 2.0;
  autoscale::SloAwarePolicy policy([&] { return clean; }, config);
  policy.bind(sec(5));

  // Steady 6-busy fleet of 16: the envelope floor is 2 x 6 = 12, so the
  // forecast may reclaim down to 12 but never below.
  autoscale::ScalingDecision last;
  std::size_t gpus = 16;
  for (int tick = 0; tick < 120 && gpus > 0; ++tick) {
    last = policy.evaluate(steady_view(sec(30) * tick, gpus, 6));
    ASSERT_LE(last.remove, gpus);
    gpus += last.add;
    gpus -= last.remove;
  }
  EXPECT_EQ(gpus, 12u);
}

// ---------------------------------------------------------------------------
// Transparent retry: budget edge cases
// ---------------------------------------------------------------------------

TEST(GatewayRetryTest, TransparentRetryCompletesAfterGpuDeath) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  GatewayConfig config;
  config.max_retries = 2;
  config.default_slo = sec(30);
  Gateway gateway(cluster.get(), config);
  Collector collector;

  cluster->simulator().schedule_at(0, [&] {
    gateway.submit(serving_request(0, 0), collector.callback(0));
  });
  cluster->simulator().schedule_at(msec(2000), [&] {
    const auto busy = cluster->engine().busy_gpus();
    ASSERT_EQ(busy.size(), 1u);
    cluster->kill_gpu(busy[0]);  // mid-load; the budget covers a retry
  });
  cluster->run_to_completion();

  // The caller saw one clean completion; the death stayed internal.
  ASSERT_EQ(collector.outcomes.size(), 1u);
  EXPECT_EQ(collector.outcomes[0].disposition, Disposition::kCompleted);
  EXPECT_EQ(gateway.counters().retries, 1);
  EXPECT_EQ(gateway.counters().completed, 1);
  EXPECT_EQ(gateway.counters().failed, 0);
  EXPECT_EQ(gateway.model_stats().at(0).retried, 1);
  // The engine still logged the killed incarnation as a failure.
  EXPECT_EQ(cluster->engine().failures().size(), 1u);
  EXPECT_EQ(gateway.in_flight(), 0u);
}

TEST(GatewayRetryTest, RetryDeniedWhenSloBudgetAlreadySpent) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  GatewayConfig config;
  config.max_retries = 2;
  config.default_slo = sec(3);  // a fresh cold load (~3.7s) cannot make it
  Gateway gateway(cluster.get(), config);

  GatewayResult seen;
  std::size_t calls = 0;
  cluster->simulator().schedule_at(0, [&] {
    gateway.submit(serving_request(0, 0), [&](const GatewayResult& result) {
      seen = result;
      ++calls;
    });
  });
  GpuId victim;
  cluster->simulator().schedule_at(msec(2000), [&] {
    const auto busy = cluster->engine().busy_gpus();
    ASSERT_EQ(busy.size(), 1u);
    victim = busy[0];
    cluster->kill_gpu(victim);
  });
  cluster->run_to_completion();

  // Retry budget remained, but the SLO budget was gone: the failure is
  // reported at once instead of burning a GPU on a doomed resubmission.
  ASSERT_EQ(calls, 1u);
  EXPECT_EQ(seen.disposition, Disposition::kFailed);
  EXPECT_EQ(seen.record.gpu, victim);
  EXPECT_EQ(gateway.counters().retries, 0);
  EXPECT_EQ(gateway.counters().retries_denied, 1);
  EXPECT_EQ(gateway.counters().failed, 1);
}

TEST(GatewayRetryTest, ExhaustionReportsTheOriginalCause) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  GatewayConfig config;
  config.max_retries = 1;
  config.default_slo = sec(30);
  Gateway gateway(cluster.get(), config);

  GatewayResult seen;
  std::size_t calls = 0;
  cluster->simulator().schedule_at(0, [&] {
    gateway.submit(serving_request(0, 0), [&](const GatewayResult& result) {
      seen = result;
      ++calls;
    });
  });
  GpuId first_victim;
  cluster->simulator().schedule_at(msec(2000), [&] {
    const auto busy = cluster->engine().busy_gpus();
    ASSERT_EQ(busy.size(), 1u);
    first_victim = busy[0];
    cluster->kill_gpu(first_victim);  // retry moves to the survivor
  });
  cluster->simulator().schedule_at(msec(4500), [&] {
    const auto busy = cluster->engine().busy_gpus();
    ASSERT_EQ(busy.size(), 1u);
    ASSERT_NE(busy[0], first_victim);
    cluster->kill_gpu(busy[0]);  // and dies again, budget exhausted
  });
  cluster->run_to_completion();

  // The caller learns what originally went wrong — the first GPU's death
  // — not whatever the last doomed incarnation happened to hit.
  ASSERT_EQ(calls, 1u);
  EXPECT_EQ(seen.disposition, Disposition::kFailed);
  EXPECT_EQ(seen.record.gpu, first_victim);
  EXPECT_EQ(gateway.counters().retries, 1);
  EXPECT_EQ(gateway.counters().retries_denied, 0);
  EXPECT_EQ(gateway.counters().failed, 1);
  EXPECT_EQ(gateway.in_flight(), 0u);
}

TEST(GatewayRetryTest, RetryDuringBurstKeepsWindowInvariants) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  GatewayConfig config;
  config.max_in_flight = 2;
  config.max_pending = 8;
  config.max_retries = 2;
  config.default_slo = minutes(5);  // generous: nothing sheds on estimate
  Gateway gateway(cluster.get(), config);
  Collector collector;

  constexpr std::int64_t kBurst = 6;
  cluster->simulator().schedule_at(0, [&] {
    for (std::int64_t i = 0; i < kBurst; ++i) {
      gateway.submit(serving_request(i, i % 2), collector.callback(i));
    }
    EXPECT_EQ(gateway.in_flight(), 2u);
    EXPECT_EQ(gateway.pending(), 4u);
    gateway.audit();
  });
  cluster->simulator().schedule_at(msec(2000), [&] {
    const auto busy = cluster->engine().busy_gpus();
    ASSERT_FALSE(busy.empty());
    cluster->kill_gpu(busy[0]);
    cluster->engine().audit();
    gateway.audit();
  });
  cluster->run_to_completion();

  // The retry rides the same window slot as the original admission: the
  // pending queue keeps draining and every burst member resolves exactly
  // once, all as completions.
  ASSERT_EQ(collector.outcomes.size(), static_cast<std::size_t>(kBurst));
  for (std::int64_t i = 0; i < kBurst; ++i) {
    EXPECT_EQ(std::count_if(collector.outcomes.begin(), collector.outcomes.end(),
                            [&](const Outcome& o) { return o.id == i; }),
              1)
        << "request " << i;
  }
  EXPECT_EQ(collector.count(Disposition::kCompleted),
            static_cast<std::size_t>(kBurst));
  EXPECT_GE(gateway.counters().retries, 1);
  EXPECT_EQ(gateway.counters().shed, 0);
  EXPECT_EQ(gateway.in_flight(), 0u);
  EXPECT_EQ(gateway.pending(), 0u);
  EXPECT_EQ(cluster->engine().pending(), 0u);
  cluster->engine().audit();
  gateway.audit();
}

// ---------------------------------------------------------------------------
// Hedging: exactly-once under every interleaving
// ---------------------------------------------------------------------------

// A gray-degraded GPU makes the parked primary overdue; the hedge fires,
// wins on a healthy GPU, and the parked primary is cancelled for free.
TEST(GatewayHedgeTest, HedgeWinsAndCancelsParkedPrimary) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  GatewayConfig config;
  config.default_slo = sec(12);
  config.hedge_budget_fraction = 0.1;
  Gateway gateway(cluster.get(), config);
  Collector collector;

  GpuId straggler;
  cluster->simulator().schedule_at(0, [&] {
    // Slowdown is sampled at dispatch, so degrade both GPUs before the
    // submit: whichever takes request 0 becomes the straggler (10x slower
    // while its believed ~3.7s finish stays published); the other is
    // healed right back and stays the healthy hedge target.
    for (std::int64_t i = 0; i < 2; ++i) {
      cluster->engine().degrade_gpu(GpuId(i), 10.0);
    }
    gateway.submit(serving_request(0, 0), collector.callback(0));
    const auto busy = cluster->engine().busy_gpus();
    ASSERT_EQ(busy.size(), 1u);
    straggler = busy[0];
    for (std::int64_t i = 0; i < 2; ++i) {
      if (GpuId(i) != straggler) cluster->engine().degrade_gpu(GpuId(i), 1.0);
    }
  });
  cluster->simulator().schedule_at(msec(2000), [&] {
    // Parks behind the straggler (believed residual ~1.7s < ~2.4s load).
    gateway.submit(serving_request(1, 0), collector.callback(1));
    ASSERT_EQ(cluster->engine().local_queues().size(straggler), 1u);
  });
  cluster->run_to_completion();

  // The hedge launched once the straggler's overdueness exceeded the
  // duplicate's cold ETA, won on the healthy GPU, and cancelled the
  // parked primary without wasting any GPU time on it.
  ASSERT_EQ(collector.outcomes.size(), 2u);
  EXPECT_EQ(collector.count(Disposition::kCompleted), 2u);
  EXPECT_EQ(gateway.counters().hedges, 1);
  EXPECT_EQ(gateway.counters().hedge_wins, 1);
  EXPECT_EQ(gateway.counters().hedges_cancelled, 0);
  // A parked loser is a queue removal, not an abort: no cancellation is
  // metered and no GPU-time is wasted.
  EXPECT_EQ(cluster->engine().cancellations(), 0);
  EXPECT_EQ(cluster->engine().cancelled_execution_time(), 0);
  EXPECT_EQ(cluster->engine().pending(), 0u);
  EXPECT_EQ(gateway.in_flight(), 0u);
  for (const GpuId gpu : cluster->engine().idle_gpus()) {
    EXPECT_FALSE(cluster->cache().state(gpu).any_pinned());
  }
}

TEST(GatewayHedgeTest, BothCopiesKilledStillResolvesExactlyOnce) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(4).build();
  GatewayConfig config;
  config.default_slo = sec(12);
  config.hedge_budget_fraction = 0.1;
  config.max_retries = 0;
  Gateway gateway(cluster.get(), config);

  std::size_t calls_a = 0, calls_b = 0;
  GatewayResult seen_b;
  GpuId straggler, hedge_gpu, primary_gpu;
  cluster->simulator().schedule_at(0, [&] {
    for (std::int64_t i = 0; i < 4; ++i) {
      cluster->engine().degrade_gpu(GpuId(i), 10.0);
    }
    gateway.submit(serving_request(0, 0),
                   [&](const GatewayResult&) { ++calls_a; });
    const auto busy = cluster->engine().busy_gpus();
    ASSERT_EQ(busy.size(), 1u);
    straggler = busy[0];
    for (std::int64_t i = 0; i < 4; ++i) {
      if (GpuId(i) != straggler) cluster->engine().degrade_gpu(GpuId(i), 1.0);
    }
  });
  cluster->simulator().schedule_at(msec(2000), [&] {
    gateway.submit(serving_request(1, 0), [&](const GatewayResult& result) {
      seen_b = result;
      ++calls_b;
    });
    ASSERT_EQ(cluster->engine().local_queues().size(straggler), 1u);
  });
  // By t=8s the hedge has launched (overdueness beat the cold ETA around
  // t~7.5s). Kill the straggler: request 0 fails, the parked primary
  // requeues and dispatches onto a second healthy GPU — both copies of
  // request 1 now execute. Then kill them both.
  cluster->simulator().schedule_at(sec(8), [&] {
    ASSERT_EQ(gateway.counters().hedges, 1);
    const auto busy = cluster->engine().busy_gpus();
    ASSERT_EQ(busy.size(), 2u);
    hedge_gpu = busy[0] == straggler ? busy[1] : busy[0];
    cluster->kill_gpu(straggler);
  });
  cluster->simulator().schedule_at(msec(8200), [&] {
    // The requeued primary landed on a second healthy GPU.
    const auto busy = cluster->engine().busy_gpus();
    ASSERT_EQ(busy.size(), 2u);
    primary_gpu = busy[0] == hedge_gpu ? busy[1] : busy[0];
    ASSERT_NE(primary_gpu, straggler);
  });
  cluster->simulator().schedule_at(msec(8500), [&] {
    cluster->kill_gpu(primary_gpu);  // first copy down; hedge still racing
  });
  cluster->simulator().schedule_at(sec(9), [&] {
    cluster->kill_gpu(hedge_gpu);  // second copy down; no retries left
  });
  cluster->run_to_completion();

  // Both the straggling request and the doubly-killed request resolved
  // exactly once, the latter with the first copy's death as the cause.
  EXPECT_EQ(calls_a, 1u);
  ASSERT_EQ(calls_b, 1u);
  EXPECT_EQ(seen_b.disposition, Disposition::kFailed);
  EXPECT_EQ(seen_b.record.gpu, primary_gpu);
  EXPECT_EQ(gateway.counters().failed, 2);
  EXPECT_EQ(gateway.counters().completed, 0);
  EXPECT_EQ(gateway.counters().hedges, 1);
  EXPECT_EQ(gateway.counters().hedge_wins, 0);
  EXPECT_EQ(gateway.in_flight(), 0u);
  EXPECT_EQ(cluster->engine().pending(), 0u);
  EXPECT_EQ(cluster->engine().schedulable_gpu_count(), 1u);
  for (const GpuId gpu : cluster->engine().idle_gpus()) {
    EXPECT_FALSE(cluster->cache().state(gpu).any_pinned());
  }
}

// Randomized interleavings: gray degradation plus random GPU kills over
// many seeds exercise hedge-vs-kill races the deterministic tests cannot
// enumerate (primary killed while hedged, hedge killed mid-load, kills
// landing between the trigger and the dispatch, ...). The invariant under
// every interleaving: each submission resolves exactly once, and nothing
// — window slots, engine queue entries, cache pins — leaks.
TEST(GatewayHedgeTest, ExactlyOnceUnderRandomizedChaosSweep) {
  std::int64_t total_hedges = 0;
  std::int64_t total_kills = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto cluster =
        testkit::ClusterBuilder().nodes(2).gpus_per_node(2).models(4).build();
    GatewayConfig config;
    config.max_in_flight = 32;
    config.default_slo = sec(20);
    config.max_retries = 2;
    config.hedge_budget_fraction = 0.1;
    Gateway gateway(cluster.get(), config);
    auto rng = std::make_shared<Rng>(seed);

    std::unordered_map<std::int64_t, int> calls;
    trace::ClientSink sink = [&](core::Request request,
                                 std::function<void()> done) {
      const std::int64_t id = request.id.value();
      gateway.submit(std::move(request),
                     [&calls, id, done = std::move(done)](const GatewayResult&) {
                       ++calls[id];
                       done();
                     });
    };
    trace::ClientConfig client_config;
    client_config.model_count = 4;
    client_config.seed = seed;
    trace::OpenLoopClient client(&cluster->simulator(), sink, client_config,
                                 {90, 90});

    const std::int64_t gpu_count =
        static_cast<std::int64_t>(cluster->gpu_count());
    cluster->simulator().schedule_at(0, [&, rng] {
      // One hidden straggler per run: the overdueness source hedges need.
      const GpuId gpu(static_cast<std::int64_t>(
          rng->next_below(static_cast<std::uint64_t>(gpu_count))));
      cluster->engine().degrade_gpu(gpu, 8.0);
    });
    std::int64_t kills = 0;
    for (int k = 0; k < 3; ++k) {
      const SimTime at =
          sec(5) + static_cast<SimTime>(rng->next_below(sec(110)));
      cluster->simulator().schedule_at(at, [&, rng] {
        std::vector<GpuId> registered;
        for (std::int64_t i = 0; i < gpu_count; ++i) {
          if (cluster->engine().is_registered(GpuId(i))) {
            registered.push_back(GpuId(i));
          }
        }
        if (registered.size() <= 1) return;  // never go extinct
        cluster->kill_gpu(registered[rng->next_below(registered.size())]);
        cluster->engine().audit();
        gateway.audit();
        ++kills;
      });
    }

    client.start();
    cluster->run_to_completion();

    EXPECT_EQ(client.completed(), client.submitted()) << "seed " << seed;
    EXPECT_EQ(calls.size(), client.submitted()) << "seed " << seed;
    for (const auto& [id, count] : calls) {
      EXPECT_EQ(count, 1) << "seed " << seed << " request " << id;
    }
    const GatewayCounters& counters = gateway.counters();
    EXPECT_EQ(counters.completed + counters.shed + counters.expired +
                  counters.failed,
              counters.submitted)
        << "seed " << seed;
    EXPECT_EQ(gateway.in_flight(), 0u) << "seed " << seed;
    EXPECT_EQ(gateway.pending(), 0u) << "seed " << seed;
    EXPECT_EQ(cluster->engine().pending(), 0u) << "seed " << seed;
    cluster->engine().audit();
    gateway.audit();
    for (std::int64_t i = 0; i < gpu_count; ++i) {
      if (!cluster->engine().is_registered(GpuId(i))) continue;
      EXPECT_FALSE(cluster->cache().state(GpuId(i)).any_pinned())
          << "seed " << seed << " gpu " << i;
    }
    total_hedges += counters.hedges;
    total_kills += kills;
  }
  // The sweep must actually have exercised the machinery.
  EXPECT_GT(total_hedges, 0);
  EXPECT_GT(total_kills, 0);
}

// ---------------------------------------------------------------------------
// Digest guard: the Gateway is a behavior-preserving ingestion path
// ---------------------------------------------------------------------------

std::uint64_t completion_digest(const std::vector<core::CompletionRecord>& records) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
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
    mix((r.cache_hit ? 1u : 0u) | (r.false_miss ? 2u : 0u) |
        (r.via_local_queue ? 4u : 0u));
  }
  return hash;
}

TEST(GatewayDeterminismTest, PaperGridBitIdenticalThroughGateway) {
  // Full paper window (6 min x 325 rpm), working set 15, all three
  // schedulers: routing every request through a Gateway with an
  // unbounded window and no SLO stamping must leave the completion
  // stream bit-identical to direct engine submission.
  const trace::Workload workload = testkit::make_workload(15, 7, 6);
  for (core::PolicyName policy :
       {core::PolicyName::kLb, core::PolicyName::kLalb, core::PolicyName::kLalbO3}) {
    cluster::ClusterConfig config;  // the paper's 3x4 testbed
    config.policy = policy;

    cluster::SimCluster direct(config, workload.registry);
    direct.replay(workload.requests);

    cluster::SimCluster served(config, workload.registry);
    GatewayConfig gw_config;
    gw_config.max_in_flight = workload.requests.size() + 1;
    gw_config.default_slo = 0;  // no deadline stamping
    Gateway gateway(&served, gw_config);
    std::size_t done = 0;
    served.replay(workload.requests, [&](core::Request request) {
      gateway.submit(std::move(request),
                     [&done](const GatewayResult& result) {
                       ASSERT_EQ(result.disposition, Disposition::kCompleted);
                       ++done;
                     });
    });

    EXPECT_EQ(done, workload.requests.size());
    EXPECT_EQ(completion_digest(direct.engine().completions()),
              completion_digest(served.engine().completions()))
        << core::policy_display_name(policy);
  }
}

}  // namespace
}  // namespace gfaas::gateway
