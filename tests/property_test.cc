// Property-based sweeps (TEST_P) over scheduler x working set x seed:
// system-level invariants that must hold for ANY workload and policy —
// completeness, causality of timestamps, accounting consistency between
// scheduler decisions, cache statistics and GPU counters, memory safety,
// and bit-exact determinism.
#include <gtest/gtest.h>

#include <tuple>

#include "cluster/experiment.h"
#include "testing/builders.h"
#include "testing/matchers.h"
#include "trace/workload.h"

namespace gfaas::cluster {
namespace {

using Combo = std::tuple<core::PolicyName, std::size_t, std::uint64_t>;

class SchedulerInvariantTest : public ::testing::TestWithParam<Combo> {};

TEST_P(SchedulerInvariantTest, SystemInvariantsHold) {
  const auto [policy, working_set, seed] = GetParam();

  // 2-minute window: 650 requests keeps the sweep fast.
  const trace::Workload workload =
      testkit::make_workload(working_set, seed, /*window_minutes=*/2);

  ClusterConfig config;
  config.policy = policy;
  SimCluster cluster(config, workload.registry);
  cluster.engine().track_duplicates_of(workload.top_model);
  const SimTime makespan = cluster.replay(workload.requests);

  const auto& completions = cluster.engine().completions();

  // (1) Completeness: every submitted request completes exactly once.
  ASSERT_TRUE(testkit::all_completed_once(cluster.engine(), workload.requests.size()));

  // (2) Causality: arrival <= dispatched < completed <= makespan.
  std::int64_t misses = 0, false_misses = 0;
  for (const auto& r : completions) {
    EXPECT_TRUE(testkit::has_causal_timestamps(r));
    EXPECT_LE(r.completed, makespan);
    EXPECT_TRUE(r.gpu.valid());
    EXPECT_LT(r.gpu.value(), static_cast<std::int64_t>(cluster.gpu_count()));
    if (!r.cache_hit) ++misses;
    if (r.false_miss) ++false_misses;
    // A false miss is by definition a miss.
    if (r.false_miss) {
      EXPECT_FALSE(r.cache_hit);
    }
    // Local-queue requests are guaranteed hits (the model was pinned).
    if (r.via_local_queue) {
      EXPECT_TRUE(r.cache_hit);
    }
    // Minimum service time: at least the pure inference latency.
    const SimTime infer = workload.registry.infer_time(r.model, 32).value();
    EXPECT_GE(r.completed - r.dispatched, infer);
  }

  // (3) Accounting: every miss uploads exactly one model; evictions can
  // never exceed loads; the cache manager and engine agree.
  std::int64_t loads = 0, evictions = 0;
  for (std::size_t g = 0; g < cluster.gpu_count(); ++g) {
    loads += cluster.gpu(g).counters().loads;
    evictions += cluster.gpu(g).counters().evictions;
    // (4) Memory safety: the cache's used bytes are its entries' sizes
    // and within capacity; no entry is mid-load at quiescence.
    const cache::GpuCacheState& state = cluster.cache().state(GpuId(g));
    Bytes resident = 0;
    for (ModelId model : state.models()) {
      resident += state.size_of(model);
      EXPECT_TRUE(state.loaded(model));
    }
    EXPECT_EQ(state.used(), resident);
    EXPECT_LE(state.used(), state.capacity());
  }
  EXPECT_EQ(loads, misses);
  EXPECT_EQ(cluster.cache().stats().misses, misses);
  EXPECT_EQ(cluster.cache().stats().hits,
            static_cast<std::int64_t>(completions.size()) - misses);
  EXPECT_EQ(cluster.cache().stats().evictions, evictions);
  EXPECT_LE(evictions, loads);
  EXPECT_EQ(cluster.engine().false_misses(), false_misses);
  EXPECT_LE(false_misses, misses);

  // (5) Duplicate bound: a model can be on at most every GPU.
  EXPECT_LE(cluster.engine().average_top_duplicates(makespan),
            static_cast<double>(cluster.gpu_count()));

  // (6) Work conservation: the makespan cannot be shorter than the total
  // inference work spread perfectly across all GPUs.
  SimTime total_infer = 0;
  for (const auto& r : completions) {
    total_infer += workload.registry.infer_time(r.model, 32).value();
  }
  EXPECT_GE(makespan,
            total_infer / static_cast<SimTime>(cluster.gpu_count()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerInvariantTest,
    ::testing::Combine(::testing::Values(core::PolicyName::kLb,
                                         core::PolicyName::kLalb,
                                         core::PolicyName::kLalbO3),
                       ::testing::Values<std::size_t>(15, 25, 35),
                       ::testing::Values<std::uint64_t>(7, 1234)),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return core::policy_display_name(std::get<0>(info.param)) + "_ws" +
             std::to_string(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

class DeterminismTest : public ::testing::TestWithParam<core::PolicyName> {};

TEST_P(DeterminismTest, IdenticalRunsProduceIdenticalTimelines) {
  trace::WorkloadConfig wconfig;
  wconfig.working_set_size = 25;
  wconfig.window_minutes = 1;
  auto workload = trace::build_standard_workload(wconfig);
  ASSERT_TRUE(workload.ok());

  auto run_once = [&] {
    ClusterConfig config;
    config.policy = GetParam();
    SimCluster cluster(config, workload->registry);
    cluster.replay(workload->requests);
    return cluster.engine().completions();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].gpu, b[i].gpu);
    EXPECT_EQ(a[i].dispatched, b[i].dispatched);
    EXPECT_EQ(a[i].completed, b[i].completed);
    EXPECT_EQ(a[i].cache_hit, b[i].cache_hit);
    EXPECT_EQ(a[i].false_miss, b[i].false_miss);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DeterminismTest,
                         ::testing::Values(core::PolicyName::kLb,
                                           core::PolicyName::kLalb,
                                           core::PolicyName::kLalbO3),
                         [](const ::testing::TestParamInfo<core::PolicyName>& info) {
                           return core::policy_display_name(info.param);
                         });

class O3LimitMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(O3LimitMonotonicityTest, HigherLimitNeverLosesBadlyToLalb) {
  // Fig. 7's qualitative claim: raising the O3 limit improves (or at
  // least does not substantially worsen) latency and miss ratio at the
  // thrashing working set.
  trace::WorkloadConfig wconfig;
  wconfig.working_set_size = 35;
  wconfig.window_minutes = 2;
  auto workload = trace::build_standard_workload(wconfig);
  ASSERT_TRUE(workload.ok());

  ClusterConfig base;
  base.policy = core::PolicyName::kLalb;
  const ExperimentResult lalb = run_experiment(base, *workload);

  ClusterConfig o3;
  o3.policy = core::PolicyName::kLalbO3;
  o3.o3_limit = GetParam();
  const ExperimentResult result = run_experiment(o3, *workload);
  EXPECT_LT(result.avg_latency_s, lalb.avg_latency_s * 1.25);
  EXPECT_LT(result.miss_ratio, lalb.miss_ratio * 1.25 + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Limits, O3LimitMonotonicityTest,
                         ::testing::Values(5, 15, 25, 45));

}  // namespace
}  // namespace gfaas::cluster
