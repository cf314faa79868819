// End-to-end smoke test: the quickstart scenario (invoke resnet50
// repeatedly through the Gateway on the paper's 3x4 cluster) plus one
// cluster::Experiment run over a standard workload. Guards the full
// Gateway -> Scheduler -> GPU Manager -> Cache Manager -> Datastore
// wiring that every example and bench binary depends on.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/experiment.h"
#include "gateway/gateway.h"
#include "models/zoo.h"
#include "testing/builders.h"
#include "testing/matchers.h"

namespace gfaas::cluster {
namespace {

TEST(SmokeTest, QuickstartScenarioCompletes) {
  // The quickstart example, minus stdout: paper testbed (3 nodes x 4
  // GPUs), resnet50 served through the Gateway.
  const models::ModelRegistry registry = models::ModelRegistry::full_catalog();
  SimCluster cluster(ClusterConfig{}, registry);
  gateway::Gateway gateway(&cluster);
  const auto resnet50 = models::find_model("resnet50");
  ASSERT_TRUE(resnet50.ok());

  std::vector<SimTime> latencies;
  for (int i = 0; i < 3; ++i) {
    cluster.simulator().schedule_after(0, [&, i] {
      core::Request request;
      request.id = RequestId(i);
      request.model = resnet50->id;
      gateway.submit(std::move(request), [&](const gateway::GatewayResult& result) {
        ASSERT_EQ(result.disposition, gateway::Disposition::kCompleted);
        EXPECT_TRUE(result.record.gpu.valid());
        latencies.push_back(result.record.latency());
      });
    });
    cluster.run_to_completion();
  }

  ASSERT_EQ(latencies.size(), 3u);
  // First invocation pays the model upload; the rest hit the GPU cache.
  EXPECT_GT(latencies[0], latencies[1]);
  EXPECT_GT(latencies[0], latencies[2]);
  EXPECT_EQ(cluster.engine().completions().size(), 3u);
}

TEST(SmokeTest, BuilderClusterReplaysSequence) {
  // The testkit fixture path future PRs lean on: ClusterBuilder +
  // deterministic request sequence + completion-record matchers.
  auto cluster = testkit::ClusterBuilder()
                     .policy(core::PolicyName::kLalb)
                     .models(3)
                     .build();
  const auto requests =
      testkit::make_request_sequence(/*count=*/12, /*model_count=*/3,
                                     /*start=*/0, /*gap=*/sec(2));
  cluster->replay(requests);

  EXPECT_TRUE(testkit::all_completed_once(cluster->engine(), requests.size()));
  for (const auto& record : cluster->engine().completions()) {
    EXPECT_TRUE(testkit::has_causal_timestamps(record));
  }
  // Request 0 is always a cold miss; squeezenet1.1 loads 2.41s + infers
  // 1.28s from arrival 0.
  const auto& first = testkit::completion_of(*cluster, 0);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(testkit::latency_near(first, 2.41 + 1.28));
}

TEST(SmokeTest, ExperimentProducesCompletions) {
  const trace::Workload workload = testkit::make_workload(/*working_set=*/15,
                                                          /*seed=*/7);
  ClusterConfig config;
  const ExperimentResult result = run_experiment(config, workload);

  EXPECT_EQ(result.requests, workload.requests.size());
  EXPECT_GT(result.requests, 0u);
  EXPECT_GT(result.avg_latency_s, 0.0);
  EXPECT_GT(result.makespan_s, 0.0);
  EXPECT_GE(result.miss_ratio, 0.0);
  EXPECT_LE(result.miss_ratio, 1.0);
}

}  // namespace
}  // namespace gfaas::cluster
