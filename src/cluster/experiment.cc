#include "cluster/experiment.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/log.h"
#include "metrics/stats.h"

namespace gfaas::cluster {
namespace {

// Shared metric aggregation for both ingestion shapes: the numbers are
// functions of the completion stream and the assembled cluster only, not
// of how requests entered.
ExperimentResult aggregate_result(
    SimCluster& cluster, const trace::Workload& workload, SimTime makespan,
    std::vector<core::CompletionRecord>* completions_out) {
  const auto& completions = cluster.engine().completions();
  GFAAS_CHECK(completions.size() == workload.requests.size());

  metrics::StreamingStats latency;
  metrics::Histogram latency_hist(/*min=*/100.0, /*max=*/1e10);
  std::int64_t misses = 0;
  for (const auto& record : completions) {
    latency.add(sim_to_seconds(record.latency()));
    latency_hist.add(static_cast<double>(record.latency()));
    if (!record.cache_hit) ++misses;
  }

  ExperimentResult result;
  result.policy = cluster.engine().policy().name();
  result.working_set = workload.registry.size();
  result.requests = completions.size();
  result.avg_latency_s = latency.mean();
  result.latency_variance_s2 = latency.sample_variance();
  result.p50_latency_s = latency_hist.p50() / 1e6;
  result.p95_latency_s = latency_hist.p95() / 1e6;
  result.p99_latency_s = latency_hist.p99() / 1e6;
  result.miss_ratio =
      static_cast<double>(misses) / static_cast<double>(completions.size());
  result.false_miss_ratio = static_cast<double>(cluster.engine().false_misses()) /
                            static_cast<double>(completions.size());

  double util = 0;
  std::int64_t evictions = 0, loads = 0;
  for (std::size_t g = 0; g < cluster.gpu_count(); ++g) {
    util += cluster.gpu(g).sm_utilization(makespan);
    evictions += cluster.gpu(g).counters().evictions;
    loads += cluster.gpu(g).counters().loads;
  }
  result.sm_utilization = util / static_cast<double>(cluster.gpu_count());
  result.evictions = evictions;
  result.model_loads = loads;
  result.avg_top_duplicates = cluster.engine().average_top_duplicates(makespan);
  result.makespan_s = sim_to_seconds(makespan);
  if (completions_out != nullptr) *completions_out = completions;
  return result;
}

}  // namespace

SimCluster::SimCluster(const ClusterConfig& config,
                       const models::ModelRegistry& registry)
    : ElasticCluster(std::make_unique<sim::Simulator>(), config, registry) {}

SimTime SimCluster::finish_replay() {
  simulator().run();
  GFAAS_CHECK(engine().pending() == 0)
      << engine().pending() << " requests stranded after replay";
  SimTime makespan = 0;
  for (const auto& record : engine().completions()) {
    makespan = std::max(makespan, record.completed);
  }
  return makespan;
}

SimTime SimCluster::replay(const std::vector<core::Request>& requests) {
  return replay(requests,
                [this](core::Request req) { engine().submit(std::move(req)); });
}

SimTime SimCluster::replay(const std::vector<core::Request>& requests,
                           const std::function<void(core::Request)>& submit) {
  for (const core::Request& req : requests) {
    simulator().schedule_at(req.arrival, [&submit, req]() { submit(req); });
  }
  return finish_replay();
}

SimTime SimCluster::replay_batched(
    const std::vector<core::Request>& requests,
    const std::function<void(std::vector<core::Request>)>& submit) {
  std::size_t i = 0;
  while (i < requests.size()) {
    std::size_t j = i + 1;
    while (j < requests.size() && requests[j].arrival == requests[i].arrival) {
      ++j;
    }
    std::vector<core::Request> burst(requests.begin() + i, requests.begin() + j);
    simulator().schedule_at(
        requests[i].arrival,
        [&submit, burst = std::move(burst)]() mutable { submit(std::move(burst)); });
    i = j;
  }
  return finish_replay();
}

ExperimentResult run_experiment(const ClusterConfig& config,
                                const trace::Workload& workload,
                                std::vector<core::CompletionRecord>* completions_out,
                                const IngestFactory& ingest) {
  SimCluster cluster(config, workload.registry);
  cluster.engine().track_duplicates_of(workload.top_model);

  const SimTime makespan =
      ingest ? cluster.replay(workload.requests, ingest(cluster))
             : cluster.replay(workload.requests);
  return aggregate_result(cluster, workload, makespan, completions_out);
}

ExperimentResult run_experiment_batched(
    const ClusterConfig& config, const trace::Workload& workload,
    std::vector<core::CompletionRecord>* completions_out,
    const BatchIngestFactory& ingest) {
  GFAAS_CHECK(ingest != nullptr);
  SimCluster cluster(config, workload.registry);
  cluster.engine().track_duplicates_of(workload.top_model);

  const SimTime makespan =
      cluster.replay_batched(workload.requests, ingest(cluster));
  return aggregate_result(cluster, workload, makespan, completions_out);
}

}  // namespace gfaas::cluster
