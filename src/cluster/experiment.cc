#include "cluster/experiment.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/log.h"
#include "metrics/stats.h"

namespace gfaas::cluster {
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
    simulator().schedule_at(req.arrival, [&submit, &req]() { submit(req); });
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

ExperimentResult aggregate_result(
    const std::vector<SimCluster*>& cells, const SchedulerEngine& tracker,
    const trace::Workload& workload,
    std::vector<core::CompletionRecord>* completions_out) {
  GFAAS_CHECK(!cells.empty());
  std::size_t requests = 0;
  SimTime makespan = 0;
  metrics::StreamingStats latency;
  metrics::Histogram latency_hist(/*min=*/100.0, /*max=*/1e10);
  std::int64_t misses = 0, false_misses = 0;
  if (completions_out != nullptr) completions_out->clear();
  for (SimCluster* cell : cells) {
    cell->engine().audit();
    const auto& completions = cell->engine().completions();
    if (completions_out != nullptr) {
      completions_out->insert(completions_out->end(), completions.begin(),
                              completions.end());
    }
    for (const auto& record : completions) {
      makespan = std::max(makespan, record.completed);
      latency.add(sim_to_seconds(record.latency()));
      latency_hist.add(static_cast<double>(record.latency()));
      if (!record.cache_hit) ++misses;
    }
    requests += completions.size();
    false_misses += cell->engine().false_misses();
  }
  GFAAS_CHECK(requests == workload.requests.size())
      << requests << " completions for " << workload.requests.size()
      << " requests";

  ExperimentResult result;
  result.policy = cells.front()->engine().policy().name();
  result.working_set = workload.registry.size();
  result.requests = requests;
  result.avg_latency_s = latency.mean();
  result.latency_variance_s2 = latency.sample_variance();
  result.p50_latency_s = latency_hist.p50() / 1e6;
  result.p95_latency_s = latency_hist.p95() / 1e6;
  result.p99_latency_s = latency_hist.p99() / 1e6;
  result.miss_ratio =
      static_cast<double>(misses) / static_cast<double>(requests);
  result.false_miss_ratio =
      static_cast<double>(false_misses) / static_cast<double>(requests);

  double util = 0;
  std::int64_t evictions = 0, loads = 0;
  std::size_t gpu_count = 0;
  for (SimCluster* cell : cells) {
    for (std::size_t g = 0; g < cell->gpu_count(); ++g) {
      util += cell->gpu(g).sm_utilization(makespan);
      evictions += cell->gpu(g).counters().evictions;
      loads += cell->gpu(g).counters().loads;
    }
    gpu_count += cell->gpu_count();
  }
  result.sm_utilization = util / static_cast<double>(gpu_count);
  result.evictions = evictions;
  result.model_loads = loads;
  result.avg_top_duplicates = tracker.average_top_duplicates(makespan);
  result.makespan_s = sim_to_seconds(makespan);
  return result;
}

ExperimentResult run_experiment(const ClusterConfig& config,
                                const trace::Workload& workload,
                                std::vector<core::CompletionRecord>* completions_out,
                                const IngestFactory& ingest) {
  SimCluster cluster(config, workload.registry);
  cluster.engine().track_duplicates_of(workload.top_model);

  if (ingest) {
    cluster.replay(workload.requests, ingest(cluster));
  } else {
    cluster.replay(workload.requests);
  }
  return aggregate_result({&cluster}, cluster.engine(), workload,
                          completions_out);
}

ExperimentResult run_experiment_batched(
    const ClusterConfig& config, const trace::Workload& workload,
    std::vector<core::CompletionRecord>* completions_out,
    const BatchIngestFactory& ingest) {
  GFAAS_CHECK(ingest != nullptr);
  SimCluster cluster(config, workload.registry);
  cluster.engine().track_duplicates_of(workload.top_model);

  cluster.replay_batched(workload.requests, ingest(cluster));
  return aggregate_result({&cluster}, cluster.engine(), workload,
                          completions_out);
}

}  // namespace gfaas::cluster
