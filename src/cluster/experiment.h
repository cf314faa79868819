// Experiment runner: assembles a full simulated cluster (Fig. 2), replays
// a workload through it, and aggregates the evaluation metrics the paper
// reports — average latency (+variance/percentiles), cache miss ratio,
// GPU SM utilization, false miss ratio, and the average duplicate count
// of the most popular model.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "cluster/elastic_cluster.h"
#include "cluster/engine.h"
#include "trace/workload.h"

namespace gfaas::cluster {

struct ExperimentResult {
  std::string policy;
  std::size_t working_set = 0;
  std::size_t requests = 0;

  double avg_latency_s = 0;
  double latency_variance_s2 = 0;
  double p50_latency_s = 0;
  double p95_latency_s = 0;
  double p99_latency_s = 0;

  double miss_ratio = 0;        // misses / requests (per-dispatch)
  double false_miss_ratio = 0;  // false misses / requests
  double sm_utilization = 0;    // mean over GPUs of time-weighted SM use
  double avg_top_duplicates = 0;

  std::int64_t evictions = 0;
  std::int64_t model_loads = 0;
  double makespan_s = 0;
};

// Ingestion seam: how requests enter the engine during a replayed run.
// The factory receives the assembled cluster and returns the per-request
// submission function. The default (null) submits straight into the
// engine; bench_seed_digest --via-gateway interposes gateway::Gateway
// here to prove the serving layer is behavior-preserving, and callers
// may interpose any other front end the same way.
using IngestFactory =
    std::function<std::function<void(core::Request)>(ElasticCluster&)>;

// Bulk twin of IngestFactory: the returned function receives a whole
// same-arrival burst at once, the shape the concurrent ingestion path
// delivers (ConcurrentIngress drains a backlog into one
// Gateway::submit_batch). bench_seed_digest --via-gateway --batch uses
// this to prove bulk admission is decision-identical to per-request
// admission.
using BatchIngestFactory = std::function<std::function<void(
    std::vector<core::Request>)>(ElasticCluster&)>;

// Runs one experiment (deterministic for a given config + workload).
// `completions`, when non-null, receives the full completion-record
// stream (bench_seed_digest hashes it without a second simulation).
ExperimentResult run_experiment(
    const ClusterConfig& config, const trace::Workload& workload,
    std::vector<core::CompletionRecord>* completions = nullptr,
    const IngestFactory& ingest = nullptr);

// run_experiment with bulk ingestion: consecutive same-arrival requests
// enter as one burst through `ingest` (required). Metrics are aggregated
// identically to run_experiment.
ExperimentResult run_experiment_batched(
    const ClusterConfig& config, const trace::Workload& workload,
    std::vector<core::CompletionRecord>* completions,
    const BatchIngestFactory& ingest);

// The evaluation-mode ElasticCluster: the full stack on the discrete-event
// simulator, for callers that drive the simulation themselves (examples,
// integration tests, the Gateway backend). cluster::RealTimeCluster is the
// deployment-mode twin.
class SimCluster final : public ElasticCluster {
 public:
  SimCluster(const ClusterConfig& config, const models::ModelRegistry& registry);

  sim::Simulator& simulator() { return static_cast<sim::Simulator&>(executor()); }

  // Schedules all requests at their arrival times and runs to completion.
  // Returns the makespan (time of last completion). `submit`, when given,
  // replaces direct engine submission (the ingestion seam above).
  SimTime replay(const std::vector<core::Request>& requests);
  SimTime replay(const std::vector<core::Request>& requests,
                 const std::function<void(core::Request)>& submit);

  // Bulk replay: consecutive requests sharing an arrival time are handed
  // to `submit` as one burst in a single simulator event. Because every
  // submission event is scheduled upfront (lowest sequence numbers),
  // same-time submissions already fire back-to-back before any same-time
  // completion — so grouping them preserves engine behavior exactly;
  // only the ingestion call shape changes.
  SimTime replay_batched(
      const std::vector<core::Request>& requests,
      const std::function<void(std::vector<core::Request>)>& submit);

  void run_to_completion() override { simulator().run(); }

 private:
  // Runs the scheduled replay to the end and returns its makespan.
  SimTime finish_replay();
};

// The evaluation metrics of a finished replay over one or more cells: a
// direct run is one cell, a sharded run its shards in shard order.
// Completion streams fold in cell order, the makespan is their last
// completion, and `tracker` is the engine tracking the workload's top
// model for the duplicate meter. `completions`, when non-null, receives
// the concatenated stream. Audits each cell's engine and cache first
// (SchedulerEngine::audit), and dies unless every workload request
// completed.
ExperimentResult aggregate_result(
    const std::vector<SimCluster*>& cells, const SchedulerEngine& tracker,
    const trace::Workload& workload,
    std::vector<core::CompletionRecord>* completions = nullptr);

}  // namespace gfaas::cluster
