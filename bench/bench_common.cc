#include "bench_common.h"

#include <sched.h>

#include <algorithm>
#include <thread>

#include "common/log.h"
#include "telemetry/exporter.h"

namespace gfaas::bench {

std::vector<GridCell> run_grid(const GridOptions& options) {
  std::vector<GridCell> grid;
  for (std::size_t ws : options.working_sets) {
    trace::WorkloadConfig wconfig;
    wconfig.working_set_size = ws;
    wconfig.seed = options.workload_seed;
    auto workload = trace::build_standard_workload(wconfig, options.trace_seed);
    GFAAS_CHECK(workload.ok()) << workload.status().to_string();
    for (core::PolicyName policy : options.policies) {
      cluster::ClusterConfig config;
      config.policy = policy;
      config.o3_limit = options.o3_limit;
      config.cache_policy = options.cache_policy;
      GridCell cell;
      cell.working_set = ws;
      cell.policy = policy;
      cell.result = cluster::run_experiment(config, *workload);
      grid.push_back(std::move(cell));
    }
  }
  return grid;
}

const cluster::ExperimentResult& cell(const std::vector<GridCell>& grid,
                                      std::size_t working_set,
                                      core::PolicyName policy) {
  for (const GridCell& c : grid) {
    if (c.working_set == working_set && c.policy == policy) return c.result;
  }
  GFAAS_CHECK(false) << "missing grid cell";
  __builtin_unreachable();
}

double reduction_vs_lb(const std::vector<GridCell>& grid, std::size_t working_set,
                       core::PolicyName policy,
                       double (*metric)(const cluster::ExperimentResult&)) {
  const double lb = metric(cell(grid, working_set, core::PolicyName::kLb));
  const double v = metric(cell(grid, working_set, policy));
  return lb > 0 ? (lb - v) / lb : 0.0;
}

double metric_latency(const cluster::ExperimentResult& r) { return r.avg_latency_s; }
double metric_miss_ratio(const cluster::ExperimentResult& r) { return r.miss_ratio; }
double metric_false_miss(const cluster::ExperimentResult& r) {
  return r.false_miss_ratio;
}
double metric_sm_util(const cluster::ExperimentResult& r) { return r.sm_utilization; }
double metric_duplicates(const cluster::ExperimentResult& r) {
  return r.avg_top_duplicates;
}

std::string policy_label(core::PolicyName policy) {
  return core::policy_display_name(policy);
}

std::vector<double> sorted_latencies_s(const cluster::SchedulerEngine& engine) {
  std::vector<double> latencies;
  latencies.reserve(engine.completions().size());
  for (const auto& record : engine.completions()) {
    latencies.push_back(sim_to_seconds(record.latency()));
  }
  std::sort(latencies.begin(), latencies.end());
  return latencies;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank =
      static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

std::string provenance_json(int argc, char** argv) {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                        ? CPU_COUNT(&cpus)
                        : static_cast<int>(std::thread::hardware_concurrency());
  std::string out = "\"build_type\": \"" + telemetry::json_escape(LALB_BUILD_TYPE) +
                    "\",\n  \"nproc\": " + std::to_string(nproc) + ",\n  \"command\": [";
  for (int i = 0; i < argc; ++i) {
    if (i > 0) out += ", ";
    out += "\"" + telemetry::json_escape(argv[i]) + "\"";
  }
  return out + "]";
}

}  // namespace gfaas::bench
