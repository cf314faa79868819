// Azure trace replay: the paper's full evaluation scenario as a single
// runnable program. Synthesizes (or loads) an Azure-schema function
// trace, builds the normalized 6-minute / 325-requests-per-minute
// workload over the top-K functions, replays it on the 12-GPU cluster
// with the LALB+O3 scheduler, and prints a per-minute progress report
// plus the final evaluation metrics.
//
//   ./example_azure_replay [working_set] [o3_limit] [trace.csv]
//
// Exits non-zero unless the per-minute table accounts for every completion.
//
// Passing a real "trace.csv" in the Azure schema (rows = functions,
// columns = per-minute invocation counts) reproduces the paper's exact
// pipeline on the genuine trace.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "cluster/experiment.h"
#include "metrics/reporter.h"
#include "trace/workload.h"

using namespace gfaas;

int main(int argc, char** argv) {
  const std::size_t working_set =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 35;
  const int o3_limit = argc > 2 ? std::atoi(argv[2]) : 25;

  trace::WorkloadConfig wconfig;
  wconfig.working_set_size = working_set;

  StatusOr<trace::Workload> workload = Status::Internal("unset");
  if (argc > 3) {
    std::ifstream file(argv[3]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[3]);
      return 1;
    }
    auto trace = trace::read_trace_csv(file);
    if (!trace.ok()) {
      std::fprintf(stderr, "trace parse: %s\n", trace.status().to_string().c_str());
      return 1;
    }
    std::printf("loaded Azure trace: %zu functions, %lld minutes\n",
                trace->rows.size(), static_cast<long long>(trace->minutes));
    workload = trace::build_workload(*trace, wconfig);
  } else {
    std::printf("synthesizing calibrated Azure-like trace (top-15 ~ 56%%)\n");
    workload = trace::build_standard_workload(wconfig);
  }
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n", workload.status().to_string().c_str());
    return 1;
  }
  std::printf("workload: %zu requests over 6 minutes, working set %zu models, "
              "top model '%s' (%lld invocations)\n\n",
              workload->requests.size(), working_set,
              workload->registry.get(workload->top_model)->name.c_str(),
              static_cast<long long>(workload->invocations_of_top_model));

  cluster::ClusterConfig config;
  config.policy = o3_limit > 0 ? core::PolicyName::kLalbO3 : core::PolicyName::kLalb;
  config.o3_limit = o3_limit;
  cluster::SimCluster cluster(config, workload->registry);
  cluster.engine().track_duplicates_of(workload->top_model);

  // Per-minute progress reporting from inside the simulation.
  for (int minute = 1; minute <= 6; ++minute) {
    cluster.simulator().schedule_at(minutes(minute), [&cluster, minute] {
      std::printf("  [t=%dmin] completed=%zu  hit/miss so far: %lld/%lld\n", minute,
                  cluster.engine().completions().size(),
                  static_cast<long long>(cluster.cache().stats().hits),
                  static_cast<long long>(cluster.cache().stats().misses));
    });
  }

  const SimTime makespan = cluster.replay(workload->requests);

  metrics::StreamingStats latency;
  for (const auto& record : cluster.engine().completions()) {
    latency.add(sim_to_seconds(record.latency()));
  }
  std::printf("\n=== results (%s, O3 limit %d) ===\n",
              cluster.engine().policy().name().c_str(), o3_limit);
  std::printf("  requests completed:   %zu\n", cluster.engine().completions().size());
  std::printf("  makespan:             %.1f s\n", sim_to_seconds(makespan));
  std::printf("  average latency:      %.2f s (min %.2f, max %.2f)\n", latency.mean(),
              latency.min(), latency.max());
  std::printf("  cache miss ratio:     %.1f%%\n",
              cluster.cache().stats().miss_ratio() * 100);
  std::printf("  false misses:         %lld\n",
              static_cast<long long>(cluster.engine().false_misses()));
  std::printf("  top-model duplicates: %.2f (of %zu GPUs)\n",
              cluster.engine().average_top_duplicates(makespan), cluster.gpu_count());
  double util = 0;
  for (std::size_t g = 0; g < cluster.gpu_count(); ++g) {
    util += cluster.gpu(g).sm_utilization(makespan);
  }
  std::printf("  avg SM utilization:   %.1f%%\n",
              util / static_cast<double>(cluster.gpu_count()) * 100);

  // Per-minute series, bucketed by completion time.
  std::vector<metrics::StreamingStats> minute_latency;
  std::vector<std::int64_t> minute_misses;
  for (const auto& record : cluster.engine().completions()) {
    const auto minute = static_cast<std::size_t>(record.completed / minutes(1));
    if (minute_latency.size() <= minute) {
      minute_latency.resize(minute + 1);
      minute_misses.resize(minute + 1);
    }
    minute_latency[minute].add(sim_to_seconds(record.latency()));
    if (!record.cache_hit) ++minute_misses[minute];
  }
  std::printf("\nper-minute series (completions bucketed by finish time):\n");
  std::printf("  minute  completions  avg latency(s)  misses\n");
  std::size_t bucketed = 0;
  for (std::size_t m = 0; m < minute_latency.size(); ++m) {
    std::printf("  %6zu  %11lld  %14.2f  %6lld\n", m,
                static_cast<long long>(minute_latency[m].count()),
                minute_latency[m].mean(), static_cast<long long>(minute_misses[m]));
    bucketed += static_cast<std::size_t>(minute_latency[m].count());
  }
  if (bucketed != cluster.engine().completions().size()) {
    std::fprintf(stderr, "per-minute series holds %zu of %zu completions\n", bucketed,
                 cluster.engine().completions().size());
    return 1;
  }
  return 0;
}
