// Cluster-scale benchmark for the incremental scheduler indexes (§VI).
//
// Sweeps cluster size (default 8 -> 256 GPUs, 8 per node) under a fixed
// request volume (default 100k over a 6-minute arrival window) and
// reports, per point:
//   * simulator throughput (events/sec of wall time),
//   * the number of policy invocations and their mean wall-clock cost,
//   * the mean/max global-queue length observed at invocation time.
//
// Small clusters are massively oversubscribed (the queue grows to ~1e5)
// while large ones drain near-instantly, so one sweep spans three orders
// of magnitude of queue length. With the incrementally maintained indexes
// (ClusterStateIndex, the cache location index, the GlobalQueue iterators)
// the mean policy-invocation cost must grow sublinearly in the mean queue
// length: the O3 aging scan is amortized O(o3_limit) per request and every
// other policy probe is O(answer), not O(cluster) or O(queue).
//
// Usage:
//   bench_cluster_scale [--gpus 8,16,32,64,128,256] [--requests 100000]
//                       [--working-set 35] [--policy lb|lalb|lalbo3]
//                       [--o3-limit 25]
//
// The CI Release job smoke-runs `--gpus 8,136 --requests 5000` so the
// binary and the engine counters it depends on cannot rot, and so the
// scheduler's GPU bitsets run past one 64-bit word (136 GPUs span three).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/experiment.h"
#include "common/log.h"
#include "metrics/reporter.h"
#include "metrics/stats.h"
#include "trace/workload.h"

using namespace gfaas;

namespace {

struct Options {
  std::vector<int> gpu_counts = {8, 16, 32, 64, 128, 256};
  std::int64_t requests = 100000;
  std::size_t working_set = 35;
  core::PolicyName policy = core::PolicyName::kLalbO3;
  int o3_limit = 25;
};

// Parses "8,16,32"; returns an empty list (an error to the caller) on any
// malformed token rather than silently truncating the sweep.
std::vector<int> parse_int_list(const char* arg) {
  std::vector<int> out;
  for (const char* p = arg; *p != '\0';) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p || v <= 0 || (*end != ',' && *end != '\0')) {
      std::fprintf(stderr, "malformed gpu list near '%s'\n", p);
      return {};
    }
    out.push_back(static_cast<int>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return out;
}

bool parse_args(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      GFAAS_CHECK(i + 1 < argc) << "missing value for " << flag;
      return argv[++i];
    };
    if (flag == "--gpus") {
      options->gpu_counts = parse_int_list(next());
    } else if (flag == "--requests") {
      options->requests = std::atoll(next());
    } else if (flag == "--working-set") {
      options->working_set = static_cast<std::size_t>(std::atoll(next()));
    } else if (flag == "--o3-limit") {
      options->o3_limit = std::atoi(next());
    } else if (flag == "--policy") {
      const std::string name = next();
      if (name == "lb") {
        options->policy = core::PolicyName::kLb;
      } else if (name == "lalb") {
        options->policy = core::PolicyName::kLalb;
      } else if (name == "lalbo3") {
        options->policy = core::PolicyName::kLalbO3;
      } else {
        std::fprintf(stderr, "unknown policy %s\n", name.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (options->gpu_counts.empty() || options->requests <= 0) return false;
  for (int gpus : options->gpu_counts) {
    // Clusters are built as nodes x 8 GPUs (or one smaller node), so a
    // count that does not decompose exactly would silently simulate a
    // smaller cluster than the row label claims. Reject it instead.
    if (gpus > 8 && gpus % 8 != 0) {
      std::fprintf(stderr, "--gpus values above 8 must be multiples of 8 (got %d)\n",
                   gpus);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, &options)) return 1;

  trace::WorkloadConfig wconfig;
  wconfig.working_set_size = options.working_set;
  wconfig.requests_per_minute =
      (options.requests + wconfig.window_minutes - 1) / wconfig.window_minutes;
  auto workload = trace::build_standard_workload(wconfig);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n", workload.status().to_string().c_str());
    return 1;
  }

  std::printf("=== Cluster scale: %lld requests, working set %zu, policy %s ===\n",
              static_cast<long long>(workload->requests.size()), options.working_set,
              core::policy_display_name(options.policy).c_str());
  metrics::Table table({"GPUs", "Wall(s)", "Events/s", "PolicyCalls", "MeanCost(us)",
                        "MeanQLen", "MaxQLen", "AvgLatency(s)", "Makespan(s)"});
  for (int gpus : options.gpu_counts) {
    cluster::ClusterConfig config;
    config.gpus_per_node = gpus < 8 ? gpus : 8;
    config.nodes = gpus / config.gpus_per_node;
    config.policy = options.policy;
    config.o3_limit = options.o3_limit;

    cluster::SimCluster cluster(config, workload->registry);
    const auto wall_start = std::chrono::steady_clock::now();
    const SimTime makespan = cluster.replay(workload->requests);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();

    const auto& engine = cluster.engine();
    const double events = static_cast<double>(cluster.simulator().events_executed());
    const double calls = static_cast<double>(engine.policy_invocations());
    const double mean_cost_us =
        calls > 0 ? static_cast<double>(engine.policy_wall_ns()) / calls / 1e3 : 0.0;
    const double mean_qlen =
        calls > 0 ? static_cast<double>(engine.policy_queue_len_sum()) / calls : 0.0;

    metrics::StreamingStats latency;
    for (const auto& record : engine.completions()) {
      latency.add(sim_to_seconds(record.latency()));
    }
    table.add_row({std::to_string(gpus), metrics::Table::fmt(wall_s),
                   metrics::Table::fmt(events / wall_s, 0), metrics::Table::fmt(calls, 0),
                   metrics::Table::fmt(mean_cost_us), metrics::Table::fmt(mean_qlen, 1),
                   std::to_string(engine.policy_queue_len_max()),
                   metrics::Table::fmt(latency.mean()),
                   metrics::Table::fmt(sim_to_seconds(makespan))});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expectation: MeanCost(us) stays within a small constant band while "
      "MeanQLen varies by orders of magnitude across the sweep — policy cost "
      "is bounded by cache contents and the O3 limit, not queue or cluster "
      "size.\n");
  return 0;
}
