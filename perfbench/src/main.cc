// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// Workloads: paper-testbed, fleet-256, fleet-sharded and gateway-replay,
// all simulated-fleet replays. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics;
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// A failed output check prints the result with "correct": false and
// exits 1.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "alloc_count.h"
#include "common/log.h"
#include "harness.h"
#include "stats.h"

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"throughput_rps", "req/s"},
    {"cpu_us_per_req", "us"},
    {"allocs_per_req", "count"},
    {"peak_rss_mb", "MB"},
    {"sim_latency_p50_s", "sim_s"},
    {"sim_latency_p99_s", "sim_s"},
    {"slo_attainment", "ratio"},
    {"capacity_rpm", "req/min"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"trace.build_s", "s"},
    {"cluster.assembly_s", "s"},
    {"cluster.submit_ns", "ns"},
    {"cluster.complete_ns", "ns"},
    {"cluster.allocs_submit_per_req", "count"},
    {"cluster.allocs_complete_per_req", "count"},
    {"sim.events_per_req", "count"},
    {"core.policy_ns", "ns"},
    {"core.policy_calls_per_req", "count"},
    {"core.queue_len_mean", "count"},
    {"core.wait_p50_s", "sim_s"},
    {"core.wait_p99_s", "sim_s"},
    {"core.local_queue_share", "ratio"},
    {"cache.miss_ratio", "ratio"},
    {"cache.false_miss_ratio", "ratio"},
    {"cache.evictions_per_kreq", "count"},
    {"cache.top_duplicates", "count"},
    {"gpu.model_loads_per_kreq", "count"},
    {"gpu.sm_utilization", "ratio"},
    {"gpu.exec_s_mean", "sim_s"},
    {"datastore.revisions_per_req", "count"},
    {"datastore.keys", "count"},
    {"shard.serial_s", "s"},
    {"shard.critical_path_s", "s"},
    {"shard.work_s", "s"},
    {"shard.imbalance", "ratio"},
    {"shard.steals_per_kreq", "count"},
    {"shard.epochs", "count"},
    {"shard.wall_over_model", "ratio"},
    {"concurrent.enqueue_ns_p50", "ns"},
    {"gateway.batch_mean", "count"},
    {"gateway.shed", "count"},
    {"gateway.expired", "count"},
    {"bench.trace_overhead", "ratio"},
    {"bench.trace_coverage", "ratio"},
};

gfaas::trace::Workload build_input(std::uint64_t seed, std::int64_t rpm,
                                   std::int64_t window_minutes) {
  gfaas::trace::WorkloadConfig config;
  config.working_set_size = kWorkingSet;
  config.window_minutes = window_minutes;
  config.requests_per_minute = rpm;
  config.seed = seed;
  auto workload = gfaas::trace::build_standard_workload(config, kTraceSeed);
  GFAAS_CHECK(workload.ok()) << workload.status().to_string();
  return std::move(workload).value();
}

gfaas::cluster::ClusterConfig fleet(int nodes, int gpus_per_node) {
  gfaas::cluster::ClusterConfig config;  // RTX 2080, shared PCIe, LALB+O3 (25)
  config.nodes = nodes;
  config.gpus_per_node = gpus_per_node;
  return config;
}

gfaas::gateway::GatewayConfig serving_gateway_config() {
  gfaas::gateway::GatewayConfig config;
  config.max_in_flight = 256;
  config.default_slo = 0;
  return config;
}

double wall_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {
volatile std::uint64_t g_probe_sink;
}  // namespace

double probe_clock_hz() {
  constexpr int kIterations = 1 << 20;
  constexpr double kOpsPerIteration = 6;  // three shift-xor pairs, each serial
  std::uint64_t x = 88172645463325252ull;
  const double t0 = wall_s();
  for (int i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double t = wall_s() - t0;
  g_probe_sink = x;
  return kOpsPerIteration * kIterations / t;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int host_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::vector<int> usable_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

void pin_to(const std::vector<int>& cpus) {
  const std::vector<int>& chosen = cpus.empty() ? usable_cpus() : cpus;
  if (chosen.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : chosen) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

std::vector<int> rotation(std::size_t k) {
  const std::vector<int> cpus = usable_cpus();
  if (cpus.size() < 2) return cpus;
  return {cpus[k % cpus.size()]};
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <paper-testbed|fleet-256|"
               "fleet-sharded|gateway-replay> --seed <n> --seconds <s> "
               "--trace <0|1>\n"
               "       perfbench --self-test\n",
               why);
  return 2;
}

void print_result(const RunResult& result, bool trace) {
  const std::vector<MetricSpec>& specs = trace ? kPerLayerMetrics : kEndToEndMetrics;
  std::map<std::string, double> values(result.values.begin(), result.values.end());
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    GFAAS_CHECK(it != values.end()) << "metric " << spec.name << " not measured";
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, it->second, spec.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  set_alloc_phase(AllocPhase::kOther);
  usable_cpus();  // record the starting set before anything pins
  RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false, only_self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      only_self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0 &&
                     options.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.trace = std::strcmp(value, "1") == 0;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  const std::vector<std::string> failures = self_test();
  for (const std::string& f : failures) std::fprintf(stderr, "self-test: %s\n", f.c_str());
  if (!failures.empty()) return 3;
  if (only_self_test) {
    std::printf("perfbench self-test: ok\n");
    return 0;
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (options.workload != "paper-testbed" && options.workload != "fleet-256" &&
      options.workload != "fleet-sharded" && options.workload != "gateway-replay") {
    return usage(("unknown workload " + options.workload).c_str());
  }

  std::printf("# perfbench build=%s compiler=\"%s\" nproc=%d workload=%s seed=%llu "
              "seconds=%g trace=%d\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, host_cpus(),
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::fflush(stdout);

  const RunResult result = run_sim_workload(options);
  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  for (const std::string& error : result.errors) {
    std::printf("# CHECK FAILED: %s\n", error.c_str());
  }
  print_result(result, options.trace);
  return result.correct ? 0 : 1;
}
