// Sharded-tier scaling bench (the ISSUE 10 acceptance gate).
//
// Sweeps shard counts (default 1 / 4 / 16) over one large fleet and one
// large workload (defaults: 1024 GPUs, 1.2M requests), replaying the
// IDENTICAL request stream through shard::run_sharded_experiment each
// time. Reported per row: aggregate throughput, the wall-clock
// decomposition behind it, latency percentiles, steal activity, and the
// shed rate (identically zero here — direct engine ingestion never
// sheds — so rows are compared at equal shed rates by construction).
//
// Throughput uses the critical-path model: an epoch costs its SLOWEST
// shard's measured wall time (what the epoch costs when every shard has
// its own core — shards share nothing mid-epoch, so they are perfectly
// parallel by construction), plus the orchestrator's serial routing /
// injection / steal work between barriers. That makes the metric a
// property of the partitioning, not of how many cores this host happens
// to have:
//
//   throughput(N) = requests / (critical_path_s(N) + serial_s(N))
//
// Sharding wins twice over: each shard sees ~1/N of the requests AND
// scans an ~1/N-size GPU partition per scheduling decision, so per-shard
// work shrinks superlinearly while the model-affinity router keeps each
// model's warm copies on one shard (cache behavior survives the split).
//
// Acceptance (non-zero exit on miss):
//   * throughput(4)  >= --floor4  (default 2.5) x throughput(1);
//   * throughput(16) >= --floor16 (default 6.0) x throughput(1);
//   * p99 holds at matched per-shard load: for every N > 1, p99 with the
//     steal balancer on <= --p99-slack (default 1.10) x p99 of the SAME
//     partitioning with stealing off (each partition as its own
//     single-shard cluster at the identical per-shard load — the tier
//     must not cost latency over independent shards; in practice
//     stealing improves it severalfold). p99 vs the monolithic 1-shard
//     pool is reported for reference but not gated: a 1/N partition has
//     1/N of the statistical multiplexing, which is the price already
//     accepted by partitioning, not a property of this tier.
//   * every row completes every request (zero shed at every N).
//
// Wall-clock rows take the min over --reps (default 3) repetitions —
// the sim results are bit-identical across reps; only the wall-clock
// measurement varies, and min is its low-noise estimator.
//
// --json PATH writes the machine-readable rows, headed by the build
// type, `nproc` and the exact command line (default: none; the committed
// record is BENCH_sharded_scale.json); CI smoke-runs this bench on a
// reduced fleet (see ci.yml).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/log.h"
#include "shard/experiment.h"
#include "trace/workload.h"

namespace gfaas::bench {
namespace {

struct Options {
  std::vector<int> shard_counts = {1, 4, 16};
  int gpus = 1024;
  std::size_t working_set = 256;
  // ~75% fleet utilization at 1024 GPUs (Table I batch-32 inference
  // times average ~1.28s/request -> ~0.78 req/s per GPU), 32 minutes ->
  // 1.056M requests.
  std::int64_t rpm = 33000;
  std::int64_t minutes = 32;
  std::int64_t epoch_ms = 500;
  int threads = 1;
  int reps = 3;
  double spread = 2.0;
  int virtual_nodes = 64;
  double floor4 = 2.5;
  double floor16 = 6.0;
  double p99_slack = 1.10;
  std::string json;
  std::string provenance;  // build, nproc and argv for the JSON record
};

struct Row {
  int shards = 0;
  double throughput_rps = 0;
  double critical_path_s = 0;
  double serial_s = 0;
  double total_work_s = 0;
  double p99_s = 0;
  double p99_nosteal_s = 0;
  double avg_latency_s = 0;
  double miss_ratio = 0;
  std::int64_t steals = 0;
  std::int64_t evacuations = 0;
  std::int64_t max_steal_hops = 0;
  std::size_t epochs = 0;
  std::size_t requests = 0;
  std::int64_t shed = 0;
};

Row run_row(const Options& options, const trace::Workload& workload, int shards,
            bool steal) {
  cluster::ClusterConfig config;
  config.gpus_per_node = 4;
  config.nodes = (options.gpus + config.gpus_per_node - 1) / config.gpus_per_node;

  shard::ShardedOptions sopts;
  sopts.epoch = msec(options.epoch_ms);
  sopts.threads = options.threads;
  sopts.hot_model_spread = options.spread;
  sopts.router.virtual_nodes = options.virtual_nodes;
  sopts.steal.enabled = steal;

  std::vector<core::CompletionRecord> completions;
  const auto result = shard::run_sharded_experiment(
      config, static_cast<std::size_t>(shards), workload, sopts, &completions);

  Row row;
  row.shards = shards;
  row.requests = result.result.requests;
  row.miss_ratio = result.result.miss_ratio;
  for (const auto& record : completions) {
    row.max_steal_hops =
        std::max(row.max_steal_hops, static_cast<std::int64_t>(record.steal_hops));
  }
  // Direct engine ingestion queues everything; nothing sheds. The row
  // still reports it so the equal-shed-rate comparison is explicit.
  row.shed = static_cast<std::int64_t>(workload.requests.size()) -
             static_cast<std::int64_t>(result.result.requests);
  row.critical_path_s = static_cast<double>(result.stats.critical_path_ns) / 1e9;
  row.serial_s = static_cast<double>(result.stats.serial_ns) / 1e9;
  row.total_work_s = static_cast<double>(result.stats.total_work_ns) / 1e9;
  row.throughput_rps = static_cast<double>(row.requests) /
                       (row.critical_path_s + row.serial_s);
  row.p99_s = result.result.p99_latency_s;
  row.avg_latency_s = result.result.avg_latency_s;
  row.steals = result.stats.steals;
  row.evacuations = result.stats.evacuations;
  row.epochs = result.stats.epochs;
  return row;
}

void print_row(const Row& row) {
  std::printf(
      "shards=%d requests=%zu throughput_rps=%.0f critical_path_s=%.3f "
      "serial_s=%.3f total_work_s=%.3f p99_s=%.4f p99_nosteal_s=%.4f "
      "avg_s=%.4f miss=%.4f "
      "steals=%lld max_hops=%lld evacuations=%lld epochs=%zu shed=%lld\n",
      row.shards, row.requests, row.throughput_rps, row.critical_path_s,
      row.serial_s, row.total_work_s, row.p99_s, row.p99_nosteal_s,
      row.avg_latency_s,
      row.miss_ratio, static_cast<long long>(row.steals),
      static_cast<long long>(row.max_steal_hops),
      static_cast<long long>(row.evacuations), row.epochs,
      static_cast<long long>(row.shed));
}

int run(const Options& options) {
  trace::WorkloadConfig wconfig;
  wconfig.working_set_size = options.working_set;
  wconfig.window_minutes = options.minutes;
  wconfig.requests_per_minute = options.rpm;
  auto workload = trace::build_standard_workload(wconfig);
  GFAAS_CHECK(workload.ok()) << workload.status().to_string();
  std::printf("fleet=%d gpus, workload=%zu requests, working_set=%zu, "
              "epoch_ms=%lld, threads=%d\n",
              options.gpus, workload->requests.size(), options.working_set,
              static_cast<long long>(options.epoch_ms), options.threads);

  std::vector<Row> rows;
  for (int shards : options.shard_counts) {
    Row row = run_row(options, *workload, shards, true);
    for (int rep = 1; rep < options.reps; ++rep) {
      const Row again = run_row(options, *workload, shards, true);
      if (again.critical_path_s + again.serial_s <
          row.critical_path_s + row.serial_s) {
        row.critical_path_s = again.critical_path_s;
        row.serial_s = again.serial_s;
        row.total_work_s = again.total_work_s;
        row.throughput_rps = again.throughput_rps;
      }
    }
    if (shards > 1) {
      // Matched per-shard load comparator: identical partitioning and
      // routing, no balancer — each partition is its own single-shard
      // cluster at the same per-shard load.
      const Row off = run_row(options, *workload, shards, false);
      row.p99_nosteal_s = off.p99_s;
    }
    rows.push_back(row);
    print_row(rows.back());
  }

  const Row* base = nullptr;
  for (const Row& row : rows) {
    if (row.shards == 1) base = &row;
  }
  GFAAS_CHECK(base != nullptr) << "the sweep must include the 1-shard baseline";

  int failures = 0;
  for (const Row& row : rows) {
    if (row.shed != 0) {
      std::printf("FAIL shards=%d shed %lld requests (rows must compare at "
                  "equal shed rates)\n",
                  row.shards, static_cast<long long>(row.shed));
      ++failures;
    }
    if (row.shards != 1) {
      // The gated p99 comparison: the tier (balancer on) vs independent
      // partitions at matched per-shard load (balancer off).
      if (row.p99_s > row.p99_nosteal_s * options.p99_slack) {
        std::printf(
            "FAIL shards=%d p99 %.4fs exceeds %.2f x %.4fs (same partitions, "
            "steal off)\n",
            row.shards, row.p99_s, options.p99_slack, row.p99_nosteal_s);
        ++failures;
      }
      std::printf("shards=%d p99 vs monolithic 1-shard pool: %.4fs vs %.4fs "
                  "(informational)\n",
                  row.shards, row.p99_s, base->p99_s);
    }
    double floor = 0;
    if (row.shards == 4) floor = options.floor4;
    if (row.shards == 16) floor = options.floor16;
    const double speedup = row.throughput_rps / base->throughput_rps;
    if (row.shards != 1) {
      std::printf("shards=%d speedup=%.2fx%s\n", row.shards, speedup,
                  floor > 0 ? "" : " (informational)");
    }
    if (floor > 0 && speedup < floor) {
      std::printf("FAIL shards=%d speedup %.2fx below floor %.2fx\n",
                  row.shards, speedup, floor);
      ++failures;
    }
  }

  if (!options.json.empty()) {
    FILE* out = std::fopen(options.json.c_str(), "w");
    GFAAS_CHECK(out != nullptr) << "cannot write " << options.json;
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"sharded_scale\",\n"
                 "  %s,\n"
                 "  \"gpus\": %d,\n"
                 "  \"requests\": %zu,\n"
                 "  \"working_set\": %zu,\n"
                 "  \"epoch_ms\": %lld,\n"
                 "  \"rows\": [\n",
                 options.provenance.c_str(), options.gpus,
                 workload->requests.size(), options.working_set,
                 static_cast<long long>(options.epoch_ms));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      std::fprintf(out,
                   "    {\"shards\": %d, \"throughput_rps\": %.1f, "
                   "\"speedup\": %.3f, \"critical_path_s\": %.4f, "
                   "\"serial_s\": %.4f, \"total_work_s\": %.4f, "
                   "\"p99_s\": %.5f, \"p99_nosteal_s\": %.5f, "
                   "\"avg_latency_s\": %.5f, "
                   "\"miss_ratio\": %.5f, \"steals\": %lld, "
                   "\"max_steal_hops\": %lld, \"evacuations\": %lld, "
                   "\"epochs\": %zu, \"shed\": %lld}%s\n",
                   row.shards, row.throughput_rps,
                   row.throughput_rps / base->throughput_rps,
                   row.critical_path_s, row.serial_s, row.total_work_s,
                   row.p99_s, row.p99_nosteal_s, row.avg_latency_s,
                   row.miss_ratio,
                   static_cast<long long>(row.steals),
                   static_cast<long long>(row.max_steal_hops),
                   static_cast<long long>(row.evacuations), row.epochs,
                   static_cast<long long>(row.shed),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out,
                 "  ],\n"
                 "  \"floor4\": %.2f,\n"
                 "  \"floor16\": %.2f,\n"
                 "  \"p99_slack\": %.2f,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 options.floor4, options.floor16, options.p99_slack,
                 failures == 0 ? "true" : "false");
    std::fclose(out);
  }

  std::printf("ACCEPT -> %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gfaas::bench

int main(int argc, char** argv) {
  gfaas::bench::Options options;
  options.provenance = gfaas::bench::provenance_json(argc, argv);
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      GFAAS_CHECK(i + 1 < argc) << flag << " needs a value";
      return argv[++i];
    };
    if (const char* v = value("--shards")) {
      options.shard_counts.clear();
      std::string list(v);
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        options.shard_counts.push_back(
            std::atoi(list.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
      }
    } else if (const char* v = value("--gpus")) {
      options.gpus = std::atoi(v);
    } else if (const char* v = value("--working-set")) {
      options.working_set = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--rpm")) {
      options.rpm = std::atoll(v);
    } else if (const char* v = value("--minutes")) {
      options.minutes = std::atoll(v);
    } else if (const char* v = value("--epoch-ms")) {
      options.epoch_ms = std::atoll(v);
    } else if (const char* v = value("--threads")) {
      options.threads = std::atoi(v);
    } else if (const char* v = value("--reps")) {
      options.reps = std::atoi(v);
    } else if (const char* v = value("--spread")) {
      options.spread = std::atof(v);
    } else if (const char* v = value("--vnodes")) {
      options.virtual_nodes = std::atoi(v);
    } else if (const char* v = value("--floor4")) {
      options.floor4 = std::atof(v);
    } else if (const char* v = value("--floor16")) {
      options.floor16 = std::atof(v);
    } else if (const char* v = value("--p99-slack")) {
      options.p99_slack = std::atof(v);
    } else if (const char* v = value("--json")) {
      options.json = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  return gfaas::bench::run(options);
}
