// Telemetry overhead gate: the live-telemetry seam must be close to
// free when attached and exactly free when detached.
//
// Three acceptance phases, non-zero exit on any miss:
//
//   1. Throughput — the bench_ingest_throughput 8-producer MPSC path
//      (saturated admission window, frozen engine) is run plain vs
//      instrumented (Gateway + ConcurrentIngress telemetry attached),
//      interleaved best-of-N. The instrumented path must sustain at
//      least (1 - --max-regression) of the plain req/s (default 3%;
//      CI smoke relaxes to 5% with --max-regression 0.05).
//
//   2. Allocations — a global operator-new counter over the same
//      measured windows: the record path (counter bumps + sampled span
//      ring writes) must add ZERO heap allocations per request; all
//      telemetry allocation happens at wiring time.
//
//   3. Digest — one in-process grid slice (working set 15 x
//      LB/LALB/LALBO3, batched gateway ingestion) rendered to the
//      bench_seed_digest hexfloat + FNV-1a format, plain vs
//      telemetry-attached. The two strings must be byte-identical:
//      telemetry only observes, it never consumes RNG or reorders
//      events.
//
// Usage:
//   bench_telemetry_overhead [--requests 40000] [--producers 8]
//                            [--iters 3] [--max-regression 0.03]
//                            [--gpus 8] [--capacity 4096] [--models 3]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "cluster/experiment.h"
#include "cluster/realtime_cluster.h"
#include "common/log.h"
#include "concurrent/callback_executor.h"
#include "gateway/ingress.h"
#include "models/zoo.h"
#include "telemetry/telemetry.h"
#include "trace/workload.h"

// ---------------------------------------------------------------------------
// Global allocation counter: every heap allocation in the process bumps
// one relaxed atomic (same guard as bench_ingest_throughput).
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// malloc-backed replacement new + free-backed delete is correct, but
// GCC's -O2 call-site analysis models `new` as its builtin allocator and
// flags the inlined free() as mismatched. False positive; scoped off for
// this TU (same suppression as bench_ingest_throughput).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace gfaas::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::int64_t requests = 40000;
  int producers = 8;
  int iters = 3;
  double max_regression = 0.03;
  int gpus = 8;
  std::size_t capacity = 4096;
  int models = 3;
};

struct RunResult {
  double rps = 0;
  double allocs_per_req = 0;
};

core::Request make_request(std::int64_t id, std::int64_t model) {
  core::Request request;
  request.id = RequestId(id);
  request.function = FunctionId(id);
  request.model = ModelId(model);
  request.batch = 32;
  return request;
}

// One measured MPSC ingestion run — the bench_ingest_throughput
// saturated-window setup, with the telemetry seam optionally attached.
RunResult run_once(const Options& options, bool with_telemetry) {
  const std::int64_t total = options.requests;
  const int producers = options.producers;
  cluster::ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = (options.gpus + 1) / 2;
  config.policy = core::PolicyName::kLb;
  models::ModelRegistry registry;
  const auto& catalog = models::table1_catalog();
  GFAAS_CHECK(options.models <= static_cast<int>(catalog.size()));
  for (int m = 0; m < options.models; ++m) {
    GFAAS_CHECK(registry.register_model(catalog[static_cast<std::size_t>(m)]).ok());
  }

  auto cluster = std::make_unique<cluster::RealTimeCluster>(
      config, registry, /*time_scale=*/1.0);
  const int warm_count = 2 * options.gpus;
  gateway::GatewayConfig gconfig;
  gconfig.max_in_flight = static_cast<std::size_t>(warm_count);
  gconfig.max_pending = std::numeric_limits<std::size_t>::max();
  gconfig.default_slo = 0;  // no deadlines: nothing sheds or expires
  auto gateway = std::make_unique<gateway::Gateway>(cluster.get(), gconfig);
  auto callbacks = std::make_unique<concurrent::CallbackExecutor>();
  gateway->set_callback_executor(callbacks.get());
  auto ingress = std::make_unique<gateway::ConcurrentIngress>(
      gateway.get(), &cluster->executor(), options.capacity);
  auto tel = std::make_unique<telemetry::Telemetry>();
  if (with_telemetry) {
    gateway->set_telemetry(tel.get());
    ingress->set_telemetry(tel.get());
  }
  sim::Executor& executor = cluster->executor();
  gateway::ResultCallback on_done = [](const gateway::GatewayResult& result) {
    GFAAS_CHECK(result.disposition == gateway::Disposition::kCompleted);
  };

  auto on_worker = [&executor](auto fn) {
    using R = decltype(fn());
    std::promise<R> promise;
    auto future = promise.get_future();
    executor.post([&promise, &fn] { promise.set_value(fn()); });
    return future.get();
  };

  // Warmup: park multi-second model loads on every GPU and fill the
  // admission window, so every measured submission pays the full
  // shed-vs-queue ingestion path with frozen engine state.
  for (int g = 0; g < warm_count; ++g) {
    core::Request warm = make_request(total + g, g % options.models);
    executor.post([&gateway, warm = std::move(warm), on_done]() mutable {
      gateway->submit(std::move(warm), on_done);
    });
  }
  const std::size_t idle =
      on_worker([&cluster] { return cluster->engine().idle_gpu_count(); });
  GFAAS_CHECK(idle == 0) << idle << " GPUs still idle after warmup";
  const std::int64_t admitted =
      on_worker([&gateway] { return gateway->counters().admitted; });
  GFAAS_CHECK(admitted == warm_count)
      << "admission window not saturated: " << admitted << "/" << warm_count;

  // ---- measured window ----
  const std::int64_t per_producer = total / producers;
  const std::int64_t measured = per_producer * producers;
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      while (!start.load()) std::this_thread::yield();
      for (std::int64_t i = 0; i < per_producer; ++i) {
        const std::int64_t id = static_cast<std::int64_t>(p) * per_producer + i;
        gateway::Submission cell{make_request(id, id % options.models), on_done};
        while (!ingress->try_submit(cell)) std::this_thread::yield();
      }
    });
  }
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  const auto wall_start = Clock::now();
  start.store(true);
  for (auto& t : threads) t.join();
  std::int64_t submitted =
      on_worker([&gateway] { return gateway->counters().submitted; });
  while (submitted < measured + warm_count) {
    submitted = on_worker([&gateway] { return gateway->counters().submitted; });
  }
  const auto wall_end = Clock::now();
  const std::uint64_t allocs_after = g_allocs.load(std::memory_order_relaxed);

  RunResult result;
  const double elapsed_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.rps = static_cast<double>(measured) / elapsed_s;
  result.allocs_per_req = static_cast<double>(allocs_after - allocs_before) /
                          static_cast<double>(measured);
  if (with_telemetry) {
    GFAAS_CHECK(static_cast<std::int64_t>(
                    tel->metrics().snapshot().value("gateway.submitted")) ==
                measured + warm_count)
        << "telemetry lost submissions";
  }

  cluster.reset();
  ingress.reset();
  gateway.reset();
  callbacks.reset();
  return result;
}

// ---------------------------------------------------------------------------
// Digest phase: bench_seed_digest's per-cell rendering, in-process.
// ---------------------------------------------------------------------------

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t completion_digest(const std::vector<core::CompletionRecord>& records) {
  Fnv1a fnv;
  for (const auto& r : records) {
    fnv.add(static_cast<std::uint64_t>(r.id.value()));
    fnv.add(static_cast<std::uint64_t>(r.gpu.value()));
    fnv.add(static_cast<std::uint64_t>(r.arrival));
    fnv.add(static_cast<std::uint64_t>(r.dispatched));
    fnv.add(static_cast<std::uint64_t>(r.completed));
    fnv.add((r.cache_hit ? 1u : 0u) | (r.false_miss ? 2u : 0u) |
            (r.via_local_queue ? 4u : 0u));
  }
  return fnv.value();
}

cluster::BatchIngestFactory gateway_batch_ingest(bool with_telemetry) {
  return [with_telemetry](cluster::ElasticCluster& cluster) {
    gateway::GatewayConfig config;
    config.max_in_flight = std::numeric_limits<std::size_t>::max();
    config.default_slo = 0;
    auto gw = std::make_shared<gateway::Gateway>(&cluster, config);
    std::shared_ptr<telemetry::Telemetry> tel;
    if (with_telemetry) {
      tel = std::make_shared<telemetry::Telemetry>();
      gw->set_telemetry(tel.get());
    }
    return [gw, tel](std::vector<core::Request> burst) {
      std::vector<gateway::Submission> cells;
      cells.reserve(burst.size());
      for (core::Request& request : burst) {
        cells.push_back(gateway::Submission{
            std::move(request), [](const gateway::GatewayResult& result) {
              GFAAS_CHECK(result.disposition == gateway::Disposition::kCompleted);
            }});
      }
      gw->submit_batch(std::move(cells));
    };
  };
}

// The seed grid's working-set-15 slice across all three schedulers,
// batched through the gateway, rendered exactly as bench_seed_digest
// prints it. Any byte of drift between the plain and instrumented
// renderings is a behavior change introduced by telemetry.
std::string digest_slice(bool with_telemetry) {
  std::string out;
  char line[256];
  trace::WorkloadConfig wconfig;
  wconfig.working_set_size = 15;
  wconfig.seed = 7;
  auto workload = trace::build_standard_workload(wconfig, /*trace_seed=*/42);
  GFAAS_CHECK(workload.ok()) << workload.status().to_string();
  for (core::PolicyName policy :
       {core::PolicyName::kLb, core::PolicyName::kLalb, core::PolicyName::kLalbO3}) {
    cluster::ClusterConfig config;
    config.policy = policy;
    config.o3_limit = 25;
    std::vector<core::CompletionRecord> records;
    const auto r = cluster::run_experiment_batched(
        config, *workload, &records, gateway_batch_ingest(with_telemetry));
    std::snprintf(line, sizeof(line), "policy=%s requests=%zu\n",
                  r.policy.c_str(), r.requests);
    out += line;
    std::snprintf(line, sizeof(line),
                  "  avg_latency_s=%a variance=%a p50=%a p95=%a p99=%a\n",
                  r.avg_latency_s, r.latency_variance_s2, r.p50_latency_s,
                  r.p95_latency_s, r.p99_latency_s);
    out += line;
    std::snprintf(line, sizeof(line), "  miss=%a false_miss=%a sm_util=%a dup=%a\n",
                  r.miss_ratio, r.false_miss_ratio, r.sm_utilization,
                  r.avg_top_duplicates);
    out += line;
    std::snprintf(line, sizeof(line), "  completion_digest=%016llx\n",
                  static_cast<unsigned long long>(completion_digest(records)));
    out += line;
  }
  return out;
}

int run(const Options& options) {
  int failures = 0;

  // Phase 1+2: interleaved best-of-N throughput + allocation guard.
  double best_plain_rps = 0, best_instr_rps = 0;
  double min_plain_allocs = std::numeric_limits<double>::max();
  double min_instr_allocs = std::numeric_limits<double>::max();
  for (int i = 0; i < options.iters; ++i) {
    const RunResult plain = run_once(options, /*with_telemetry=*/false);
    const RunResult instr = run_once(options, /*with_telemetry=*/true);
    std::printf("iter=%d plain_rps=%.0f instr_rps=%.0f plain_allocs=%.3f "
                "instr_allocs=%.3f\n",
                i, plain.rps, instr.rps, plain.allocs_per_req,
                instr.allocs_per_req);
    best_plain_rps = std::max(best_plain_rps, plain.rps);
    best_instr_rps = std::max(best_instr_rps, instr.rps);
    min_plain_allocs = std::min(min_plain_allocs, plain.allocs_per_req);
    min_instr_allocs = std::min(min_instr_allocs, instr.allocs_per_req);
  }
  const double regression =
      best_plain_rps > 0 ? 1.0 - best_instr_rps / best_plain_rps : 1.0;
  const bool throughput_ok = regression <= options.max_regression;
  std::printf("ACCEPTANCE telemetry throughput cost <= %.1f%% "
              "(best plain %.0f vs instrumented %.0f rps, %.2f%%): %s\n",
              options.max_regression * 100.0, best_plain_rps, best_instr_rps,
              regression * 100.0, throughput_ok ? "PASS" : "FAIL");
  if (!throughput_ok) ++failures;

  // The record path may not allocate: the instrumented run's minimum
  // allocations/request must not exceed the plain run's by a rounding
  // hair (wiring-time allocation happens before the measured window).
  const double alloc_delta = min_instr_allocs - min_plain_allocs;
  const bool allocs_ok = alloc_delta <= 0.01;
  std::printf("ACCEPTANCE record path allocation-free "
              "(plain %.3f vs instrumented %.3f allocs/request, delta %.3f): %s\n",
              min_plain_allocs, min_instr_allocs, alloc_delta,
              allocs_ok ? "PASS" : "FAIL");
  if (!allocs_ok) ++failures;

  // Phase 3: behavior-preservation digest.
  const std::string plain_digest = digest_slice(/*with_telemetry=*/false);
  const std::string instr_digest = digest_slice(/*with_telemetry=*/true);
  const bool digest_ok = plain_digest == instr_digest;
  std::printf("ACCEPTANCE digest byte-identical with telemetry attached: %s\n",
              digest_ok ? "PASS" : "FAIL");
  if (!digest_ok) {
    std::fprintf(stderr, "--- plain ---\n%s--- instrumented ---\n%s",
                 plain_digest.c_str(), instr_digest.c_str());
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gfaas::bench

int main(int argc, char** argv) {
  gfaas::bench::Options options;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      GFAAS_CHECK(i + 1 < argc) << flag << " needs a value";
      return argv[++i];
    };
    if (const char* v = value("--requests")) {
      options.requests = std::atoll(v);
    } else if (const char* v = value("--producers")) {
      options.producers = std::atoi(v);
    } else if (const char* v = value("--iters")) {
      options.iters = std::atoi(v);
    } else if (const char* v = value("--max-regression")) {
      options.max_regression = std::atof(v);
    } else if (const char* v = value("--gpus")) {
      options.gpus = std::atoi(v);
    } else if (const char* v = value("--capacity")) {
      options.capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--models")) {
      options.models = std::atoi(v);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  GFAAS_CHECK(options.producers >= 1 && options.iters >= 1 &&
              options.requests >= options.producers);
  return gfaas::bench::run(options);
}
