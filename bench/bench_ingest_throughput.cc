// Concurrent ingestion throughput bench (the ISSUE 7 acceptance gate).
//
// Drives a RealTimeCluster with 1/2/4/8 producer threads in two modes:
//
//   baseline  one executor.schedule_after(0, ...) per submission — the
//             serialized ingestion path exactly as it existed before this
//             change (post() was an alias for schedule_after(0)): every
//             producer fights for the executor mutex, pays two ordered-map
//             inserts plus a heap-allocated closure per request, and the
//             worker pays a lock cycle and a keyed erase per fire;
//   mpsc      ConcurrentIngress — lock-free ring enqueue, one armed drain
//             per burst, bulk admission through Gateway::submit_batch.
//
// Reported per run: sustained requests/s (wall time from the moment the
// producers start until a FIFO sentinel confirms the worker admitted the
// whole load), p50/p99 producer-side enqueue latency, and heap
// allocations per request (global operator new counter).
//
// Acceptance (non-zero exit on miss):
//   * with 8 producers, mpsc sustains >= --floor (default 3.0) x the
//     baseline req/s at equal shed rates (both zero here: unbounded
//     admission window, no SLO stamping);
//   * mpsc allocations/request <= 1.10 x baseline (the fast path must
//     not regress the allocation diet).
//
// The warmup parks multi-second model loads on every GPU (time_scale 1)
// and fills the admission window exactly, so the measured window
// exercises the saturated-ingestion regime: every submission pays the
// window check plus the shed-vs-queue finish-time estimate — a fleet
// scan the batched path memoizes once per burst — and parks in the
// pending queue. Engine state is frozen for the whole window, so the
// measured cost is the ingestion path itself, not scheduling work.
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

#include "cluster/realtime_cluster.h"
#include "common/log.h"
#include "concurrent/callback_executor.h"
#include "gateway/ingress.h"
#include "models/zoo.h"
#include "shard/ingress_router.h"
#include "shard/router.h"
#include "telemetry/telemetry.h"

// ---------------------------------------------------------------------------
// Global allocation counter (the satellite "counting guard"): every heap
// allocation in the process bumps one relaxed atomic.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// The replacement operators below back global new with malloc, so free()
// in the matching deletes is correct — but GCC's -O2 call-site analysis
// models `new` as its builtin allocator and flags the inlined free() as
// mismatched. False positive; scoped off for this TU.
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

struct RunResult {
  double rps = 0;
  double enq_p50_us = 0;
  double enq_p99_us = 0;
  double allocs_per_req = 0;
  std::int64_t shed = 0;
  std::int64_t submitted = 0;
  // Per-shard routed counts (sharded row only).
  std::vector<std::uint64_t> routed;
  // Final telemetry state, dumped to stderr on acceptance failure.
  gfaas::telemetry::MetricsSnapshot snapshot;
};

struct Options {
  std::int64_t requests = 40000;
  std::vector<int> producer_counts = {1, 2, 4, 8};
  int gpus = 8;
  std::size_t capacity = 4096;
  double floor = 3.0;
  int models = 3;
  // Sharded-ingestion row: shard count and the JSON result sink (empty =
  // write nothing; the committed record is BENCH_shard.json).
  int shards = 4;
  std::string json;
};

core::Request make_request(std::int64_t id, std::int64_t model) {
  core::Request request;
  request.id = RequestId(id);
  request.function = FunctionId(id);
  request.model = ModelId(model);
  request.batch = 32;
  return request;
}

double percentile_us(std::vector<std::int64_t>& ns, double q) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(ns.size() - 1) + 0.5);
  return static_cast<double>(ns[rank]) / 1000.0;
}

// One measured run. The cluster is fresh per run so neither mode inherits
// the other's warmed state. Teardown intentionally drops unfinished
// engine work: the bench measures ingestion, not completion.
RunResult run_once(const Options& options, int producers, bool mpsc) {
  const std::int64_t total = options.requests;
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
  // Saturated admission window: the warmup fills max_in_flight exactly,
  // so every measured submission faces the shed-vs-queue decision — the
  // regime the batched path amortizes (one window check + one fleet-scan
  // finish-time estimate per burst instead of per request). With no
  // deadline stamped (default_slo = 0) the decision is always "queue",
  // so shed rates are identically zero in both modes and engine state
  // stays frozen across the measure window.
  const int warm_count = 2 * options.gpus;
  gateway::GatewayConfig gconfig;
  gconfig.max_in_flight = static_cast<std::size_t>(warm_count);
  gconfig.max_pending = std::numeric_limits<std::size_t>::max();
  gconfig.default_slo = 0;  // no deadlines: nothing sheds or expires
  auto gateway = std::make_unique<gateway::Gateway>(cluster.get(), gconfig);
  auto callbacks = std::make_unique<concurrent::CallbackExecutor>();
  // Telemetry rides along in BOTH modes (symmetric cost), so the bench
  // measures the instrumented ingestion path — the configuration the
  // overhead bench certifies — and the failure dump has live counters.
  auto telemetry = std::make_unique<telemetry::Telemetry>();
  gateway->set_telemetry(telemetry.get());
  std::unique_ptr<gateway::ConcurrentIngress> ingress;
  if (mpsc) {
    gateway->set_callback_executor(callbacks.get());
    ingress = std::make_unique<gateway::ConcurrentIngress>(
        gateway.get(), &cluster->executor(), options.capacity);
    ingress->set_telemetry(telemetry.get());
  }
  sim::Executor& executor = cluster->executor();
  gateway::ResultCallback on_done = [](const gateway::GatewayResult& result) {
    GFAAS_CHECK(result.disposition == gateway::Disposition::kCompleted);
  };

  // Runs fn on the worker AFTER everything posted before it (FIFO), and
  // returns its result to this thread.
  auto on_worker = [&executor](auto fn) {
    using R = decltype(fn());
    std::promise<R> promise;
    auto future = promise.get_future();
    executor.post([&promise, &fn] { promise.set_value(fn()); });
    return future.get();
  };

  // Warmup: park multi-second model loads on every GPU (2x over-subscribed
  // so no GPU slips through idle) and fill the admission window.
  for (int g = 0; g < warm_count; ++g) {
    core::Request warm = make_request(total + g, g % options.models);
    executor.post([&gateway, warm = std::move(warm), on_done]() mutable {
      gateway->submit(std::move(warm), on_done);
    });
  }
  const std::size_t idle = on_worker(
      [&cluster] { return cluster->engine().idle_gpu_count(); });
  GFAAS_CHECK(idle == 0) << idle << " GPUs still idle after warmup";
  const std::int64_t admitted = on_worker(
      [&gateway] { return gateway->counters().admitted; });
  GFAAS_CHECK(admitted == warm_count)
      << "admission window not saturated: " << admitted << "/" << warm_count;

  // ---- measured window ----
  const std::int64_t per_producer = total / producers;
  const std::int64_t measured = per_producer * producers;
  std::vector<std::vector<std::int64_t>> enqueue_ns(
      static_cast<std::size_t>(producers));
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      auto& samples = enqueue_ns[static_cast<std::size_t>(p)];
      samples.reserve(static_cast<std::size_t>(per_producer));
      while (!start.load()) std::this_thread::yield();
      for (std::int64_t i = 0; i < per_producer; ++i) {
        const std::int64_t id = static_cast<std::int64_t>(p) * per_producer + i;
        core::Request request = make_request(id, id % options.models);
        const auto t0 = Clock::now();
        if (mpsc) {
          gateway::Submission cell{std::move(request), on_done};
          while (!ingress->try_submit(cell)) std::this_thread::yield();
        } else {
          // The pre-change serialized path: post() used to be exactly
          // schedule_after(0), so this is what every submission paid
          // before the MPSC ingress (and before the post() fast path).
          executor.schedule_after(
              0, [&gateway, request = std::move(request), on_done]() mutable {
                gateway->submit(std::move(request), on_done);
              });
        }
        samples.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - t0)
                              .count());
      }
    });
  }
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  const auto wall_start = Clock::now();
  start.store(true);
  for (auto& t : threads) t.join();
  // FIFO sentinel: lands behind every pending submission (baseline) or
  // behind the armed drain covering the last published cell (mpsc), so
  // its resolution marks "backlog fully admitted".
  std::int64_t submitted = on_worker(
      [&gateway] { return gateway->counters().submitted; });
  while (submitted < measured + warm_count) {
    submitted = on_worker(
        [&gateway] { return gateway->counters().submitted; });
  }
  const auto wall_end = Clock::now();
  const std::uint64_t allocs_after = g_allocs.load(std::memory_order_relaxed);

  RunResult result;
  result.submitted = submitted - warm_count;  // exclude warmup
  const double elapsed_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.rps = static_cast<double>(measured) / elapsed_s;
  std::vector<std::int64_t> all_ns;
  all_ns.reserve(static_cast<std::size_t>(measured));
  for (auto& v : enqueue_ns) {
    all_ns.insert(all_ns.end(), v.begin(), v.end());
  }
  result.enq_p50_us = percentile_us(all_ns, 0.50);
  result.enq_p99_us = percentile_us(all_ns, 0.99);
  result.allocs_per_req = static_cast<double>(allocs_after - allocs_before) /
                          static_cast<double>(measured);
  result.shed = on_worker([&gateway] { return gateway->counters().shed; });
  // Snapshot on the worker: the gateway/ingress probes read
  // worker-thread state.
  result.snapshot =
      on_worker([&telemetry] { return telemetry->snapshot_now(0); });
  result.snapshot.label = mpsc ? "mpsc" : "baseline";
  if (mpsc) {
    GFAAS_CHECK(ingress->drained() ==
                static_cast<std::uint64_t>(measured))
        << "ingress drained " << ingress->drained() << " of " << measured;
  }

  // Teardown: stop the event loop first (drops unfinished engine work —
  // deliberate), then the ingress/gateway, then flush the callback
  // thread. RealTimeExecutor's destructor joins its worker.
  cluster.reset();
  ingress.reset();
  gateway.reset();
  callbacks.reset();
  return result;
}

// The multi-shard ingestion row: `shards` independent RealTimeCluster +
// Gateway + ConcurrentIngress stacks behind one ShardedIngress front
// door. Producers route by model affinity, so each shard's ring, drain
// wakeup and bulk admission run with zero cross-shard coupling — the
// aggregate ingest rate is the sum of per-shard rates.
RunResult run_once_sharded(const Options& options, int producers, int shards) {
  const std::int64_t total = options.requests;
  const auto& catalog = models::table1_catalog();
  // Spread models across shards: affinity hashing with too few models
  // would leave shards idle, which measures routing, not ingestion.
  const int model_count = std::min(static_cast<int>(catalog.size()),
                                   std::max(options.models, 2 * shards));
  models::ModelRegistry registry;
  for (int m = 0; m < model_count; ++m) {
    GFAAS_CHECK(registry.register_model(catalog[static_cast<std::size_t>(m)]).ok());
  }

  struct Stack {
    std::unique_ptr<cluster::RealTimeCluster> cluster;
    std::unique_ptr<gateway::Gateway> gateway;
    std::unique_ptr<concurrent::CallbackExecutor> callbacks;
    std::unique_ptr<telemetry::Telemetry> telemetry;
    std::unique_ptr<gateway::ConcurrentIngress> ingress;
    int warm = 0;
  };
  gateway::ResultCallback on_done = [](const gateway::GatewayResult& result) {
    GFAAS_CHECK(result.disposition == gateway::Disposition::kCompleted);
  };
  const int gpus_per_shard = std::max(2, options.gpus / shards);
  std::vector<Stack> stacks(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    Stack& stack = stacks[static_cast<std::size_t>(s)];
    cluster::ClusterConfig config;
    config.nodes = 2;
    config.gpus_per_node = (gpus_per_shard + 1) / 2;
    config.policy = core::PolicyName::kLb;
    stack.cluster = std::make_unique<cluster::RealTimeCluster>(
        config, registry, /*time_scale=*/1.0);
    stack.warm = 2 * gpus_per_shard;
    gateway::GatewayConfig gconfig;
    gconfig.max_in_flight = static_cast<std::size_t>(stack.warm);
    gconfig.max_pending = std::numeric_limits<std::size_t>::max();
    gconfig.default_slo = 0;  // no deadlines: nothing sheds or expires
    stack.gateway =
        std::make_unique<gateway::Gateway>(stack.cluster.get(), gconfig);
    stack.callbacks = std::make_unique<concurrent::CallbackExecutor>();
    stack.telemetry = std::make_unique<telemetry::Telemetry>();
    stack.telemetry->set_shard(s);
    stack.gateway->set_telemetry(stack.telemetry.get());
    stack.gateway->set_callback_executor(stack.callbacks.get());
    stack.ingress = std::make_unique<gateway::ConcurrentIngress>(
        stack.gateway.get(), &stack.cluster->executor(), options.capacity);
    stack.ingress->set_telemetry(stack.telemetry.get());
  }
  shard::ShardRouter router(static_cast<std::size_t>(shards));
  std::vector<gateway::ConcurrentIngress*> fronts;
  for (Stack& stack : stacks) fronts.push_back(stack.ingress.get());
  shard::ShardedIngress sharded(std::move(fronts), &router);

  auto on_worker = [](sim::Executor& executor, auto fn) {
    using R = decltype(fn());
    std::promise<R> promise;
    auto future = promise.get_future();
    executor.post([&promise, &fn] { promise.set_value(fn()); });
    return future.get();
  };

  // Warmup each shard exactly as the single-stack runs do: park loads on
  // every GPU and fill the admission window, so every measured
  // submission pays the saturated shed-vs-queue decision.
  for (Stack& stack : stacks) {
    sim::Executor& executor = stack.cluster->executor();
    for (int g = 0; g < stack.warm; ++g) {
      core::Request warm = make_request(total + g, g % model_count);
      executor.post([&stack, warm = std::move(warm), on_done]() mutable {
        stack.gateway->submit(std::move(warm), on_done);
      });
    }
    const std::size_t idle = on_worker(executor, [&stack] {
      return stack.cluster->engine().idle_gpu_count();
    });
    GFAAS_CHECK(idle == 0) << idle << " GPUs still idle after warmup";
    const std::int64_t admitted = on_worker(executor, [&stack] {
      return stack.gateway->counters().admitted;
    });
    GFAAS_CHECK(admitted == stack.warm)
        << "admission window not saturated: " << admitted << "/" << stack.warm;
  }

  // ---- measured window ----
  const std::int64_t per_producer = total / producers;
  const std::int64_t measured = per_producer * producers;
  std::vector<std::vector<std::int64_t>> enqueue_ns(
      static_cast<std::size_t>(producers));
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      auto& samples = enqueue_ns[static_cast<std::size_t>(p)];
      samples.reserve(static_cast<std::size_t>(per_producer));
      while (!start.load()) std::this_thread::yield();
      for (std::int64_t i = 0; i < per_producer; ++i) {
        const std::int64_t id = static_cast<std::int64_t>(p) * per_producer + i;
        core::Request request = make_request(id, id % model_count);
        const auto t0 = Clock::now();
        gateway::Submission cell{std::move(request), on_done};
        while (!sharded.try_submit(cell)) std::this_thread::yield();
        samples.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - t0)
                              .count());
      }
    });
  }
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  const auto wall_start = Clock::now();
  start.store(true);
  for (auto& t : threads) t.join();
  // Per-shard FIFO sentinel: every shard must have admitted everything
  // routed to it (plus its warmup).
  for (std::size_t s = 0; s < stacks.size(); ++s) {
    Stack& stack = stacks[s];
    const std::int64_t target =
        static_cast<std::int64_t>(sharded.routed(s)) + stack.warm;
    std::int64_t submitted = 0;
    do {
      submitted = on_worker(stack.cluster->executor(), [&stack] {
        return stack.gateway->counters().submitted;
      });
    } while (submitted < target);
  }
  const auto wall_end = Clock::now();
  const std::uint64_t allocs_after = g_allocs.load(std::memory_order_relaxed);

  RunResult result;
  const double elapsed_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.rps = static_cast<double>(measured) / elapsed_s;
  std::vector<std::int64_t> all_ns;
  all_ns.reserve(static_cast<std::size_t>(measured));
  for (auto& v : enqueue_ns) all_ns.insert(all_ns.end(), v.begin(), v.end());
  result.enq_p50_us = percentile_us(all_ns, 0.50);
  result.enq_p99_us = percentile_us(all_ns, 0.99);
  result.allocs_per_req = static_cast<double>(allocs_after - allocs_before) /
                          static_cast<double>(measured);
  std::uint64_t drained = 0;
  for (std::size_t s = 0; s < stacks.size(); ++s) {
    Stack& stack = stacks[s];
    result.routed.push_back(sharded.routed(s));
    result.submitted += on_worker(stack.cluster->executor(), [&stack] {
                          return stack.gateway->counters().submitted;
                        }) -
                        stack.warm;
    result.shed += on_worker(stack.cluster->executor(), [&stack] {
      return stack.gateway->counters().shed;
    });
    drained += stack.ingress->drained();
  }
  GFAAS_CHECK(drained == static_cast<std::uint64_t>(measured))
      << "sharded ingress drained " << drained << " of " << measured;
  result.snapshot = on_worker(stacks[0].cluster->executor(), [&stacks] {
    return stacks[0].telemetry->snapshot_now(0);
  });
  result.snapshot.label = "sharded";

  for (Stack& stack : stacks) {
    stack.cluster.reset();
    stack.ingress.reset();
    stack.gateway.reset();
    stack.callbacks.reset();
  }
  return result;
}

void print_run(int producers, const char* mode, const RunResult& r) {
  std::printf(
      "producers=%d mode=%s submitted=%lld rps=%.0f enq_p50_us=%.2f "
      "enq_p99_us=%.2f allocs_per_req=%.2f shed=%lld\n",
      producers, mode, static_cast<long long>(r.submitted), r.rps,
      r.enq_p50_us, r.enq_p99_us, r.allocs_per_req,
      static_cast<long long>(r.shed));
}

int run(const Options& options) {
  int failures = 0;
  double speedup_at_max = 0;
  int max_producers = 0;
  RunResult last_baseline;
  RunResult last_mpsc;
  for (int producers : options.producer_counts) {
    const RunResult baseline = run_once(options, producers, /*mpsc=*/false);
    const RunResult mpsc = run_once(options, producers, /*mpsc=*/true);
    print_run(producers, "baseline", baseline);
    print_run(producers, "mpsc", mpsc);
    const double speedup = mpsc.rps / baseline.rps;
    std::printf("producers=%d speedup=%.2fx\n", producers, speedup);
    if (baseline.shed != mpsc.shed) {
      std::printf("FAIL producers=%d unequal shed rates (baseline=%lld mpsc=%lld)\n",
                  producers, static_cast<long long>(baseline.shed),
                  static_cast<long long>(mpsc.shed));
      ++failures;
    }
    if (mpsc.allocs_per_req > baseline.allocs_per_req * 1.10) {
      std::printf(
          "FAIL producers=%d allocation regression (baseline=%.2f mpsc=%.2f)\n",
          producers, baseline.allocs_per_req, mpsc.allocs_per_req);
      ++failures;
    }
    if (producers >= max_producers) {
      max_producers = producers;
      speedup_at_max = speedup;
      last_baseline = baseline;
      last_mpsc = mpsc;
    }
  }
  const bool floor_met = speedup_at_max >= options.floor;
  std::printf("ACCEPT producers=%d speedup=%.2fx floor=%.2fx -> %s\n",
              max_producers, speedup_at_max, options.floor,
              floor_met ? "PASS" : "FAIL");
  if (!floor_met) ++failures;

  // Multi-shard row: max producers over `shards` independent stacks.
  const RunResult sharded =
      run_once_sharded(options, max_producers, options.shards);
  char mode[32];
  std::snprintf(mode, sizeof(mode), "sharded%d", options.shards);
  print_run(max_producers, mode, sharded);
  std::printf("  routed=[");
  for (std::size_t s = 0; s < sharded.routed.size(); ++s) {
    std::printf("%s%llu", s == 0 ? "" : ",",
                static_cast<unsigned long long>(sharded.routed[s]));
  }
  std::printf("]\n");
  if (sharded.shed != last_mpsc.shed) {
    std::printf("FAIL sharded row unequal shed rate (mpsc=%lld sharded=%lld)\n",
                static_cast<long long>(last_mpsc.shed),
                static_cast<long long>(sharded.shed));
    ++failures;
  }
  if (!options.json.empty()) {
    FILE* out = std::fopen(options.json.c_str(), "w");
    GFAAS_CHECK(out != nullptr) << "cannot write " << options.json;
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"ingest_throughput_sharded\",\n"
                 "  \"producers\": %d,\n"
                 "  \"shards\": %d,\n"
                 "  \"requests\": %lld,\n"
                 "  \"single_shard\": {\"rps\": %.1f, \"enq_p50_us\": %.3f, "
                 "\"enq_p99_us\": %.3f, \"allocs_per_req\": %.3f, \"shed\": %lld},\n"
                 "  \"sharded\": {\"rps\": %.1f, \"enq_p50_us\": %.3f, "
                 "\"enq_p99_us\": %.3f, \"allocs_per_req\": %.3f, \"shed\": %lld,\n"
                 "              \"routed\": [",
                 max_producers, options.shards,
                 static_cast<long long>(options.requests), last_mpsc.rps,
                 last_mpsc.enq_p50_us, last_mpsc.enq_p99_us,
                 last_mpsc.allocs_per_req, static_cast<long long>(last_mpsc.shed),
                 sharded.rps, sharded.enq_p50_us, sharded.enq_p99_us,
                 sharded.allocs_per_req, static_cast<long long>(sharded.shed));
    for (std::size_t s = 0; s < sharded.routed.size(); ++s) {
      std::fprintf(out, "%s%llu", s == 0 ? "" : ", ",
                   static_cast<unsigned long long>(sharded.routed[s]));
    }
    std::fprintf(out,
                 "]},\n"
                 "  \"sharded_vs_single_rps\": %.3f\n"
                 "}\n",
                 sharded.rps / last_mpsc.rps);
    std::fclose(out);
  }
  if (failures != 0) {
    std::fprintf(stderr, "acceptance failed; final telemetry snapshots "
                         "(producers=%d):\n", max_producers);
    telemetry::dump_snapshot(last_baseline.snapshot, stderr);
    telemetry::dump_snapshot(last_mpsc.snapshot, stderr);
    return 1;
  }
  return 0;
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
      options.producer_counts.clear();
      std::string list(v);
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        options.producer_counts.push_back(
            std::atoi(list.substr(pos, comma - pos).c_str()));
        pos = comma + 1;
      }
    } else if (const char* v = value("--gpus")) {
      options.gpus = std::atoi(v);
    } else if (const char* v = value("--capacity")) {
      options.capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--floor")) {
      options.floor = std::atof(v);
    } else if (const char* v = value("--models")) {
      options.models = std::atoi(v);
    } else if (const char* v = value("--shards")) {
      options.shards = std::atoi(v);
    } else if (const char* v = value("--json")) {
      options.json = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  return gfaas::bench::run(options);
}
