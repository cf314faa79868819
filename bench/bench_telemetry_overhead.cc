// Telemetry overhead gate: the live-telemetry seam must be close to
// free when attached and exactly free when detached.
//
// Three acceptance phases, non-zero exit on any miss:
//
//   1. CPU cost — the saturated-window ingestion path (ConcurrentIngress
//      -> Gateway shed-vs-queue admission -> pending queue; frozen
//      engine, CallbackExecutor attached) is run plain vs instrumented
//      (Gateway + ConcurrentIngress telemetry attached). The cost is
//      thread CPU time (CLOCK_THREAD_CPUTIME_ID) per request, summed
//      over the producer's pushes and the worker's drain: time the
//      threads spend descheduled or waiting does not count.
//      Each of --iters pairs puts a plain and an instrumented front end
//      on one cluster (alternating which is built first), binds every
//      thread to one CPU and feeds the two one burst each per round
//      (alternating which goes first), so both run on the same worker
//      thread and core and a change in host speed lands on both. Every
//      measured request joins the frozen window's pending queue, so a
//      pair measures its --requests in segments of at most 20000, each
//      on a fresh cluster and front ends: the backlog a burst meets, and
//      with it the ratio, does not depend on --requests. A burst
//      is pushed by one producer thread while the worker is held, then
//      drained by the worker in one pass, so both sides do the same work
//      in the same batch shapes. The median over every round of
//      instrumented / plain must stay within 1 + --max-regression
//      (default 3%; CI smoke relaxes to 5%). Glibc's mmap threshold is
//      set to its default, which turns off its dynamic adjustment, so a
//      large block freed by one side cannot move the other side's next
//      growth from mmap to the heap; the heap is never trimmed. Two
//      plain sides (an A/A run) read within about 2% of each other over
//      5 pairs.
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
// --self-test checks that phase 1 can fail: it injects a regression of
// twice the bound (a worker-thread busy-work task per burst on the
// instrumented side, sized from a plain pair) and exits 0 only if the
// gate reports it. The reading exceeds the injection by the task's own
// overhead and the telemetry cost.
//
// Usage:
//   bench_telemetry_overhead [--requests 40000] [--iters 5]
//                            [--max-regression 0.03] [--gpus 8]
//                            [--capacity 1024] [--models 3] [--self-test]
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
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
#include <utility>
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

struct Options {
  std::int64_t requests = 40000;
  int iters = 5;
  double max_regression = 0.03;
  int gpus = 8;
  std::size_t capacity = 1024;
  int models = 3;
  bool self_test = false;
};

core::Request make_request(std::int64_t id, std::int64_t model) {
  core::Request request;
  request.id = RequestId(id);
  request.function = FunctionId(id);
  request.model = ModelId(model);
  request.batch = 32;
  return request;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  GFAAS_CHECK(clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Spends `ns` of the calling thread's CPU time (the self-test's injected
// regression).
void burn_cpu(std::int64_t ns) {
  const std::int64_t until = thread_cpu_ns() + ns;
  while (thread_cpu_ns() < until) {
  }
}

// Binds the calling thread to one CPU. A pair's threads all share it, so
// the plain and the instrumented side run on the same core, whatever load
// the rest of the host puts on the others. Best effort: a refused binding
// leaves the thread where it was.
void bind_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// A RealTimeCluster for one pair, every executor thread bound to `cpu`.
std::unique_ptr<cluster::RealTimeCluster> make_cluster(const Options& options, int cpu) {
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
  auto cluster = std::make_unique<cluster::RealTimeCluster>(config, registry,
                                                            /*time_scale=*/1.0);
  cluster->executor().post([cpu] { bind_to_cpu(cpu); });
  return cluster;
}

// One serving front end over a saturated admission window: a Gateway
// whose window is full of multi-second loads on a shared cluster, a
// CallbackExecutor and a ConcurrentIngress, with the telemetry seam
// optionally attached. Request ids start at `id_base`, so two front ends
// never hand the engine the same id.
class FrontEnd {
 public:
  FrontEnd(const Options& options, cluster::RealTimeCluster* cluster,
           bool with_telemetry, std::int64_t id_base, int cpu)
      : cluster_(cluster),
        models_(options.models),
        burst_(static_cast<std::int64_t>(options.capacity)),
        next_(id_base) {
    const int warm_count = 2 * options.gpus;
    gateway::GatewayConfig gconfig;
    gconfig.max_in_flight = static_cast<std::size_t>(warm_count);
    gconfig.max_pending = std::numeric_limits<std::size_t>::max();
    gconfig.default_slo = 0;  // no deadlines: nothing sheds or expires
    gateway_ = std::make_unique<gateway::Gateway>(cluster_, gconfig);
    callbacks_ = std::make_unique<concurrent::CallbackExecutor>();
    callbacks_->post([cpu] { bind_to_cpu(cpu); });
    gateway_->set_callback_executor(callbacks_.get());
    ingress_ = std::make_unique<gateway::ConcurrentIngress>(
        gateway_.get(), &cluster_->executor(), options.capacity);
    if (with_telemetry) {
      tel_ = std::make_unique<telemetry::Telemetry>();
      gateway_->set_telemetry(tel_.get());
      ingress_->set_telemetry(tel_.get());
    }

    // Fill the admission window with requests that park multi-second
    // model loads on the GPUs, so every measured submission pays the
    // full shed-vs-queue ingestion path with frozen engine state.
    for (int g = 0; g < warm_count; ++g) {
      core::Request warm = make_request(next_++, g % models_);
      executor().post([this, warm = std::move(warm)]() mutable {
        gateway_->submit(std::move(warm), [](const gateway::GatewayResult&) {});
      });
    }
    const std::size_t idle =
        on_worker([this] { return cluster_->engine().idle_gpu_count(); });
    GFAAS_CHECK(idle == 0) << idle << " GPUs still idle after warmup";
    const std::int64_t admitted =
        on_worker([this] { return gateway_->counters().admitted; });
    GFAAS_CHECK(admitted == warm_count)
        << "admission window not saturated: " << admitted << "/" << warm_count;
    // Two unmeasured bursts touch the ring and the drain buffer at full
    // size.
    for (int i = 0; i < 2; ++i) burst(burst_, 0);
    pending_before_ =
        static_cast<std::int64_t>(on_worker([this] { return gateway_->pending(); }));
    submitted_before_ =
        on_worker([this] { return gateway_->counters().submitted; });
  }

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  std::int64_t burst_size() const { return burst_; }

  // Runs one burst of `count` requests through the front end and returns
  // the producer's plus the worker's thread CPU time. The worker is held
  // until the whole burst is in the ring, so the drain the first push
  // posts takes it in one pass.
  std::int64_t burst(std::int64_t count, std::int64_t inject_ns) {
    std::promise<void> release_worker;
    std::future<void> worker_released = release_worker.get_future();
    std::promise<std::int64_t> worker_cpu;
    std::future<std::int64_t> worker_cpu_ns = worker_cpu.get_future();
    std::int64_t worker_start = 0;
    executor().post([&worker_released, &worker_start] {
      worker_released.wait();
      worker_start = thread_cpu_ns();
    });
    const std::int64_t producer_start = thread_cpu_ns();
    for (std::int64_t i = 0; i < count; ++i, ++next_) {
      gateway::Submission cell{make_request(next_, next_ % models_), on_done_};
      GFAAS_CHECK(ingress_->try_submit(cell)) << "ring full inside a burst";
    }
    const std::int64_t producer_ns = thread_cpu_ns() - producer_start;
    if (inject_ns > 0) {
      executor().post([ns = inject_ns * count] { burn_cpu(ns); });
    }
    executor().post([&worker_start, &worker_cpu] {
      worker_cpu.set_value(thread_cpu_ns() - worker_start);
    });
    release_worker.set_value();
    return producer_ns + worker_cpu_ns.get();
  }

  // CHECKs that `measured` requests joined the pending queue since
  // construction and, when attached, that telemetry saw every submission.
  void check(std::int64_t measured) {
    const auto pending =
        static_cast<std::int64_t>(on_worker([this] { return gateway_->pending(); }));
    GFAAS_CHECK(pending - pending_before_ == measured)
        << pending - pending_before_ << " queued of " << measured;
    if (tel_ != nullptr) {
      GFAAS_CHECK(static_cast<std::int64_t>(
                      tel_->metrics().snapshot().value("gateway.submitted")) ==
                  submitted_before_ + measured)
          << "telemetry lost submissions";
    }
  }

 private:
  sim::Executor& executor() { return cluster_->executor(); }

  template <typename Fn>
  auto on_worker(Fn fn) -> decltype(fn()) {
    using R = decltype(fn());
    std::promise<R> promise;
    auto future = promise.get_future();
    executor().post([&promise, &fn] { promise.set_value(fn()); });
    return future.get();
  }

  cluster::RealTimeCluster* cluster_;
  const int models_;
  const std::int64_t burst_;
  std::int64_t next_;
  std::int64_t pending_before_ = 0;
  std::int64_t submitted_before_ = 0;
  // Nothing resolves inside a run: the window's loads outlast it.
  const gateway::ResultCallback on_done_ = [](const gateway::GatewayResult& result) {
    GFAAS_CHECK(result.disposition == gateway::Disposition::kCompleted);
  };
  std::unique_ptr<gateway::Gateway> gateway_;
  std::unique_ptr<concurrent::CallbackExecutor> callbacks_;
  std::unique_ptr<gateway::ConcurrentIngress> ingress_;
  std::unique_ptr<telemetry::Telemetry> tel_;
};

// Requests per side that one cluster and pair of front ends measure
// before a fresh set replaces them (see phase 1 in the header).
constexpr std::int64_t kSegmentRequests = 20000;

struct PairResult {
  double plain_ns = 0;  // thread CPU ns per request
  double instr_ns = 0;
  double plain_allocs = 0;  // allocations per request
  double instr_allocs = 0;
  // Instrumented / plain CPU time of each round's two bursts.
  std::vector<double> round_ratios;
};

// Per-side totals of a pair's measured bursts.
struct Tally {
  std::int64_t requests = 0;  // per side
  std::int64_t cpu[2] = {0, 0};
  std::uint64_t allocs[2] = {0, 0};
  std::vector<double> round_ratios;
};

// Feeds the two front ends `requests` each, one burst each per round,
// alternating which side goes first, so a change in host speed lands on
// both sides alike.
void run_bursts(std::int64_t requests, FrontEnd& plain, FrontEnd& instr,
                std::int64_t inject_ns, Tally& tally) {
  FrontEnd* sides[2] = {&plain, &instr};
  std::int64_t done = 0;
  for (int round = 0; done < requests; ++round) {
    const std::int64_t count = std::min(plain.burst_size(), requests - done);
    std::int64_t round_cpu[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      const int side = (round + k) % 2;
      const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
      round_cpu[side] = sides[side]->burst(count, side == 1 ? inject_ns : 0);
      tally.allocs[side] += g_allocs.load(std::memory_order_relaxed) - before;
      tally.cpu[side] += round_cpu[side];
    }
    tally.round_ratios.push_back(static_cast<double>(round_cpu[1]) /
                                 static_cast<double>(round_cpu[0]));
    done += count;
  }
  plain.check(done);
  instr.check(done);
  tally.requests += done;
}

// One pair: a plain and an instrumented front end side by side on one
// cluster, so both submit from the same worker thread into the same
// engine, every thread on the CPU the caller runs on, replaced by a fresh
// cluster and front ends every kSegmentRequests. Odd pairs build the
// instrumented side first, so neither side always gets the younger heap.
PairResult run_pair(const Options& options, int index, std::int64_t inject_ns) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  (void)pthread_getaffinity_np(pthread_self(), sizeof(allowed), &allowed);
  const int cpu = std::max(0, sched_getcpu());
  bind_to_cpu(cpu);
  Tally tally;
  while (tally.requests < options.requests) {
    auto cluster = make_cluster(options, cpu);
    std::unique_ptr<FrontEnd> sides[2];
    for (int k = 0; k < 2; ++k) {
      const int side = (index + k) % 2;  // 1 is the instrumented side
      sides[side] = std::make_unique<FrontEnd>(options, cluster.get(), side == 1,
                                               std::int64_t{side} << 32, cpu);
    }
    run_bursts(std::min(kSegmentRequests, options.requests - tally.requests),
               *sides[0], *sides[1], inject_ns, tally);
    // The executor goes first: its worker is joined and the windows'
    // loads are dropped before the gateways they would report to.
    cluster.reset();
  }
  (void)pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
  const auto per_req = [&tally](auto v) {
    return static_cast<double>(v) / static_cast<double>(tally.requests);
  };
  PairResult result;
  result.plain_ns = per_req(tally.cpu[0]);
  result.instr_ns = per_req(tally.cpu[1]);
  result.plain_allocs = per_req(tally.allocs[0]);
  result.instr_allocs = per_req(tally.allocs[1]);
  result.round_ratios = std::move(tally.round_ratios);
  return result;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct CpuVerdict {
  double cost = 0;  // median over every round of instrumented / plain - 1
  double plain_ns = 0;  // median over pairs of plain CPU ns per request
  double min_plain_allocs = std::numeric_limits<double>::max();
  double min_instr_allocs = std::numeric_limits<double>::max();
};

CpuVerdict measure_cpu_cost(const Options& options, std::int64_t inject_ns) {
  // The first pair in a process also pays for growing the heap (about
  // twice the CPU time of later pairs); run it unmeasured.
  static const bool warm = (run_pair(options, 0, 0), true);
  (void)warm;
  std::vector<double> ratios;
  std::vector<double> plain_ns;
  CpuVerdict verdict;
  for (int i = 0; i < options.iters; ++i) {
    const PairResult pair = run_pair(options, i, inject_ns);
    std::printf("pair=%d plain_cpu_ns=%.1f instr_cpu_ns=%.1f ratio=%.4f "
                "plain_allocs=%.3f instr_allocs=%.3f\n",
                i, pair.plain_ns, pair.instr_ns, pair.instr_ns / pair.plain_ns,
                pair.plain_allocs, pair.instr_allocs);
    ratios.insert(ratios.end(), pair.round_ratios.begin(), pair.round_ratios.end());
    plain_ns.push_back(pair.plain_ns);
    verdict.min_plain_allocs = std::min(verdict.min_plain_allocs, pair.plain_allocs);
    verdict.min_instr_allocs = std::min(verdict.min_instr_allocs, pair.instr_allocs);
  }
  verdict.cost = median(ratios) - 1.0;
  verdict.plain_ns = median(plain_ns);
  return verdict;
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

// Phase 1 with an injected regression of twice the bound on the
// instrumented side: the gate must report it.
int self_test(const Options& options) {
  Options probe = options;
  probe.iters = 1;
  const double plain_ns = measure_cpu_cost(probe, 0).plain_ns;
  const auto inject_ns =
      static_cast<std::int64_t>(2.0 * options.max_regression * plain_ns + 0.5);
  const CpuVerdict verdict = measure_cpu_cost(options, std::max<std::int64_t>(1, inject_ns));
  const bool caught = verdict.cost > options.max_regression;
  std::printf("SELF-TEST injected %lld ns/request (%.1f%% of %.1f ns) read as "
              "%.2f%% cost against a %.1f%% bound: %s\n",
              static_cast<long long>(inject_ns),
              100.0 * static_cast<double>(inject_ns) / plain_ns, plain_ns,
              verdict.cost * 100.0, options.max_regression * 100.0,
              caught ? "caught, PASS" : "missed, FAIL");
  return caught ? 0 : 1;
}

int run(const Options& options) {
  if (options.self_test) return self_test(options);
  int failures = 0;

  // Phase 1+2: interleaved CPU-cost pairs + allocation guard.
  const CpuVerdict verdict = measure_cpu_cost(options, /*inject_ns=*/0);
  const bool cpu_ok = verdict.cost <= options.max_regression;
  std::printf("ACCEPTANCE telemetry CPU cost <= %.1f%% "
              "(median over %d pairs' rounds %.2f%%, plain %.1f ns/request): %s\n",
              options.max_regression * 100.0, options.iters, verdict.cost * 100.0,
              verdict.plain_ns, cpu_ok ? "PASS" : "FAIL");
  if (!cpu_ok) ++failures;

  // The record path may not allocate: the instrumented run's minimum
  // allocations/request must not exceed the plain run's by a rounding
  // hair (wiring-time allocation happens before the measured window).
  const double alloc_delta = verdict.min_instr_allocs - verdict.min_plain_allocs;
  const bool allocs_ok = alloc_delta <= 0.01;
  std::printf("ACCEPTANCE record path allocation-free "
              "(plain %.3f vs instrumented %.3f allocs/request, delta %.3f): %s\n",
              verdict.min_plain_allocs, verdict.min_instr_allocs, alloc_delta,
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
  // Fixed thresholds: see phase 1 in the header. 128 KiB is glibc's
  // default mmap threshold; setting it at all is what turns off the
  // dynamic threshold.
  GFAAS_CHECK(mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1);
  GFAAS_CHECK(mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1);
  gfaas::bench::Options options;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      GFAAS_CHECK(i + 1 < argc) << flag << " needs a value";
      return argv[++i];
    };
    if (const char* v = value("--requests")) {
      options.requests = std::atoll(v);
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
    } else if (std::strcmp(argv[i], "--self-test") == 0) {
      options.self_test = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  GFAAS_CHECK(options.iters >= 1 && options.requests >= 1 && options.capacity >= 1);
  return gfaas::bench::run(options);
}
