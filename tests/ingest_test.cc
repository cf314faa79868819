// Concurrent ingestion tests: the lock-free MPSC submission ring, the
// dedicated callback executor, the ConcurrentIngress drain protocol
// (backpressure, multi-producer exactly-once, survival of kill_gpu
// interleavings), and the proof that batched admission through
// Gateway::submit_batch makes the same decisions as sequential submit().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "cluster/realtime_cluster.h"
#include "common/rng.h"
#include "concurrent/callback_executor.h"
#include "concurrent/mpsc_queue.h"
#include "gateway/ingress.h"
#include "testing/builders.h"

namespace gfaas::gateway {
namespace {

using concurrent::BoundedMpscQueue;
using concurrent::CallbackExecutor;

// ---------------------------------------------------------------------------
// BoundedMpscQueue
// ---------------------------------------------------------------------------

TEST(MpscQueueTest, FifoSingleThread) {
  BoundedMpscQueue<int> queue(8);
  for (int i = 0; i < 6; ++i) {
    int v = i;
    ASSERT_TRUE(queue.try_push(v));
  }
  int out = -1;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(queue.try_pop(out));
}

TEST(MpscQueueTest, FullQueueRejectsAndKeepsValue) {
  BoundedMpscQueue<int> queue(4);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    ASSERT_TRUE(queue.try_push(v));
  }
  int overflow = 99;
  EXPECT_FALSE(queue.try_push(overflow));
  EXPECT_EQ(overflow, 99);  // caller keeps ownership on rejection
  EXPECT_EQ(queue.approx_size(), 4u);
}

TEST(MpscQueueTest, WraparoundReusesCellsAcrossLaps) {
  BoundedMpscQueue<int> queue(4);
  int expected = 0;
  for (int lap = 0; lap < 5; ++lap) {
    for (int i = 0; i < 4; ++i) {
      int v = lap * 4 + i;
      ASSERT_TRUE(queue.try_push(v));
    }
    std::vector<int> out;
    EXPECT_EQ(queue.drain(out), 4u);
    for (int v : out) EXPECT_EQ(v, expected++);
  }
  EXPECT_EQ(queue.approx_size(), 0u);
}

TEST(MpscQueueTest, ConcurrentProducersKeepPerProducerOrderAndTotals) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  // Encode (producer, sequence) so the consumer can verify both global
  // conservation and per-producer FIFO.
  BoundedMpscQueue<std::int64_t> queue(256);
  std::atomic<bool> start{false};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!start.load()) std::this_thread::yield();
      for (int i = 0; i < kPerProducer; ++i) {
        std::int64_t v = static_cast<std::int64_t>(p) * kPerProducer + i;
        while (!queue.try_push(v)) std::this_thread::yield();  // ring full
      }
    });
  }
  std::vector<int> next_seq(kProducers, 0);
  std::int64_t popped = 0;
  start.store(true);
  while (popped < kProducers * kPerProducer) {
    std::int64_t v;
    if (!queue.try_pop(v)) {
      std::this_thread::yield();
      continue;
    }
    const int p = static_cast<int>(v / kPerProducer);
    const int seq = static_cast<int>(v % kPerProducer);
    ASSERT_GE(p, 0);
    ASSERT_LT(p, kProducers);
    EXPECT_EQ(seq, next_seq[p]) << "producer " << p << " reordered";
    next_seq[p] = seq + 1;
    ++popped;
  }
  for (auto& t : producers) t.join();
  std::int64_t leftover;
  EXPECT_FALSE(queue.try_pop(leftover));
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

// ---------------------------------------------------------------------------
// CallbackExecutor
// ---------------------------------------------------------------------------

TEST(CallbackExecutorTest, RunsCallbacksInPostOrder) {
  std::vector<int> order;
  CallbackExecutor callbacks;
  for (int i = 0; i < 100; ++i) {
    callbacks.post([&order, i] { order.push_back(i); });
  }
  callbacks.drain();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(callbacks.executed(), 100u);
  EXPECT_EQ(callbacks.pending(), 0u);
}

TEST(CallbackExecutorTest, DrainWaitsForRunningCallback) {
  CallbackExecutor callbacks;
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    callbacks.post([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done.fetch_add(1);
    });
  }
  callbacks.drain();
  EXPECT_EQ(done.load(), 8);
}

TEST(CallbackExecutorTest, DestructorRunsEverythingPosted) {
  std::atomic<int> ran{0};
  {
    CallbackExecutor callbacks;
    for (int i = 0; i < 50; ++i) {
      callbacks.post([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(CallbackExecutorTest, PostFromCallbackRunsBeforeDrainReturns) {
  CallbackExecutor callbacks;
  // Hold the callback thread so callbacks 0 and 1 land in one batch.
  std::atomic<bool> release{false};
  callbacks.post([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  std::vector<int> order;
  callbacks.post([&callbacks, &order] {
    order.push_back(0);
    callbacks.post([&order] { order.push_back(2); });
  });
  callbacks.post([&order] { order.push_back(1); });
  release.store(true);
  callbacks.drain();
  // The nested callback runs after the rest of its batch, and before
  // drain() returns.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(callbacks.executed(), 4u);
  EXPECT_EQ(callbacks.pending(), 0u);
}

// Counts destructions of the live (not moved-from) copy.
struct DestroyCounter {
  std::atomic<int>* destroyed;
  bool live = true;
  explicit DestroyCounter(std::atomic<int>* d) : destroyed(d) {}
  DestroyCounter(DestroyCounter&& other) noexcept
      : destroyed(other.destroyed), live(std::exchange(other.live, false)) {}
  DestroyCounter& operator=(DestroyCounter&&) = delete;
  ~DestroyCounter() {
    if (live) destroyed->fetch_add(1);
  }
};

TEST(CallbackExecutorTest, StoresSmallCallablesInPlaceAndLargeOnesOnTheHeap) {
  struct Large {
    char bytes[2 * concurrent::Task::kInlineBytes] = {};
  };
  static_assert(!concurrent::Task::kFitsInline<Large>);
  std::atomic<int> ran{0};
  std::atomic<int> destroyed{0};
  {
    CallbackExecutor callbacks;
    // Move-only, in place: std::function could not hold it at all.
    callbacks.post([&ran, owned = std::make_unique<int>(7),
                    counter = DestroyCounter(&destroyed)] { ran.fetch_add(*owned); });
    // Too large for the inline buffer: the task owns a heap copy.
    callbacks.post([&ran, large = Large{}, counter = DestroyCounter(&destroyed)] {
      ran.fetch_add(1 + large.bytes[0]);
    });
    callbacks.drain();
    EXPECT_EQ(ran.load(), 8);
    // Each callable is destroyed once, after it ran, not once per move.
    EXPECT_EQ(destroyed.load(), 2);
    // Posted just before the executor goes: its destructor runs it, and
    // it is destroyed once.
    callbacks.post([&ran, counter = DestroyCounter(&destroyed)] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 9);
  EXPECT_EQ(destroyed.load(), 3);
}

#ifdef __linux__
TEST(CallbackExecutorTest, CallbackThreadRunsUnderSchedBatch) {
  // The executor ignores a refused policy change (some sandboxes reject
  // it), so only expect SCHED_BATCH where a thread may set it.
  int probe = -1;
  std::thread([&probe] {
    sched_param param{};
    probe = pthread_setschedparam(pthread_self(), SCHED_BATCH, &param);
  }).join();
  if (probe != 0) GTEST_SKIP() << "this host refuses SCHED_BATCH: " << probe;
  CallbackExecutor callbacks;
  int policy = -1;
  callbacks.post([&policy] { policy = sched_getscheduler(0); });
  callbacks.drain();
  EXPECT_EQ(policy, SCHED_BATCH);
}
#endif

TEST(CallbackExecutorDeathTest, DrainOnCallbackThreadDies) {
  // The statement starts and blocks threads: run it in a re-executed
  // child rather than a fork of this process.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        CallbackExecutor callbacks;
        callbacks.post([&callbacks] { callbacks.drain(); });
        callbacks.drain();
      },
      "callback thread");
}

// ---------------------------------------------------------------------------
// ConcurrentIngress
// ---------------------------------------------------------------------------

Submission make_submission(std::int64_t id, std::int64_t model,
                           ResultCallback done) {
  return Submission{testkit::make_request(id, model, /*arrival=*/0),
                    std::move(done)};
}

TEST(IngressTest, FullRingSurfacesBackpressureThenDrains) {
  // On a SimCluster nothing drains until the simulator runs, so a ring of
  // 4 must reject the 5th submission — backpressure reaches the producer
  // as `false`, not a block or a drop.
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  Gateway gateway(cluster.get());
  ConcurrentIngress ingress(&gateway, &cluster->executor(), /*capacity=*/4);

  std::atomic<int> completed{0};
  auto done = [&completed](const GatewayResult& result) {
    EXPECT_EQ(result.disposition, Disposition::kCompleted);
    completed.fetch_add(1);
  };
  for (std::int64_t id = 0; id < 4; ++id) {
    Submission cell = make_submission(id, id % 2, done);
    EXPECT_TRUE(ingress.try_submit(cell));
  }
  Submission overflow = make_submission(4, 0, done);
  EXPECT_FALSE(ingress.try_submit(overflow));
  EXPECT_TRUE(overflow.done != nullptr);  // rejected cell stays intact
  EXPECT_EQ(ingress.accepted(), 4u);
  EXPECT_EQ(ingress.rejected(), 1u);

  cluster->run_to_completion();
  EXPECT_EQ(completed.load(), 4);
  EXPECT_EQ(ingress.drained(), 4u);
  // The whole pre-run backlog arrived in one drain pass.
  EXPECT_EQ(ingress.drains(), 1u);
  EXPECT_EQ(ingress.max_batch(), 4u);

  // The freed ring accepts again and the cell completes.
  EXPECT_TRUE(ingress.try_submit(overflow));
  cluster->run_to_completion();
  EXPECT_EQ(completed.load(), 5);
}

TEST(IngestTest, ConcurrentProducersResolveExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  constexpr int kTotal = kProducers * kPerProducer;
  const auto config =
      testkit::ClusterBuilder().nodes(2).gpus_per_node(2).config();
  cluster::RealTimeCluster cluster(config, testkit::head_registry(3),
                                   /*time_scale=*/2000.0);
  GatewayConfig gconfig;
  gconfig.max_in_flight = kTotal;  // no shedding: every id must complete
  Gateway gateway(&cluster, gconfig);
  CallbackExecutor callbacks;
  gateway.set_callback_executor(&callbacks);
  ConcurrentIngress ingress(&gateway, &cluster.executor(), /*capacity=*/256);

  std::vector<std::atomic<int>> resolutions(kTotal);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::int64_t id = static_cast<std::int64_t>(p) * kPerProducer + i;
        Submission cell = make_submission(id, id % 3, [&, id](const GatewayResult& r) {
          EXPECT_EQ(r.disposition, Disposition::kCompleted);
          resolutions[static_cast<std::size_t>(id)].fetch_add(1);
        });
        while (!ingress.try_submit(cell)) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  // Producers are quiescent: wait for the armed drains to hand everything
  // to the gateway, then for the engine to finish, then for the fan-out.
  while (ingress.drained() < ingress.accepted()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.run_to_completion();
  callbacks.drain();

  EXPECT_EQ(ingress.accepted(), static_cast<std::uint64_t>(kTotal));
  for (int id = 0; id < kTotal; ++id) {
    EXPECT_EQ(resolutions[static_cast<std::size_t>(id)].load(), 1)
        << "request " << id << " resolved wrong number of times";
  }
  EXPECT_EQ(gateway.counters().completed, kTotal);
  EXPECT_EQ(callbacks.executed(), static_cast<std::uint64_t>(kTotal));
}

TEST(IngestTest, ExactlyOnceUnderConcurrentSubmitAndKillGpu) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 100;
  constexpr int kTotal = kProducers * kPerProducer;
  const auto config =
      testkit::ClusterBuilder().nodes(2).gpus_per_node(2).config();
  cluster::RealTimeCluster cluster(config, testkit::head_registry(3),
                                   /*time_scale=*/2000.0);
  GatewayConfig gconfig;
  gconfig.max_in_flight = kTotal;
  gconfig.default_slo = 0;  // no deadlines: nothing expires, nothing sheds
  Gateway gateway(&cluster, gconfig);
  CallbackExecutor callbacks;
  gateway.set_callback_executor(&callbacks);
  ConcurrentIngress ingress(&gateway, &cluster.executor(), /*capacity=*/256);

  std::vector<std::atomic<int>> resolutions(kTotal);
  std::atomic<int> completed{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::int64_t id = static_cast<std::int64_t>(p) * kPerProducer + i;
        Submission cell = make_submission(id, id % 3, [&, id](const GatewayResult& r) {
          if (r.disposition == Disposition::kCompleted) {
            completed.fetch_add(1);
          } else {
            EXPECT_EQ(r.disposition, Disposition::kFailed);
            failed.fetch_add(1);
          }
          resolutions[static_cast<std::size_t>(id)].fetch_add(1);
        });
        while (!ingress.try_submit(cell)) std::this_thread::yield();
      }
    });
  }
  // Kill a GPU while submissions race in: in-flight work on it fails,
  // everything else reroutes, and every callback still fires once. (The
  // delay is sim time; at time_scale 2000 this lands ~10ms of wall time
  // into the run, mid-burst.)
  cluster.executor().schedule_after(sec(20), [&] { cluster.kill_gpu(GpuId(0)); });
  for (auto& t : producers) t.join();
  while (ingress.drained() < ingress.accepted()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.run_to_completion();
  callbacks.drain();

  EXPECT_EQ(completed.load() + failed.load(), kTotal);
  for (int id = 0; id < kTotal; ++id) {
    EXPECT_EQ(resolutions[static_cast<std::size_t>(id)].load(), 1)
        << "request " << id << " resolved wrong number of times";
  }
  EXPECT_EQ(gateway.counters().completed + gateway.counters().failed, kTotal);
}

// ---------------------------------------------------------------------------
// Batched admission vs sequential submission
// ---------------------------------------------------------------------------

struct RunOutcome {
  std::map<std::int64_t, Disposition> dispositions;
  std::uint64_t completion_digest = 0;
  GatewayCounters counters;
};

std::uint64_t digest_completions(
    const std::vector<core::CompletionRecord>& records) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& r : records) {
    mix(static_cast<std::uint64_t>(r.id.value()));
    mix(static_cast<std::uint64_t>(r.gpu.value()));
    mix(static_cast<std::uint64_t>(r.dispatched));
    mix(static_cast<std::uint64_t>(r.completed));
    mix(r.failed ? 1u : 0u);
  }
  return h;
}

// Replays `requests` through a gateway under contention (bounded window,
// finite SLO → real shed/queue decisions), either one submit() per
// request or one submit_batch() per same-arrival burst. Returns per-id
// dispositions plus a digest of the engine's completion stream.
RunOutcome run_gateway(const std::vector<core::Request>& requests,
                       bool batched) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  GatewayConfig config;
  config.max_in_flight = 8;
  config.max_pending = 16;
  config.default_slo = sec(120);
  Gateway gateway(cluster.get(), config);

  RunOutcome outcome;
  auto callback_for = [&outcome](std::int64_t id) {
    return [&outcome, id](const GatewayResult& result) {
      const bool inserted =
          outcome.dispositions.emplace(id, result.disposition).second;
      EXPECT_TRUE(inserted) << "request " << id << " resolved twice";
    };
  };
  if (batched) {
    cluster->replay_batched(requests, [&](std::vector<core::Request> burst) {
      std::vector<Submission> cells;
      cells.reserve(burst.size());
      for (core::Request& request : burst) {
        const std::int64_t id = request.id.value();
        cells.push_back(Submission{std::move(request), callback_for(id)});
      }
      gateway.submit_batch(std::move(cells));
    });
  } else {
    cluster->replay(requests, [&](core::Request request) {
      const std::int64_t id = request.id.value();
      gateway.submit(std::move(request), callback_for(id));
    });
  }
  outcome.completion_digest = digest_completions(cluster->engine().completions());
  outcome.counters = gateway.counters();
  return outcome;
}

std::vector<core::Request> bursty_requests(std::uint64_t seed,
                                           std::int64_t count,
                                           std::int64_t models) {
  Rng rng(seed);
  std::vector<core::Request> requests;
  requests.reserve(static_cast<std::size_t>(count));
  SimTime arrival = 0;
  for (std::int64_t id = 0; id < count; ++id) {
    // Bursts of 1-8 share an arrival; gaps are short enough to keep the
    // admission window saturated (real shed-vs-queue decisions).
    if (id > 0 && rng() % 4 == 0) arrival += msec(50 + rng() % 400);
    requests.push_back(testkit::make_request(
        id, static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(models)),
        arrival));
  }
  return requests;
}

TEST(BatchedAdmissionTest, DecisionsMatchSequentialSubmission) {
  const auto requests = bursty_requests(/*seed=*/7, /*count=*/400, /*models=*/3);
  const RunOutcome sequential = run_gateway(requests, /*batched=*/false);
  const RunOutcome batched = run_gateway(requests, /*batched=*/true);

  ASSERT_EQ(sequential.dispositions.size(), requests.size());
  ASSERT_EQ(batched.dispositions.size(), requests.size());
  // Real contention: both kinds of outcome must actually occur or the
  // test proves nothing about the shed-vs-queue estimate.
  EXPECT_GT(sequential.counters.shed, 0);
  EXPECT_GT(sequential.counters.completed, 0);
  EXPECT_EQ(batched.dispositions, sequential.dispositions);
  EXPECT_EQ(batched.completion_digest, sequential.completion_digest);
  EXPECT_EQ(batched.counters.shed, sequential.counters.shed);
  EXPECT_EQ(batched.counters.admitted, sequential.counters.admitted);
}

TEST(BatchedAdmissionTest, RandomizedSeedsConserveDispositions) {
  for (std::uint64_t seed : {11ull, 23ull, 47ull}) {
    const auto requests = bursty_requests(seed, /*count=*/250, /*models=*/3);
    const RunOutcome sequential = run_gateway(requests, /*batched=*/false);
    const RunOutcome batched = run_gateway(requests, /*batched=*/true);
    const auto total = [&](const RunOutcome& o) {
      return o.counters.completed + o.counters.shed + o.counters.expired +
             o.counters.failed;
    };
    EXPECT_EQ(total(sequential), static_cast<std::int64_t>(requests.size()));
    EXPECT_EQ(total(batched), static_cast<std::int64_t>(requests.size()));
    EXPECT_EQ(batched.dispositions, sequential.dispositions) << "seed " << seed;
    EXPECT_EQ(batched.completion_digest, sequential.completion_digest)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace gfaas::gateway
