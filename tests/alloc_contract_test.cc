// Allocation contract of the serving path. Once warm, a request that
// hits the cache — dispatched straight to an idle holder, or parked in a
// busy holder's local queue first — is submitted, scheduled, executed and
// completed without a single heap allocation, across the engine and its
// request table, the cluster-state index, the cache manager, the GPU
// manager and the simulator. That stack runs without the datastore (null
// KvStore): the Cache Manager's LRU-list / location mirror, the only
// datastore writer left, still allocates on every cache access. The full
// serving front end — ConcurrentIngress, Gateway admission (window and
// pending queue), flight slots, result delivery and the CallbackExecutor
// thread — adds no allocation to that engine path on the same cluster,
// so a cache hit served through the Gateway allocates only inside the
// mirror. Five narrower contracts ride along: the simulator's sorted run
// stays bounded when it never drains, tenant admission denies without
// allocating, the Gateway's shed-vs-queue estimate walks a busy fleet
// without allocating, the shard router routes a replicated model,
// salted or weighed against shard backlogs, without allocating, and a
// warm steal barrier moves queued requests between two shards' engines
// without allocating.
//
// This binary replaces the global operator new with a counter that only
// counts inside the measured window.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "cache/cache_manager.h"
#include "cluster/engine.h"
#include "cluster/experiment.h"
#include "cluster/gpu_manager.h"
#include "common/log.h"
#include "concurrent/callback_executor.h"
#include "core/scheduler.h"
#include "gateway/gateway.h"
#include "gateway/ingress.h"
#include "gateway/tenancy.h"
#include "gpu/gpu_spec.h"
#include "gpu/pcie.h"
#include "gpu/virtual_gpu.h"
#include "models/latency_model.h"
#include "models/zoo.h"
#include "shard/experiment.h"
#include "shard/router.h"
#include "shard/sharded_cluster.h"
#include "sim/simulator.h"
#include "testing/builders.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = align == 0 ? std::malloc(size)
                       : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// GCC's call-site analysis models `new` as its builtin allocator and flags
// the free() below as mismatched; it is not (every new here is malloc).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace gfaas::cluster {
namespace {

// One model, id 0, with the given inference time (1 ms by default).
models::ModelRegistry one_model(SimTime infer_time_b32 = msec(1)) {
  models::ModelRegistry registry;
  models::ModelProfile profile = *models::find_model("squeezenet1.1");
  profile.id = ModelId(0);
  profile.infer_time_b32 = infer_time_b32;
  GFAAS_CHECK(registry.register_model(profile).ok());
  return registry;
}

// Warm cache hits on `nodes` x `gpus_per_node` GPUs allocate nothing.
// Two cold loads warm `holder_a` and `holder_b` (the GPUs between them
// are fenced meanwhile, so the second load skips them); no other GPU ever
// holds the model. In every later round of four, two requests hit the
// idle holders and two park in the busy holders' local queues (offered by
// the lowest idle non-holder, since waiting 1-2 ms beats its 2.41 s
// upload).
void expect_warm_hits_allocate_nothing(std::int64_t nodes, std::int64_t gpus_per_node,
                                       GpuId holder_a, GpuId holder_b) {
  constexpr std::size_t kWindow = 1000;
  models::ModelRegistry registry = one_model();

  sim::Simulator sim;
  cache::CacheManager cache(cache::PolicyKind::kLru, /*store=*/nullptr);
  std::vector<std::unique_ptr<gpu::PcieLink>> links;
  std::vector<std::unique_ptr<gpu::VirtualGpu>> devices;
  std::vector<std::unique_ptr<GpuManager>> managers;
  std::vector<GpuManager*> manager_ptrs;
  for (std::int64_t node = 0; node < nodes; ++node) {
    links.push_back(std::make_unique<gpu::PcieLink>(12.6, usec(20)));
    std::vector<gpu::VirtualGpu*> raw;
    for (std::int64_t g = 0; g < gpus_per_node; ++g) {
      const GpuId id(node * gpus_per_node + g);
      devices.push_back(
          std::make_unique<gpu::VirtualGpu>(id, gpu::rtx2080(), links.back().get()));
      raw.push_back(devices.back().get());
      cache.add_gpu(id, devices.back()->memory_capacity());
    }
    managers.push_back(
        std::make_unique<GpuManager>(NodeId(node), &sim, &cache, &registry, raw));
    manager_ptrs.push_back(managers.back().get());
  }
  SchedulerEngine engine(&sim, &cache, &registry, manager_ptrs,
                         core::make_scheduler(core::PolicyName::kLalbO3));

  std::int64_t next_id = 0;
  const auto submit = [&](int count) {
    for (int i = 0; i < count; ++i) {
      engine.submit(testkit::make_request(next_id++, 0, sim.now()));
    }
    sim.run();
  };
  for (std::int64_t g = holder_a.value() + 1; g < holder_b.value(); ++g) {
    engine.fence_gpu(GpuId(g));
  }
  submit(2);
  for (std::int64_t g = holder_a.value() + 1; g < holder_b.value(); ++g) {
    engine.unfence_gpu(GpuId(g));
  }
  ASSERT_EQ(cache.locations(ModelId(0)), (std::vector<GpuId>{holder_a, holder_b}));
  // Warm every amortized container: run until the completion log has
  // room for the window without growing.
  while (engine.completions().capacity() - engine.completions().size() < kWindow) {
    submit(4);
  }
  const std::size_t before = engine.completions().size();

  g_allocs.store(0);
  g_counting.store(true);
  for (std::size_t round = 0; round < kWindow / 4; ++round) submit(4);
  g_counting.store(false);
  const std::uint64_t allocs = g_allocs.load();

  ASSERT_EQ(engine.completions().size(), before + kWindow);
  std::size_t via_local = 0;
  for (std::size_t i = before; i < engine.completions().size(); ++i) {
    const core::CompletionRecord& record = engine.completions()[i];
    EXPECT_TRUE(record.cache_hit) << "request " << record.id.value();
    EXPECT_TRUE(record.gpu == holder_a || record.gpu == holder_b)
        << "request " << record.id.value() << " ran on gpu " << record.gpu.value();
    if (record.via_local_queue) ++via_local;
  }
  EXPECT_EQ(via_local, kWindow / 2);
  EXPECT_EQ(allocs, 0u) << "allocations on the warm cache-hit request path";
  engine.audit();
}

TEST(AllocContractTest, CacheHitRequestsAllocateNothingOnceWarm) {
  expect_warm_hits_allocate_nothing(/*nodes=*/1, /*gpus_per_node=*/3, GpuId(0), GpuId(1));
}

// 17 nodes x 8 GPUs: the holder and idle bitsets span three words (the
// last one partial), and the holders sit in the first and the last.
TEST(AllocContractTest, CacheHitRequestsAllocateNothingOnceWarmOn136Gpus) {
  expect_warm_hits_allocate_nothing(/*nodes=*/17, /*gpus_per_node=*/8, GpuId(0),
                                    GpuId(128));
}

// Grows both of the executor's swap buffers (its queue and the batch the
// callback thread runs) to hold `depth` tasks. A held callback pins one
// buffer on the callback thread while `depth` no-ops land in the other;
// the second hold sits at the end of that batch, so the buffers trade
// places before the next `depth` land.
void warm_callback_buffers(concurrent::CallbackExecutor& callbacks, int depth) {
  std::atomic<int> started{0};
  std::atomic<int> released{0};
  const auto hold = [&started, &released](int id) {
    return [&started, &released, id] {
      started.store(id);
      while (released.load() < id) std::this_thread::yield();
    };
  };
  callbacks.post(hold(1));
  while (started.load() < 1) std::this_thread::yield();
  for (int i = 0; i < depth; ++i) callbacks.post([] {});
  callbacks.post(hold(2));
  released.store(1);
  while (started.load() < 2) std::this_thread::yield();
  for (int i = 0; i < depth; ++i) callbacks.post([] {});
  released.store(2);
  callbacks.drain();
}

TEST(AllocContractTest, GatewayFrontEndAddsNoAllocationOnceWarm) {
  constexpr std::size_t kWindow = 1000;
  constexpr int kRound = 4;
  ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 3;
  SimCluster cluster(config, one_model());
  gateway::GatewayConfig gconfig;
  // Two requests in flight: half of every round waits in the pending
  // queue and is admitted from a completion.
  gconfig.max_in_flight = 2;
  // Short enough that the outcome window trims throughout the warm-up.
  gconfig.stats_window = msec(50);
  gateway::Gateway gateway(&cluster, gconfig);
  concurrent::CallbackExecutor callbacks;
  gateway.set_callback_executor(&callbacks);
  gateway::ConcurrentIngress ingress(&gateway, &cluster.executor(), /*capacity=*/64);

  std::atomic<std::size_t> hits{0};
  const gateway::ResultCallback done = [&hits](const gateway::GatewayResult& result) {
    if (result.disposition == gateway::Disposition::kCompleted &&
        result.record.cache_hit) {
      hits.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::int64_t next_id = 0;
  // One round through the front end: producer submit, ingress drain,
  // admission, engine, callback thread.
  const auto via_gateway = [&] {
    for (int i = 0; i < kRound; ++i) {
      gateway::Submission cell{testkit::make_request(next_id++, 0, 0), done};
      ASSERT_TRUE(ingress.try_submit(cell));
    }
    cluster.run_to_completion();
    callbacks.drain();
  };
  // The same round straight into the engine.
  const auto direct = [&] {
    for (int i = 0; i < kRound; ++i) {
      cluster.engine().submit(
          testkit::make_request(next_id++, 0, cluster.simulator().now()));
    }
    cluster.run_to_completion();
  };
  // Two cold loads warm GPUs 0 and 1; GPU 2 never holds the model.
  for (int i = 0; i < 2; ++i) {
    cluster.engine().submit(testkit::make_request(next_id++, 0, 0));
  }
  cluster.run_to_completion();
  ASSERT_EQ(cluster.cache().duplicate_count(ModelId(0)), 2u);
  warm_callback_buffers(callbacks, 2 * kRound);
  const auto& completions = cluster.engine().completions();
  while (completions.capacity() - completions.size() < 2 * kWindow) via_gateway();
  direct();
  hits.store(0);

  g_allocs.store(0);
  g_counting.store(true);
  for (std::size_t round = 0; round < kWindow / kRound; ++round) via_gateway();
  g_counting.store(false);
  const std::uint64_t gateway_allocs = g_allocs.load();
  const std::size_t before = completions.size();

  g_allocs.store(0);
  g_counting.store(true);
  for (std::size_t round = 0; round < kWindow / kRound; ++round) direct();
  g_counting.store(false);
  const std::uint64_t engine_allocs = g_allocs.load();

  EXPECT_EQ(hits.load(), kWindow);
  ASSERT_EQ(completions.size(), before + kWindow);
  for (std::size_t i = before; i < completions.size(); ++i) {
    EXPECT_TRUE(completions[i].cache_hit) << "request " << completions[i].id.value();
  }
  // The engine path's allocations are the datastore mirror's (see the
  // first case); the front end must add none.
  EXPECT_EQ(gateway_allocs, engine_allocs)
      << "the serving front end allocated "
      << static_cast<double>(gateway_allocs - engine_allocs) / kWindow
      << " times per request over the engine's " << engine_allocs / kWindow;
  EXPECT_EQ(gateway.counters().completed, gateway.counters().submitted);
  EXPECT_EQ(ingress.drained(), ingress.accepted());
  gateway.audit();
  cluster.engine().audit();
}

// Reschedules itself 1000 ns ahead. A plain pointer, so std::function
// stores it inline.
struct Tick {
  sim::Simulator* sim;
  void operator()() const { sim->schedule_after(1000, Tick{sim}); }
};

TEST(AllocContractTest, SimulatorRunThatNeverDrainsAllocatesNothingOnceWarm) {
  // 100 staggered chains: every event appends behind the run's tail, so
  // the run never drains and only compaction keeps it from growing.
  sim::Simulator sim;
  for (SimTime t = 0; t < 1000; t += 10) sim.schedule_at(t, Tick{&sim});
  for (int i = 0; i < 10000; ++i) ASSERT_TRUE(sim.step());

  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < 10000; ++i) sim.step();
  g_counting.store(false);
  EXPECT_EQ(g_allocs.load(), 0u) << "allocations while the run never drains";
  EXPECT_EQ(sim.pending_events(), 100u);
  sim.audit();
}

TEST(AllocContractTest, TenantDenialsAllocateNothing) {
  const TenantId capped(1), limited(2), ghost(3);
  gateway::TenantManager tenants(/*total_gpus=*/4);
  gateway::TenantQuota cap_quota;
  cap_quota.max_concurrent_executions = 1;
  ASSERT_TRUE(tenants.register_tenant(capped, cap_quota).ok());
  gateway::TenantQuota rate_quota;
  rate_quota.requests_per_sec = 1;
  rate_quota.burst = 1;
  ASSERT_TRUE(tenants.register_tenant(limited, rate_quota).ok());
  ASSERT_EQ(tenants.admit(capped, 0), gateway::Admission::kAdmitted);
  tenants.on_dispatch(capped);
  ASSERT_EQ(tenants.admit(limited, 0), gateway::Admission::kAdmitted);

  g_allocs.store(0);
  g_counting.store(true);
  int denied = 0;
  for (int i = 0; i < 1000; ++i) {
    const TenantId tenant = i % 3 == 0 ? capped : i % 3 == 1 ? limited : ghost;
    if (tenants.admit(tenant, 0) != gateway::Admission::kAdmitted) ++denied;
  }
  g_counting.store(false);
  EXPECT_EQ(denied, 1000);
  EXPECT_EQ(g_allocs.load(), 0u) << "allocations on tenant denials";
}

TEST(AllocContractTest, GatewayEstimateOverBusyFleetAllocatesNothingOnceWarm) {
  // 8 GPUs, 12 requests for 3 models: every GPU is busy (loading or
  // running) at t = 1 ms, and 4 requests wait in the global queue.
  auto cluster = testkit::ClusterBuilder().nodes(2).gpus_per_node(4).build();
  gateway::Gateway gateway(cluster.get());
  for (std::int64_t id = 0; id < 12; ++id) {
    cluster->simulator().schedule_at(0, [&gateway, id] {
      gateway.submit(testkit::make_request(id, id % 3, 0),
                     [](const gateway::GatewayResult&) {});
    });
  }
  std::size_t busy = 0;
  std::uint64_t allocs = 0;
  SimTime first = 0;
  bool stable = true;
  cluster->simulator().schedule_at(msec(1), [&] {
    busy = cluster->engine().busy_gpus().size();
    const core::Request probe = testkit::make_request(100, 1, msec(1));
    first = gateway.estimated_completion(probe);
    g_allocs.store(0);
    g_counting.store(true);
    for (int i = 0; i < 1000; ++i) {
      stable = stable && gateway.estimated_completion(probe) == first;
    }
    g_counting.store(false);
    allocs = g_allocs.load();
  });
  cluster->run_to_completion();
  EXPECT_EQ(busy, 8u);
  EXPECT_GT(first, msec(1));
  EXPECT_TRUE(stable);
  EXPECT_EQ(allocs, 0u) << "allocations in Gateway::estimated_completion";
}

TEST(ShardRouterTest, ReplicatedRouteAllocatesNothing) {
  shard::ShardRouter router(16);
  router.set_replication(ModelId(0), 3);
  router.set_replication(ModelId(1), 5);
  std::size_t replicated = 0;
  g_allocs.store(0);
  g_counting.store(true);
  for (std::uint64_t salt = 0; salt < 1000; ++salt) {
    const auto model = ModelId(static_cast<std::int64_t>(salt % 3));
    if (router.route(model, salt) != router.route(model)) ++replicated;
  }
  g_counting.store(false);
  EXPECT_GT(replicated, 0u);
  EXPECT_EQ(g_allocs.load(), 0u) << "allocations in ShardRouter::route";
}

TEST(ShardRouterTest, BacklogAwareRouteAllocatesNothing) {
  shard::ShardRouter router(16);
  router.set_replication(ModelId(0), 3);
  router.set_replication(ModelId(1), 5);
  std::vector<std::size_t> backlog(16);
  for (std::size_t s = 0; s < backlog.size(); ++s) backlog[s] = (s * 7) % 11;
  std::size_t moved = 0;
  g_allocs.store(0);
  g_counting.store(true);
  for (std::uint64_t salt = 0; salt < 1000; ++salt) {
    const auto model = ModelId(static_cast<std::int64_t>(salt % 3));
    const std::size_t target = router.route_by_backlog(model, salt, backlog);
    if (target != router.route(model, salt)) ++moved;
    ++backlog[target];
  }
  g_counting.store(false);
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(g_allocs.load(), 0u) << "allocations in ShardRouter::route_by_backlog";
}

TEST(ShardedClusterTest, WarmStealBarrierAllocatesNothing) {
  // Two shards of two GPUs and one model whose inference never ends here
  // (the simulators never run): both shards' GPUs are busy with it, so
  // requests stay in the global queues and no cache access (the datastore
  // mirror allocates on each) happens inside the window. Shard 1 holds
  // the model warm, so the selective filter lets the donor's newest
  // requests go: at depths 40 and 0 both triggers are 24 (1.2 x the mean
  // depth of 20), so the donor's 16 past it move. Each round tops the
  // donor up and cancels what the thief received, outside the window.
  ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  shard::ShardedCluster sharded(shard::partition_config(config, 2), one_model(sec(100000)));
  SchedulerEngine& donor = sharded.engine(0);
  SchedulerEngine& thief = sharded.engine(1);
  std::int64_t next_id = 0;
  for (SchedulerEngine* engine : {&donor, &thief}) {
    for (int i = 0; i < 2; ++i) engine->submit(testkit::make_request(next_id++, 0, 0));
    ASSERT_EQ(engine->idle_gpu_count(), 0u);
  }
  std::vector<RequestId> received;
  const auto round = [&](bool count) -> std::size_t {
    while (donor.global_queue().size() < 40) {
      donor.submit(testkit::make_request(next_id++, 0, 0));
    }
    if (count) g_counting.store(true);
    const std::size_t moved = sharded.steal_rebalance(0);
    g_counting.store(false);
    received.clear();
    for (const core::Request& request : thief.global_queue()) received.push_back(request.id);
    for (const RequestId id : received) EXPECT_TRUE(thief.cancel_request(id));
    return moved;
  };
  for (int warm = 0; warm < 3; ++warm) ASSERT_EQ(round(false), 16u);
  g_allocs.store(0);
  std::size_t moved = 0;
  for (int i = 0; i < 1000; ++i) moved += round(true);
  EXPECT_EQ(moved, 16000u);
  EXPECT_EQ(g_allocs.load(), 0u) << "allocations in the steal barrier";
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) sharded.engine(s).audit();
}

}  // namespace
}  // namespace gfaas::cluster
