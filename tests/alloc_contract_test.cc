// Allocation contract of the scheduler's request path. Once warm, a
// request that hits the cache — dispatched straight to an idle holder, or
// parked in a busy holder's local queue first — is submitted, scheduled,
// executed and completed without a single heap allocation, across the
// engine and its request table, the cluster-state index, the cache
// manager, the GPU manager and the simulator. The stack runs without the
// datastore mirror (null KvStore), which still allocates on every request.
//
// This binary replaces the global operator new with a counter that only
// counts inside the measured window.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "cache/cache_manager.h"
#include "cluster/engine.h"
#include "cluster/gpu_manager.h"
#include "core/scheduler.h"
#include "gpu/gpu_spec.h"
#include "gpu/pcie.h"
#include "gpu/virtual_gpu.h"
#include "models/latency_model.h"
#include "models/zoo.h"
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

TEST(AllocContractTest, CacheHitRequestsAllocateNothingOnceWarm) {
  constexpr std::size_t kWindow = 1000;
  // One model with a 1 ms inference, so the whole run stays inside the
  // first minute of the engine's per-minute series.
  models::ModelRegistry registry;
  models::ModelProfile profile = *models::find_model("squeezenet1.1");
  profile.id = ModelId(0);
  profile.infer_time_b32 = msec(1);
  ASSERT_TRUE(registry.register_model(profile).ok());
  const models::LatencyOracle oracle(registry);

  sim::Simulator sim;
  cache::CacheManager cache(cache::PolicyKind::kLru, /*store=*/nullptr);
  gpu::PcieLink link(12.6, usec(20));
  std::vector<std::unique_ptr<gpu::VirtualGpu>> devices;
  std::vector<gpu::VirtualGpu*> raw;
  for (std::int64_t g = 0; g < 3; ++g) {
    devices.push_back(std::make_unique<gpu::VirtualGpu>(GpuId(g), gpu::rtx2080(), &link));
    raw.push_back(devices.back().get());
    cache.add_gpu(GpuId(g), devices.back()->memory_capacity());
  }
  GpuManager manager(NodeId(0), &sim, /*store=*/nullptr, &cache, &registry, &oracle,
                     raw);
  SchedulerEngine engine(&sim, &cache, &oracle, {&manager},
                         core::make_scheduler(core::PolicyName::kLalbO3));

  std::int64_t next_id = 0;
  const auto submit = [&](int count) {
    for (int i = 0; i < count; ++i) {
      engine.submit(testkit::make_request(next_id++, 0, sim.now()));
    }
    sim.run();
  };
  // Two cold loads warm GPUs 0 and 1; GPU 2 never holds the model. In
  // every later round of four, two requests hit the idle holders and two
  // park in the busy holders' local queues (offered by the idle GPU 2,
  // since waiting 1-2 ms beats its 2.41 s upload).
  submit(2);
  ASSERT_EQ(cache.duplicate_count(ModelId(0)), 2u);
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
    if (record.via_local_queue) ++via_local;
  }
  EXPECT_EQ(via_local, kWindow / 2);
  EXPECT_EQ(engine.latency_series().bucket_count(), 1u);
  EXPECT_EQ(allocs, 0u) << "allocations on the warm cache-hit request path";
  engine.audit();
}

}  // namespace
}  // namespace gfaas::cluster
