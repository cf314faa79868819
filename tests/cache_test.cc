// Unit tests for the cache module: eviction policy orderings, per-GPU
// cache state (insert/remove/pin/eviction planning), and the global
// CacheManager with its datastore mirroring.
#include <gtest/gtest.h>

#include <vector>

#include "cache/cache_manager.h"
#include "cache/policy.h"
#include "datastore/keys.h"
#include "datastore/kv_store.h"

namespace gfaas::cache {
namespace {

std::vector<std::int64_t> order_values(const EvictionPolicy& policy) {
  std::vector<std::int64_t> out;
  for (ModelId m : policy.eviction_order()) out.push_back(m.value());
  return out;
}

TEST(PolicyTest, LruEvictsLeastRecentlyUsed) {
  LruPolicy lru;
  lru.on_insert(ModelId(1));
  lru.on_insert(ModelId(2));
  lru.on_insert(ModelId(3));
  EXPECT_EQ(order_values(lru), (std::vector<std::int64_t>{1, 2, 3}));
  lru.on_access(ModelId(1));  // 1 becomes MRU
  EXPECT_EQ(order_values(lru), (std::vector<std::int64_t>{2, 3, 1}));
  lru.on_remove(ModelId(3));
  EXPECT_EQ(order_values(lru), (std::vector<std::int64_t>{2, 1}));
  EXPECT_EQ(lru.size(), 2u);
}

TEST(PolicyTest, MruEvictsMostRecentlyUsed) {
  MruPolicy mru;
  mru.on_insert(ModelId(1));
  mru.on_insert(ModelId(2));
  mru.on_access(ModelId(1));
  // Eviction order is most-recent first: 1 then 2.
  EXPECT_EQ(order_values(mru), (std::vector<std::int64_t>{1, 2}));
}

TEST(PolicyTest, FifoIgnoresAccesses) {
  FifoPolicy fifo;
  fifo.on_insert(ModelId(1));
  fifo.on_insert(ModelId(2));
  fifo.on_access(ModelId(1));
  fifo.on_access(ModelId(1));
  EXPECT_EQ(order_values(fifo), (std::vector<std::int64_t>{1, 2}));
}

TEST(PolicyTest, LfuEvictsLeastFrequent) {
  LfuPolicy lfu;
  lfu.on_insert(ModelId(1));
  lfu.on_insert(ModelId(2));
  lfu.on_insert(ModelId(3));
  lfu.on_access(ModelId(1));
  lfu.on_access(ModelId(1));
  lfu.on_access(ModelId(3));
  // Counts: 1 -> 3, 2 -> 1, 3 -> 2.
  EXPECT_EQ(order_values(lfu), (std::vector<std::int64_t>{2, 3, 1}));
}

TEST(PolicyTest, LfuTieBrokenByInsertionOrder) {
  LfuPolicy lfu;
  lfu.on_insert(ModelId(5));
  lfu.on_insert(ModelId(7));
  EXPECT_EQ(order_values(lfu), (std::vector<std::int64_t>{5, 7}));
}

TEST(PolicyTest, FactoryProducesAllKinds) {
  for (PolicyKind kind :
       {PolicyKind::kLru, PolicyKind::kMru, PolicyKind::kFifo, PolicyKind::kLfu}) {
    auto policy = make_policy(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), policy_kind_name(kind));
  }
}

TEST(GpuCacheStateTest, InsertTracksBytes) {
  GpuCacheState state(GpuId(0), MB(1000), PolicyKind::kLru);
  EXPECT_TRUE(state.insert(ModelId(1), MB(300)).ok());
  EXPECT_EQ(state.used(), MB(300));
  EXPECT_EQ(state.free(), MB(700));
  EXPECT_TRUE(state.contains(ModelId(1)));
  EXPECT_EQ(state.size_of(ModelId(1)), MB(300));
}

TEST(GpuCacheStateTest, InsertRejectsOverflowDuplicateAndBadSize) {
  GpuCacheState state(GpuId(0), MB(1000), PolicyKind::kLru);
  ASSERT_TRUE(state.insert(ModelId(1), MB(800)).ok());
  EXPECT_EQ(state.insert(ModelId(2), MB(300)).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(state.insert(ModelId(1), MB(100)).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(state.insert(ModelId(3), 0).code(), StatusCode::kInvalidArgument);
  // The capacity boundary is exact: one byte over is refused, an exact
  // fill is accepted, and then even one byte is refused.
  const Bytes rest = state.free();
  EXPECT_EQ(state.insert(ModelId(2), rest + 1).code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(state.insert(ModelId(2), rest).ok());
  EXPECT_EQ(state.free(), 0);
  EXPECT_EQ(state.used(), state.capacity());
  EXPECT_EQ(state.insert(ModelId(3), 1).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(state.insert(ModelId(2), MB(1)).code(), StatusCode::kAlreadyExists);
  state.audit();
}

TEST(GpuCacheStateTest, RemoveRespectsPins) {
  GpuCacheState state(GpuId(0), MB(1000), PolicyKind::kLru);
  ASSERT_TRUE(state.insert(ModelId(1), MB(100)).ok());
  state.pin(ModelId(1));
  EXPECT_EQ(state.remove(ModelId(1)).code(), StatusCode::kFailedPrecondition);
  state.unpin(ModelId(1));
  EXPECT_TRUE(state.remove(ModelId(1)).ok());
  EXPECT_EQ(state.remove(ModelId(1)).code(), StatusCode::kNotFound);
}

TEST(GpuCacheStateTest, NestedPinsCount) {
  GpuCacheState state(GpuId(0), MB(1000), PolicyKind::kLru);
  ASSERT_TRUE(state.insert(ModelId(1), MB(100)).ok());
  state.pin(ModelId(1));
  state.pin(ModelId(1));
  state.unpin(ModelId(1));
  EXPECT_TRUE(state.pinned(ModelId(1)));
  state.unpin(ModelId(1));
  EXPECT_FALSE(state.pinned(ModelId(1)));
}

TEST(GpuCacheStateTest, PlanEvictionFollowsLruOrder) {
  GpuCacheState state(GpuId(0), MB(1000), PolicyKind::kLru);
  ASSERT_TRUE(state.insert(ModelId(1), MB(400)).ok());
  ASSERT_TRUE(state.insert(ModelId(2), MB(400)).ok());
  ASSERT_EQ(state.acquire(ModelId(1)), Residency::kUnloaded);  // 2 is now LRU
  state.unpin(ModelId(1));
  EXPECT_EQ(state.acquire(ModelId(3)), Residency::kMiss);
  auto victims = state.plan_eviction(MB(500));
  ASSERT_TRUE(victims.ok());
  ASSERT_EQ(victims->size(), 1u);
  EXPECT_EQ((*victims)[0], ModelId(2));
}

TEST(GpuCacheStateTest, PlanEvictionEmptyWhenFits) {
  GpuCacheState state(GpuId(0), MB(1000), PolicyKind::kLru);
  ASSERT_TRUE(state.insert(ModelId(1), MB(100)).ok());
  auto victims = state.plan_eviction(MB(500));
  ASSERT_TRUE(victims.ok());
  EXPECT_TRUE(victims->empty());
}

TEST(GpuCacheStateTest, PlanEvictionSkipsPinned) {
  GpuCacheState state(GpuId(0), MB(1000), PolicyKind::kLru);
  ASSERT_TRUE(state.insert(ModelId(1), MB(400)).ok());
  ASSERT_TRUE(state.insert(ModelId(2), MB(400)).ok());
  state.pin(ModelId(1));
  auto victims = state.plan_eviction(MB(500));
  ASSERT_TRUE(victims.ok());
  ASSERT_EQ(victims->size(), 1u);
  EXPECT_EQ((*victims)[0], ModelId(2));  // pinned 1 skipped despite LRU
  state.pin(ModelId(2));
  EXPECT_EQ(state.plan_eviction(MB(500)).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(CacheManagerTest, HitMissEvictionStats) {
  CacheManager manager(PolicyKind::kLru);
  manager.add_gpu(GpuId(0), MB(1000));
  EXPECT_FALSE(manager.is_cached(GpuId(0), ModelId(1)));
  EXPECT_TRUE(manager.record_insertion(GpuId(0), ModelId(1), MB(400)).ok());
  EXPECT_TRUE(manager.is_cached(GpuId(0), ModelId(1)));
  EXPECT_EQ(manager.acquire(GpuId(0), ModelId(1)), Residency::kUnloaded);
  EXPECT_EQ(manager.acquire(GpuId(0), ModelId(2)), Residency::kMiss);
  ASSERT_TRUE(manager.unpin(GpuId(0), ModelId(1)).ok());
  EXPECT_TRUE(manager.record_eviction(GpuId(0), ModelId(1)).ok());
  EXPECT_EQ(manager.stats().hits, 1);
  EXPECT_EQ(manager.stats().misses, 1);
  EXPECT_EQ(manager.stats().evictions, 1);
  EXPECT_DOUBLE_EQ(manager.stats().miss_ratio(), 0.5);
  manager.audit();
}

TEST(CacheManagerTest, EntryLoadedOnlyAfterRecordLoad) {
  CacheManager manager(PolicyKind::kLru);
  manager.add_gpu(GpuId(0), MB(1000));
  EXPECT_EQ(manager.record_load(GpuId(0), ModelId(1)).code(), StatusCode::kNotFound);
  ASSERT_TRUE(manager.record_insertion(GpuId(0), ModelId(1), MB(400)).ok());
  EXPECT_TRUE(manager.is_cached(GpuId(0), ModelId(1)));
  EXPECT_FALSE(manager.state(GpuId(0)).loaded(ModelId(1)));
  ASSERT_TRUE(manager.record_load(GpuId(0), ModelId(1)).ok());
  EXPECT_TRUE(manager.state(GpuId(0)).loaded(ModelId(1)));
  // Eviction drops the flag with the entry; a re-insertion starts unloaded.
  ASSERT_TRUE(manager.record_eviction(GpuId(0), ModelId(1)).ok());
  EXPECT_FALSE(manager.state(GpuId(0)).loaded(ModelId(1)));
  ASSERT_TRUE(manager.record_insertion(GpuId(0), ModelId(1), MB(400)).ok());
  EXPECT_FALSE(manager.state(GpuId(0)).loaded(ModelId(1)));
  manager.audit();
}

TEST(CacheManagerTest, LocationsTrackMultipleGpus) {
  CacheManager manager(PolicyKind::kLru);
  manager.add_gpu(GpuId(0), MB(1000));
  manager.add_gpu(GpuId(1), MB(1000));
  manager.add_gpu(GpuId(2), MB(1000));
  ASSERT_TRUE(manager.record_insertion(GpuId(0), ModelId(7), MB(100)).ok());
  ASSERT_TRUE(manager.record_insertion(GpuId(2), ModelId(7), MB(100)).ok());
  EXPECT_EQ(manager.locations(ModelId(7)), (std::vector<GpuId>{GpuId(0), GpuId(2)}));
  EXPECT_TRUE(manager.cached_anywhere(ModelId(7)));
  EXPECT_FALSE(manager.cached_anywhere(ModelId(8)));
  EXPECT_EQ(manager.duplicate_count(ModelId(7)), 2u);
}

// Holders on both sides of every word boundary of a three-word fleet.
TEST(CacheManagerTest, HolderBitsetsSpanWordBoundariesInIdOrder) {
  CacheManager manager(PolicyKind::kLru);
  for (std::int64_t g = 0; g < 130; ++g) manager.add_gpu(GpuId(g), MB(1000));
  const std::vector<GpuId> holders = {GpuId(0), GpuId(63), GpuId(64), GpuId(127),
                                      GpuId(128)};
  // Inserted out of order; enumerated in ascending id order.
  for (GpuId gpu : {GpuId(128), GpuId(0), GpuId(64), GpuId(127), GpuId(63)}) {
    ASSERT_TRUE(manager.record_insertion(gpu, ModelId(4), MB(100)).ok());
  }
  ASSERT_TRUE(manager.record_insertion(GpuId(5), ModelId(1), MB(100)).ok());
  EXPECT_EQ(manager.locations(ModelId(4)), holders);
  EXPECT_EQ(manager.duplicate_count(ModelId(4)), 5u);
  EXPECT_EQ(manager.holders(ModelId(4)).word_count(), 3u);
  EXPECT_TRUE(manager.holders(ModelId(4)).test(GpuId(127)));
  EXPECT_FALSE(manager.holders(ModelId(4)).test(GpuId(126)));
  // Model 0 was never cached but sits below a seen id; model 9 is unseen.
  EXPECT_FALSE(manager.cached_anywhere(ModelId(0)));
  EXPECT_TRUE(manager.locations(ModelId(9)).empty());
  manager.audit();

  manager.fence_gpu(GpuId(64));
  EXPECT_EQ(manager.locations(ModelId(4)),
            (std::vector<GpuId>{GpuId(0), GpuId(63), GpuId(127), GpuId(128)}));
  manager.audit();
  manager.unfence_gpu(GpuId(64));
  EXPECT_EQ(manager.locations(ModelId(4)), holders);
  manager.audit();

  manager.fence_gpu(GpuId(127));
  manager.remove_gpu(GpuId(127));
  EXPECT_EQ(manager.locations(ModelId(4)),
            (std::vector<GpuId>{GpuId(0), GpuId(63), GpuId(64), GpuId(128)}));
  EXPECT_EQ(manager.duplicate_count(ModelId(4)), 4u);
  manager.audit();

  // A GPU joining after models are indexed widens every bitset to a
  // fourth word and keeps the holders.
  manager.add_gpu(GpuId(192), MB(1000));
  EXPECT_EQ(manager.holders(ModelId(4)).word_count(), 4u);
  manager.audit();
  ASSERT_TRUE(manager.record_insertion(GpuId(192), ModelId(4), MB(100)).ok());
  ASSERT_TRUE(manager.record_insertion(GpuId(192), ModelId(1), MB(100)).ok());
  EXPECT_EQ(manager.locations(ModelId(4)),
            (std::vector<GpuId>{GpuId(0), GpuId(63), GpuId(64), GpuId(128), GpuId(192)}));
  EXPECT_EQ(manager.locations(ModelId(1)), (std::vector<GpuId>{GpuId(5), GpuId(192)}));
  manager.audit();

  ASSERT_TRUE(manager.record_eviction(GpuId(0), ModelId(4)).ok());
  ASSERT_TRUE(manager.record_eviction(GpuId(192), ModelId(4)).ok());
  EXPECT_EQ(manager.locations(ModelId(4)),
            (std::vector<GpuId>{GpuId(63), GpuId(64), GpuId(128)}));
  manager.audit();
}

TEST(CacheManagerTest, PinUnpinValidatesResidency) {
  CacheManager manager(PolicyKind::kLru);
  manager.add_gpu(GpuId(0), MB(1000));
  EXPECT_EQ(manager.pin(GpuId(0), ModelId(1)).code(), StatusCode::kNotFound);
  ASSERT_TRUE(manager.record_insertion(GpuId(0), ModelId(1), MB(100)).ok());
  EXPECT_TRUE(manager.pin(GpuId(0), ModelId(1)).ok());
  EXPECT_TRUE(manager.unpin(GpuId(0), ModelId(1)).ok());
  EXPECT_EQ(manager.unpin(GpuId(0), ModelId(2)).code(), StatusCode::kNotFound);
}

TEST(CacheManagerTest, MirrorsLruAndLocationsToDatastore) {
  datastore::KvStore store;
  CacheManager manager(PolicyKind::kLru, &store);
  manager.add_gpu(GpuId(0), MB(1000));
  ASSERT_TRUE(manager.record_insertion(GpuId(0), ModelId(3), MB(100)).ok());
  ASSERT_TRUE(manager.record_insertion(GpuId(0), ModelId(5), MB(100)).ok());
  ASSERT_EQ(manager.acquire(GpuId(0), ModelId(3)), Residency::kUnloaded);

  auto lru = store.get(datastore::keys::gpu_lru(GpuId(0)));
  ASSERT_TRUE(lru.ok());
  EXPECT_EQ(lru->value, "5,3");  // LRU -> MRU after touching 3

  auto locations = store.get(datastore::keys::model_locations(ModelId(5)));
  ASSERT_TRUE(locations.ok());
  EXPECT_EQ(locations->value, "0");

  ASSERT_TRUE(manager.record_eviction(GpuId(0), ModelId(5)).ok());
  locations = store.get(datastore::keys::model_locations(ModelId(5)));
  ASSERT_TRUE(locations.ok());
  EXPECT_EQ(locations->value, "");
}

TEST(CacheManagerTest, SeparateListsPerGpu) {
  CacheManager manager(PolicyKind::kLru);
  manager.add_gpu(GpuId(0), MB(500));
  manager.add_gpu(GpuId(1), MB(500));
  ASSERT_TRUE(manager.record_insertion(GpuId(0), ModelId(1), MB(400)).ok());
  // GPU 1 unaffected: same model can be inserted there too.
  ASSERT_TRUE(manager.record_insertion(GpuId(1), ModelId(1), MB(400)).ok());
  auto victims0 = manager.plan_eviction(GpuId(0), MB(450));
  ASSERT_TRUE(victims0.ok());
  EXPECT_EQ(victims0->size(), 1u);
  EXPECT_EQ(manager.state(GpuId(1)).model_count(), 1u);
}

}  // namespace
}  // namespace gfaas::cache
