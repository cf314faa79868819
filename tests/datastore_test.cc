// Unit tests for the etcd-substitute KvStore: revisions/versions, ranges,
// CAS transactions, watches, leases, and the canonical key layout.
#include <gtest/gtest.h>

#include <vector>

#include "datastore/keys.h"
#include "datastore/kv_store.h"
#include "sim/simulator.h"

namespace gfaas::datastore {
namespace {

TEST(KvStoreTest, PutGetRoundTrip) {
  KvStore store;
  store.put("a", "1");
  auto kv = store.get("a");
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(kv->value, "1");
  EXPECT_EQ(kv->version, 1);
}

TEST(KvStoreTest, GetMissingIsNotFound) {
  KvStore store;
  EXPECT_EQ(store.get("nope").status().code(), StatusCode::kNotFound);
}

TEST(KvStoreTest, RevisionsIncreaseMonotonically) {
  KvStore store;
  const Revision r1 = store.put("a", "1");
  const Revision r2 = store.put("b", "2");
  const Revision r3 = store.put("a", "3");
  EXPECT_LT(r1, r2);
  EXPECT_LT(r2, r3);
  auto kv = store.get("a");
  EXPECT_EQ(kv->create_revision, r1);
  EXPECT_EQ(kv->mod_revision, r3);
  EXPECT_EQ(kv->version, 2);
}

TEST(KvStoreTest, DeleteBumpsRevisionAndRemoves) {
  KvStore store;
  store.put("a", "1");
  const Revision before = store.revision();
  EXPECT_TRUE(store.erase("a"));
  EXPECT_GT(store.revision(), before);
  EXPECT_FALSE(store.erase("a"));
  EXPECT_FALSE(store.get("a").ok());
}

TEST(KvStoreTest, RecreatedKeyResetsVersion) {
  KvStore store;
  store.put("a", "1");
  store.put("a", "2");
  store.erase("a");
  store.put("a", "3");
  auto kv = store.get("a");
  EXPECT_EQ(kv->version, 1);
}

TEST(KvStoreTest, RangeReturnsPrefixInOrder) {
  KvStore store;
  store.put("gpu/2/status", "idle");
  store.put("gpu/10/status", "busy");
  store.put("gpu/1/status", "idle");
  store.put("model/1/locations", "0");
  const auto rows = store.range("gpu/");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].key, "gpu/1/status");   // lexicographic
  EXPECT_EQ(rows[1].key, "gpu/10/status");
  EXPECT_EQ(rows[2].key, "gpu/2/status");
}

TEST(KvStoreTest, RangeEmptyPrefixReturnsAll) {
  KvStore store;
  store.put("a", "1");
  store.put("b", "2");
  EXPECT_EQ(store.range("").size(), 2u);
}

TEST(KvStoreTest, ErasePrefixDeletesAllUnder) {
  KvStore store;
  store.put("gpu/1/a", "x");
  store.put("gpu/1/b", "y");
  store.put("gpu/2/a", "z");
  EXPECT_EQ(store.erase_prefix("gpu/1/"), 2u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(KvStoreTest, CompareAndSwapSucceedsOnMatch) {
  KvStore store;
  store.put("k", "old");
  EXPECT_TRUE(store.compare_and_swap("k", "old", "new"));
  EXPECT_EQ(store.get("k")->value, "new");
}

TEST(KvStoreTest, CompareAndSwapFailsOnMismatch) {
  KvStore store;
  store.put("k", "current");
  EXPECT_FALSE(store.compare_and_swap("k", "stale", "new"));
  EXPECT_EQ(store.get("k")->value, "current");
}

TEST(KvStoreTest, CompareAndSwapCreateOnlyIfAbsent) {
  KvStore store;
  EXPECT_TRUE(store.compare_and_swap("fresh", "", "v1"));
  EXPECT_FALSE(store.compare_and_swap("fresh", "", "v2"));
  EXPECT_EQ(store.get("fresh")->value, "v1");
}

TEST(KvStoreTest, TxnComparesVersionAndModRevision) {
  KvStore store;
  const Revision r = store.put("k", "v");
  Compare version_cmp;
  version_cmp.key = "k";
  version_cmp.target = Compare::Target::kVersion;
  version_cmp.number = 1;
  Compare rev_cmp;
  rev_cmp.key = "k";
  rev_cmp.target = Compare::Target::kModRevision;
  rev_cmp.number = r;
  auto result = store.txn({version_cmp, rev_cmp}, {{TxnOp::Kind::kPut, "k", "v2"}});
  EXPECT_TRUE(result.succeeded);
  EXPECT_EQ(store.get("k")->value, "v2");
}

TEST(KvStoreTest, TxnElseBranchApplies) {
  KvStore store;
  Compare must_exist;
  must_exist.key = "missing";
  must_exist.target = Compare::Target::kExists;
  must_exist.exists = true;
  auto result = store.txn({must_exist}, {{TxnOp::Kind::kPut, "then", "x"}},
                          {{TxnOp::Kind::kPut, "else", "y"}});
  EXPECT_FALSE(result.succeeded);
  EXPECT_FALSE(store.get("then").ok());
  EXPECT_EQ(store.get("else")->value, "y");
}

TEST(KvStoreTest, TxnDeleteOp) {
  KvStore store;
  store.put("k", "v");
  auto result = store.txn({}, {{TxnOp::Kind::kDelete, "k", ""}});
  EXPECT_TRUE(result.succeeded);
  EXPECT_FALSE(store.get("k").ok());
}

TEST(KvStoreTest, WatchReceivesPutAndDelete) {
  KvStore store;
  std::vector<WatchEvent> events;
  store.watch("gpu/", [&](const WatchEvent& e) { events.push_back(e); });
  store.put("gpu/0/status", "busy");
  store.put("other", "ignored");
  store.erase("gpu/0/status");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, EventType::kPut);
  EXPECT_EQ(events[0].kv.value, "busy");
  EXPECT_EQ(events[1].type, EventType::kDelete);
  EXPECT_EQ(events[1].kv.key, "gpu/0/status");
}

TEST(KvStoreTest, UnwatchStopsDelivery) {
  KvStore store;
  int count = 0;
  const WatchId id = store.watch("", [&](const WatchEvent&) { ++count; });
  store.put("a", "1");
  EXPECT_TRUE(store.unwatch(id));
  EXPECT_FALSE(store.unwatch(id));
  store.put("b", "2");
  EXPECT_EQ(count, 1);
}

TEST(KvStoreTest, MultipleWatchersSamePrefix) {
  KvStore store;
  int a = 0, b = 0;
  store.watch("k", [&](const WatchEvent&) { ++a; });
  store.watch("k", [&](const WatchEvent&) { ++b; });
  store.put("k1", "v");
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST(KvStoreTest, LeaseExpiryDeletesAttachedKeys) {
  sim::Simulator sim;
  KvStore store(&sim);
  const LeaseId lease = store.grant_lease(sec(10));
  store.put("hb/gpu0", "alive", lease);
  store.put("unleased", "stays");
  sim.run_until(sec(5));
  EXPECT_EQ(store.expire_leases(), 0u);
  EXPECT_TRUE(store.get("hb/gpu0").ok());
  sim.run_until(sec(11));
  EXPECT_EQ(store.expire_leases(), 1u);
  EXPECT_FALSE(store.get("hb/gpu0").ok());
  EXPECT_TRUE(store.get("unleased").ok());
}

TEST(KvStoreTest, KeepaliveExtendsLease) {
  sim::Simulator sim;
  KvStore store(&sim);
  const LeaseId lease = store.grant_lease(sec(10));
  store.put("hb", "x", lease);
  sim.run_until(sec(8));
  EXPECT_TRUE(store.keepalive(lease));
  sim.run_until(sec(12));
  EXPECT_EQ(store.expire_leases(), 0u);  // extended to t=18
  sim.run_until(sec(19));
  EXPECT_EQ(store.expire_leases(), 1u);
}

TEST(KvStoreTest, RevokeLeaseDeletesKeysImmediately) {
  sim::Simulator sim;
  KvStore store(&sim);
  const LeaseId lease = store.grant_lease(sec(100));
  store.put("a", "1", lease);
  store.put("b", "2", lease);
  EXPECT_TRUE(store.revoke_lease(lease));
  EXPECT_FALSE(store.revoke_lease(lease));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.keepalive(lease));
}

TEST(KeysTest, CanonicalLayout) {
  EXPECT_EQ(keys::gpu_lru(GpuId(0)), "gpu/0/lru");
  EXPECT_EQ(keys::model_locations(ModelId(9)), "model/9/locations");
}

TEST(KeysTest, IdListCodecRoundTrips) {
  const std::vector<std::int64_t> ids = {5, 0, 12, 7};
  EXPECT_EQ(keys::encode_id_list(ids), "5,0,12,7");
  EXPECT_EQ(keys::decode_id_list("5,0,12,7"), ids);
  EXPECT_TRUE(keys::decode_id_list("").empty());
  EXPECT_EQ(keys::decode_id_list("42"), (std::vector<std::int64_t>{42}));
}

}  // namespace
}  // namespace gfaas::datastore
