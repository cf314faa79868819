// Unit tests for the etcd-substitute KvStore (revisioned puts, gets and
// prefix ranges) and the canonical key layout.
#include <gtest/gtest.h>

#include <vector>

#include "datastore/keys.h"
#include "datastore/kv_store.h"

namespace gfaas::datastore {
namespace {

TEST(KvStoreTest, PutGetRoundTrip) {
  KvStore store;
  const Revision r1 = store.put("a", "1");
  auto kv = store.get("a");
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(kv->key, "a");
  EXPECT_EQ(kv->value, "1");
  EXPECT_EQ(kv->mod_revision, r1);
  // Overwriting replaces the value, bumps the revision, adds no key.
  const Revision r2 = store.put("a", "2");
  EXPECT_GT(r2, r1);
  EXPECT_EQ(store.revision(), r2);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get("a")->value, "2");
}

TEST(KvStoreTest, GetMissingIsNotFound) {
  KvStore store;
  EXPECT_EQ(store.get("nope").status().code(), StatusCode::kNotFound);
}

TEST(KvStoreTest, RevisionsIncreaseMonotonically) {
  KvStore store;
  EXPECT_EQ(store.revision(), 0);
  const Revision r1 = store.put("a", "1");
  const Revision r2 = store.put("b", "2");
  EXPECT_EQ(store.size(), 2u);
  const Revision r3 = store.put("a", "3");
  EXPECT_LT(r1, r2);
  EXPECT_LT(r2, r3);
  EXPECT_EQ(store.revision(), r3);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get("a")->mod_revision, r3);
  EXPECT_EQ(store.get("b")->mod_revision, r2);
}

TEST(KvStoreTest, RangeReturnsPrefixInOrder) {
  KvStore store;
  store.put("gpu/2/lru", "3");
  store.put("gpu/10/lru", "4,5");
  store.put("gpu/1/lru", "");
  store.put("model/1/locations", "0");
  const auto rows = store.range("gpu/");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].key, "gpu/1/lru");   // lexicographic
  EXPECT_EQ(rows[1].key, "gpu/10/lru");
  EXPECT_EQ(rows[2].key, "gpu/2/lru");
}

TEST(KvStoreTest, RangeEmptyPrefixReturnsAll) {
  KvStore store;
  store.put("a", "1");
  store.put("b", "2");
  EXPECT_EQ(store.range("").size(), 2u);
}

TEST(KeysTest, CanonicalLayout) {
  EXPECT_EQ(keys::gpu_lru(GpuId(0)), "gpu/0/lru");
  EXPECT_EQ(keys::model_locations(ModelId(9)), "model/9/locations");
}

TEST(KeysTest, IdListEncodesInOrder) {
  EXPECT_EQ(keys::encode_id_list({5, 0, 12, 7}), "5,0,12,7");
  EXPECT_EQ(keys::encode_id_list({42}), "42");
  EXPECT_EQ(keys::encode_id_list({}), "");
}

}  // namespace
}  // namespace gfaas::datastore
