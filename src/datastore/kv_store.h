// Etcd-substitute key-value store (the paper's Datastore, §III-E).
//
// The paper uses etcd to exchange GPU status, per-GPU LRU lists, and
// estimated latencies between the Scheduler, Cache Manager, and GPU
// Managers. Here the scheduler reads that state from in-process indexes,
// and the only writer is the Cache Manager's LRU-list / location mirror
// (see keys.h), which nothing on the serving path reads back. The store
// keeps what that mirror and its readers need: revisioned puts (every put
// bumps a store-wide revision and stamps the key's mod revision), point
// gets and prefix ranges.
//
// Thread-safety: all public methods take an internal mutex, so the store
// can be shared by the real-time executor's worker threads as well as the
// single-threaded simulator.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace gfaas::datastore {

using Revision = std::int64_t;

struct KeyValue {
  std::string key;
  std::string value;
  Revision mod_revision = 0;  // store revision of the key's last put
};

class KvStore {
 public:
  // Returns the new store revision.
  Revision put(const std::string& key, const std::string& value);
  StatusOr<KeyValue> get(const std::string& key) const;
  // All keys with the given prefix, in lexicographic order.
  std::vector<KeyValue> range(const std::string& prefix) const;

  std::size_t size() const;
  Revision revision() const;

 private:
  mutable common::Mutex mu_;
  Revision revision_ GUARDED_BY(mu_) = 0;
  std::map<std::string, KeyValue> data_ GUARDED_BY(mu_);
};

}  // namespace gfaas::datastore
