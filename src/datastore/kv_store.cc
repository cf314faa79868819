#include "datastore/kv_store.h"

namespace gfaas::datastore {

Revision KvStore::put(const std::string& key, const std::string& value) {
  common::MutexLock lock(&mu_);
  auto [it, inserted] = data_.try_emplace(key);
  KeyValue& kv = it->second;
  if (inserted) kv.key = key;
  kv.value = value;
  kv.mod_revision = ++revision_;
  return revision_;
}

StatusOr<KeyValue> KvStore::get(const std::string& key) const {
  common::MutexLock lock(&mu_);
  auto it = data_.find(key);
  if (it == data_.end()) return Status::NotFound("no such key: " + key);
  return it->second;
}

std::vector<KeyValue> KvStore::range(const std::string& prefix) const {
  common::MutexLock lock(&mu_);
  std::vector<KeyValue> out;
  for (auto it = data_.lower_bound(prefix);
       it != data_.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
    out.push_back(it->second);
  }
  return out;
}

std::size_t KvStore::size() const {
  common::MutexLock lock(&mu_);
  return data_.size();
}

Revision KvStore::revision() const {
  common::MutexLock lock(&mu_);
  return revision_;
}

}  // namespace gfaas::datastore
