// Etcd-substitute key-value store (the paper's Datastore, §III-E).
//
// The paper uses etcd to exchange GPU status, per-GPU LRU lists, and
// estimated latencies between the Scheduler, Cache Manager, and GPU
// Managers. Here the scheduler reads that state from in-process indexes,
// and the only writer on the serving path is the Cache Manager's
// LRU-list / location mirror (see keys.h), which nothing reads back. The
// store still reproduces the etcd features the paper's design relies on;
// only its own tests exercise the last three:
//
//   * revisioned puts — every mutation bumps a store-wide revision; each
//     key tracks create/mod revision and a per-key version counter;
//   * range (prefix) reads — e.g. get all keys under "gpu/<id>/";
//   * compare-and-swap transactions — optimistic read-modify-write;
//   * watches — prefix-scoped callbacks on PUT/DELETE;
//   * leases — TTL-scoped keys expired against a Clock, so liveness
//     works in both simulated and real time.
//
// Thread-safety: all public methods take an internal mutex, so the store
// can be shared by the real-time executor's worker threads as well as the
// single-threaded simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/time.h"
#include "sim/simulator.h"

namespace gfaas::datastore {

using Revision = std::int64_t;
using LeaseId = std::int64_t;
using WatchId = std::int64_t;

struct KeyValue {
  std::string key;
  std::string value;
  Revision create_revision = 0;
  Revision mod_revision = 0;
  std::int64_t version = 0;  // per-key mutation count since creation
  LeaseId lease = 0;         // 0 = no lease
};

enum class EventType { kPut, kDelete };

struct WatchEvent {
  EventType type;
  KeyValue kv;           // for kDelete, carries the last value
  Revision revision = 0;  // store revision at which the event happened
};

using WatchCallback = std::function<void(const WatchEvent&)>;

// One comparison clause of a transaction (etcd-style "compare").
struct Compare {
  enum class Target { kVersion, kModRevision, kValue, kExists };
  std::string key;
  Target target = Target::kExists;
  // For kVersion / kModRevision.
  std::int64_t number = 0;
  // For kValue.
  std::string value;
  // For kExists: expected existence.
  bool exists = true;
};

struct TxnOp {
  enum class Kind { kPut, kDelete };
  Kind kind = Kind::kPut;
  std::string key;
  std::string value;  // for kPut
};

struct TxnResult {
  bool succeeded = false;  // whether the compare clauses all held
  Revision revision = 0;
};

class KvStore {
 public:
  // `clock` drives lease expiry; may be null if leases are unused.
  explicit KvStore(const sim::Clock* clock = nullptr) : clock_(clock) {}

  // --- basic KV ---
  Revision put(const std::string& key, const std::string& value, LeaseId lease = 0);
  StatusOr<KeyValue> get(const std::string& key) const;
  // All keys with the given prefix, in lexicographic order.
  std::vector<KeyValue> range(const std::string& prefix) const;
  // Returns true if the key existed.
  bool erase(const std::string& key);
  // Deletes all keys under a prefix; returns count deleted.
  std::size_t erase_prefix(const std::string& prefix);

  std::size_t size() const;
  Revision revision() const;

  // --- optimistic concurrency ---
  // If all compares hold, applies `then_ops`, else applies `else_ops`.
  TxnResult txn(const std::vector<Compare>& compares,
                const std::vector<TxnOp>& then_ops,
                const std::vector<TxnOp>& else_ops = {});

  // Convenience: put only if the key's current value matches `expected`
  // (empty `expected` = key must not exist). Returns true on success.
  bool compare_and_swap(const std::string& key, const std::string& expected,
                        const std::string& desired);

  // --- watches ---
  // Calls `cb` for every subsequent PUT/DELETE under `prefix`.
  WatchId watch(const std::string& prefix, WatchCallback cb);
  bool unwatch(WatchId id);

  // --- leases ---
  // Grants a lease with the given TTL; keys attached to it are deleted by
  // expire_leases() once the clock passes grant-time + ttl.
  LeaseId grant_lease(SimTime ttl);
  // Refreshes the TTL from the current clock time. False if unknown lease.
  bool keepalive(LeaseId lease);
  // Revokes a lease and deletes its keys. False if unknown.
  bool revoke_lease(LeaseId lease);
  // Expires due leases against the clock; returns number of keys deleted.
  // Called by owners periodically (the simulator has no background threads).
  std::size_t expire_leases();

 private:
  struct LeaseInfo {
    SimTime ttl = 0;
    SimTime expires_at = 0;
  };

  Revision apply_put_locked(const std::string& key, const std::string& value,
                            LeaseId lease) REQUIRES(mu_);
  bool apply_erase_locked(const std::string& key) REQUIRES(mu_);
  bool compare_holds_locked(const Compare& c) const REQUIRES(mu_);
  void notify_locked(const WatchEvent& event) REQUIRES(mu_);
  SimTime now() const { return clock_ ? clock_->now() : 0; }

  mutable common::Mutex mu_;
  const sim::Clock* clock_;
  Revision revision_ GUARDED_BY(mu_) = 0;
  std::map<std::string, KeyValue> data_ GUARDED_BY(mu_);
  std::unordered_map<LeaseId, LeaseInfo> leases_ GUARDED_BY(mu_);
  LeaseId next_lease_ GUARDED_BY(mu_) = 1;
  WatchId next_watch_ GUARDED_BY(mu_) = 1;
  struct Watcher {
    WatchId id;
    std::string prefix;
    WatchCallback cb;
  };
  std::vector<Watcher> watchers_ GUARDED_BY(mu_);
};

}  // namespace gfaas::datastore
