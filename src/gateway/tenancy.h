// Multi-tenancy isolation (paper §VI "Multi-tenancy and Security").
//
// The paper's two isolation mechanisms:
//   * "limiting the number of GPU processes that each tenant can use" —
//     a bad actor flooding inference requests is capped at a concurrent
//     GPU-process budget;
//   * "limiting the GPU time share and memory space share that a tenant
//     can use" — a bad actor gaming locality to monopolize GPUs is capped
//     by a GPU-time share enforced over a sliding accounting window. The
//     memory-space share is not modelled: no cache or GPU code attributes
//     resident models to tenants (ROADMAP "Deferred", QoS work).
// A token-bucket request rate limit guards the Gateway itself.
//
// gateway::Gateway runs the admission check for every submission once a
// manager is attached (Gateway::set_tenant_manager).
#pragma once

#include <unordered_map>

#include "common/id.h"
#include "common/status.h"
#include "common/time.h"

namespace gfaas::gateway {

// Classic token bucket: capacity tokens, refilled at rate/second.
class TokenBucket {
 public:
  TokenBucket(double capacity, double refill_per_sec);

  // Attempts to take one token at time `now`; false = rate limited.
  bool try_acquire(SimTime now);
  double available(SimTime now) const;

 private:
  void refill(SimTime now);

  double capacity_;
  double refill_per_sec_;
  double tokens_;
  SimTime last_refill_ = 0;
};

struct TenantQuota {
  // Concurrent GPU processes (in-flight inference executions).
  int max_concurrent_executions = 4;
  // Request admission rate.
  double requests_per_sec = 50.0;
  double burst = 100.0;
  // Fraction of total GPU time the tenant may consume over the
  // accounting window (1.0 = unlimited).
  double gpu_time_share = 1.0;
};

struct TenantUsage {
  int concurrent_executions = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  // GPU time consumed in the current accounting window.
  SimTime gpu_time_in_window = 0;
};

// Outcome of TenantManager::admit: admitted, or the first check that
// denied the request. Plain data, so a denial costs no allocation.
enum class Admission {
  kAdmitted,
  kUnknownTenant,
  kConcurrencyCap,
  kGpuTimeShare,
  kRateLimited,
};

class TenantManager {
 public:
  // `total_gpus` scales the GPU-time share: a share of s over a window W
  // allows s * total_gpus * W of GPU time. `window` is the sliding
  // accounting window for time shares.
  TenantManager(int total_gpus, SimTime window = minutes(1));

  Status register_tenant(TenantId tenant, TenantQuota quota);
  bool known(TenantId tenant) const;

  // Admission check at the Gateway: concurrency cap, then GPU-time
  // share, then rate limit. Returns kUnknownTenant for an unknown (or
  // anonymous) tenant and the denying check otherwise.
  Admission admit(TenantId tenant, SimTime now);

  // Execution accounting: the Gateway takes a slot when it admits a
  // request and releases it, with the GPU time used, when the request's
  // callback resolves.
  void on_dispatch(TenantId tenant);
  void on_complete(TenantId tenant, SimTime now, SimTime gpu_time);

  const TenantUsage& usage(TenantId tenant) const;

 private:
  struct Entry {
    TenantQuota quota;
    TenantUsage usage;
    TokenBucket bucket;
    SimTime window_start = 0;
  };
  Entry& entry(TenantId tenant);
  const Entry& entry(TenantId tenant) const;
  void roll_window(Entry& e, SimTime now);

  int total_gpus_;
  SimTime window_;
  std::unordered_map<TenantId, Entry> tenants_;
};

}  // namespace gfaas::gateway
