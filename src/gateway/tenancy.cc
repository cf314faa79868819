#include "gateway/tenancy.h"

#include <algorithm>
#include <string>

#include "common/log.h"

namespace gfaas::gateway {

TokenBucket::TokenBucket(double capacity, double refill_per_sec)
    : capacity_(capacity), refill_per_sec_(refill_per_sec), tokens_(capacity) {
  GFAAS_CHECK(capacity > 0 && refill_per_sec > 0);
}

void TokenBucket::refill(SimTime now) {
  if (now <= last_refill_) return;
  const double elapsed_sec = sim_to_seconds(now - last_refill_);
  tokens_ = std::min(capacity_, tokens_ + elapsed_sec * refill_per_sec_);
  last_refill_ = now;
}

bool TokenBucket::try_acquire(SimTime now) {
  refill(now);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double TokenBucket::available(SimTime now) const {
  TokenBucket copy = *this;
  copy.refill(now);
  return copy.tokens_;
}

TenantManager::TenantManager(int total_gpus, SimTime window)
    : total_gpus_(total_gpus), window_(window) {
  GFAAS_CHECK(total_gpus > 0 && window > 0);
}

Status TenantManager::register_tenant(TenantId tenant, TenantQuota quota) {
  if (!tenant.valid()) return Status::InvalidArgument("valid tenant id required");
  if (tenants_.count(tenant) > 0) {
    return Status::AlreadyExists("tenant " + std::to_string(tenant.value()) +
                                 " already registered");
  }
  if (quota.gpu_time_share <= 0 || quota.gpu_time_share > 1.0) {
    return Status::InvalidArgument("gpu_time_share must be in (0, 1]");
  }
  tenants_.emplace(tenant,
                   Entry{quota, TenantUsage{}, TokenBucket(quota.burst,
                                                           quota.requests_per_sec),
                         /*window_start=*/0});
  return Status::Ok();
}

bool TenantManager::known(TenantId tenant) const {
  return tenants_.count(tenant) > 0;
}

TenantManager::Entry& TenantManager::entry(TenantId tenant) {
  auto it = tenants_.find(tenant);
  GFAAS_CHECK(it != tenants_.end()) << "unknown tenant " << tenant.value();
  return it->second;
}

const TenantManager::Entry& TenantManager::entry(TenantId tenant) const {
  auto it = tenants_.find(tenant);
  GFAAS_CHECK(it != tenants_.end()) << "unknown tenant " << tenant.value();
  return it->second;
}

void TenantManager::roll_window(Entry& e, SimTime now) {
  if (now - e.window_start >= window_) {
    e.window_start = now;
    e.usage.gpu_time_in_window = 0;
  }
}

Admission TenantManager::admit(TenantId tenant, SimTime now) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return Admission::kUnknownTenant;
  Entry& e = it->second;
  roll_window(e, now);
  auto deny = [&e](Admission reason) {
    ++e.usage.rejected;
    return reason;
  };
  // The rate-limit token is taken last: a request the cap or the share
  // denies must not drain the bucket.
  if (e.usage.concurrent_executions >= e.quota.max_concurrent_executions) {
    return deny(Admission::kConcurrencyCap);
  }
  const SimTime allowed = static_cast<SimTime>(
      e.quota.gpu_time_share * static_cast<double>(total_gpus_) *
      static_cast<double>(window_));
  if (e.usage.gpu_time_in_window >= allowed) return deny(Admission::kGpuTimeShare);
  if (!e.bucket.try_acquire(now)) return deny(Admission::kRateLimited);
  ++e.usage.admitted;
  return Admission::kAdmitted;
}

void TenantManager::on_dispatch(TenantId tenant) {
  ++entry(tenant).usage.concurrent_executions;
}

void TenantManager::on_complete(TenantId tenant, SimTime now, SimTime gpu_time) {
  Entry& e = entry(tenant);
  GFAAS_CHECK(e.usage.concurrent_executions > 0);
  --e.usage.concurrent_executions;
  roll_window(e, now);
  e.usage.gpu_time_in_window += gpu_time;
}

const TenantUsage& TenantManager::usage(TenantId tenant) const {
  return entry(tenant).usage;
}

}  // namespace gfaas::gateway
