// Tests for multi-tenancy isolation (§VI): token-bucket rate limiting,
// concurrent execution caps and GPU-time share enforcement over the
// sliding window — on the TenantManager alone and as the tenant admission
// stage of the live gateway::Gateway.
#include <gtest/gtest.h>

#include <vector>

#include "gateway/gateway.h"
#include "gateway/tenancy.h"
#include "testing/builders.h"

namespace gfaas::gateway {
namespace {

const TenantId kAcme(1);
const TenantId kGhost(99);  // never registered
const TenantId kT(2);
const TenantId kBad(3);
const TenantId kGreedy(4);
const TenantId kTight(5);
const TenantId kRoomy(6);

core::Request tenant_request(std::int64_t id, std::int64_t model, TenantId tenant) {
  // Arrival/deadline are stamped by the Gateway at submit time.
  core::Request request = testkit::make_request(id, model, /*arrival=*/0);
  request.tenant = tenant;
  return request;
}

TEST(TokenBucketTest, StartsFullAndDrains) {
  TokenBucket bucket(3, 1.0);
  EXPECT_TRUE(bucket.try_acquire(0));
  EXPECT_TRUE(bucket.try_acquire(0));
  EXPECT_TRUE(bucket.try_acquire(0));
  EXPECT_FALSE(bucket.try_acquire(0));
}

TEST(TokenBucketTest, RefillsAtRate) {
  TokenBucket bucket(2, 1.0);  // 1 token/s
  ASSERT_TRUE(bucket.try_acquire(0));
  ASSERT_TRUE(bucket.try_acquire(0));
  EXPECT_FALSE(bucket.try_acquire(msec(500)));
  EXPECT_TRUE(bucket.try_acquire(sec(1)));
  EXPECT_FALSE(bucket.try_acquire(sec(1)));
}

TEST(TokenBucketTest, RefillCapsAtCapacity) {
  TokenBucket bucket(2, 10.0);
  ASSERT_TRUE(bucket.try_acquire(0));
  // After 100s the bucket holds at most 2 tokens, not 1000.
  EXPECT_NEAR(bucket.available(sec(100)), 2.0, 1e-9);
}

TEST(TenantManagerTest, RegistrationValidation) {
  TenantManager manager(12);
  EXPECT_TRUE(manager.register_tenant(kAcme, {}).ok());
  EXPECT_EQ(manager.register_tenant(kAcme, {}).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(manager.register_tenant(TenantId(), {}).code(), StatusCode::kInvalidArgument);
  TenantQuota bad;
  bad.gpu_time_share = 1.5;
  EXPECT_EQ(manager.register_tenant(kBad, bad).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(manager.known(kAcme));
  EXPECT_FALSE(manager.known(kGhost));
}

TEST(TenantManagerTest, UnknownTenantRejected) {
  TenantManager manager(12);
  EXPECT_EQ(manager.admit(kGhost, 0), Admission::kUnknownTenant);
}

TEST(TenantManagerTest, RateLimitRejectsBurstOverflow) {
  TenantManager manager(12);
  TenantQuota quota;
  quota.requests_per_sec = 1.0;
  quota.burst = 2.0;
  quota.max_concurrent_executions = 100;
  ASSERT_TRUE(manager.register_tenant(kT, quota).ok());
  EXPECT_EQ(manager.admit(kT, 0), Admission::kAdmitted);
  EXPECT_EQ(manager.admit(kT, 0), Admission::kAdmitted);
  EXPECT_EQ(manager.admit(kT, 0), Admission::kRateLimited);
  EXPECT_EQ(manager.admit(kT, sec(2)), Admission::kAdmitted);  // refilled
  EXPECT_EQ(manager.usage(kT).admitted, 3);
  EXPECT_EQ(manager.usage(kT).rejected, 1);
}

TEST(TenantManagerTest, ConcurrencyCapEnforced) {
  // Paper: "limiting the number of GPU processes that each tenant can use".
  TenantManager manager(12);
  TenantQuota quota;
  quota.max_concurrent_executions = 2;
  quota.requests_per_sec = 1000;
  quota.burst = 1000;
  ASSERT_TRUE(manager.register_tenant(kT, quota).ok());
  ASSERT_EQ(manager.admit(kT, 0), Admission::kAdmitted);
  manager.on_dispatch(kT);
  ASSERT_EQ(manager.admit(kT, 0), Admission::kAdmitted);
  manager.on_dispatch(kT);
  EXPECT_EQ(manager.admit(kT, 0), Admission::kConcurrencyCap);
  manager.on_complete(kT, sec(1), sec(1));
  EXPECT_EQ(manager.admit(kT, sec(1)), Admission::kAdmitted);
}

TEST(TenantManagerTest, CapDenialSpendsNoRateToken) {
  // Burst 2 at 1 token/s: the cap-denied second admit must leave a token
  // behind, so half a second of refill is enough for the next one.
  TenantManager manager(12);
  TenantQuota quota;
  quota.requests_per_sec = 1.0;
  quota.burst = 2.0;
  quota.max_concurrent_executions = 1;
  ASSERT_TRUE(manager.register_tenant(kT, quota).ok());
  ASSERT_EQ(manager.admit(kT, 0), Admission::kAdmitted);
  manager.on_dispatch(kT);
  EXPECT_EQ(manager.admit(kT, 0), Admission::kConcurrencyCap);
  manager.on_complete(kT, msec(500), msec(500));
  EXPECT_EQ(manager.admit(kT, msec(500)), Admission::kAdmitted);
  EXPECT_EQ(manager.usage(kT).admitted, 2);
  EXPECT_EQ(manager.usage(kT).rejected, 1);
}

TEST(TenantManagerTest, GpuTimeShareEnforcedOverWindow) {
  // Paper: "limiting the GPU time share ... that a tenant can use".
  TenantManager manager(/*total_gpus=*/2, /*window=*/sec(10));
  TenantQuota quota;
  quota.gpu_time_share = 0.25;  // 0.25 * 2 GPUs * 10s = 5s per window
  quota.requests_per_sec = 1000;
  quota.burst = 1000;
  quota.max_concurrent_executions = 100;
  ASSERT_TRUE(manager.register_tenant(kGreedy, quota).ok());

  ASSERT_EQ(manager.admit(kGreedy, sec(1)), Admission::kAdmitted);
  manager.on_dispatch(kGreedy);
  manager.on_complete(kGreedy, sec(2), sec(6));  // consumed 6s > 5s allowed
  EXPECT_EQ(manager.admit(kGreedy, sec(3)), Admission::kGpuTimeShare);
  // Window rolls: usage resets.
  EXPECT_EQ(manager.admit(kGreedy, sec(12)), Admission::kAdmitted);
  EXPECT_EQ(manager.usage(kGreedy).gpu_time_in_window, 0);
}

TEST(TenantManagerTest, TenantsAreIsolated) {
  TenantManager manager(12);
  TenantQuota tight;
  tight.requests_per_sec = 1;
  tight.burst = 1;
  ASSERT_TRUE(manager.register_tenant(kTight, tight).ok());
  ASSERT_TRUE(manager.register_tenant(kRoomy, {}).ok());
  ASSERT_EQ(manager.admit(kTight, 0), Admission::kAdmitted);
  EXPECT_EQ(manager.admit(kTight, 0), Admission::kRateLimited);
  // The other tenant is unaffected by tight's exhaustion.
  EXPECT_EQ(manager.admit(kRoomy, 0), Admission::kAdmitted);
}

// ---------------------------------------------------------------------------
// Tenant admission on the live Gateway
// ---------------------------------------------------------------------------

TEST(GatewayTenancyTest, EnforcesAdmissionOnSubmit) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  Gateway gateway(cluster.get());
  TenantManager tenants(/*total_gpus=*/2);
  TenantQuota quota;
  quota.requests_per_sec = 1.0;
  quota.burst = 1.0;
  ASSERT_TRUE(tenants.register_tenant(kAcme, quota).ok());
  gateway.set_tenant_manager(&tenants);

  std::vector<GatewayResult> results(4);
  cluster->simulator().schedule_at(0, [&] {
    const TenantId senders[] = {kAcme, kAcme, kGhost, TenantId()};
    for (std::int64_t i = 0; i < 4; ++i) {
      gateway.submit(tenant_request(i, 0, senders[i]),
                     [&results, i](const GatewayResult& r) { results[i] = r; });
    }
  });
  cluster->run_to_completion();

  // First call admitted; second rate-limited; unknown and anonymous
  // tenants shed.
  EXPECT_EQ(results[0].disposition, Disposition::kCompleted);
  EXPECT_EQ(results[1].disposition, Disposition::kShed);
  EXPECT_EQ(results[2].disposition, Disposition::kShed);
  EXPECT_EQ(results[3].disposition, Disposition::kShed);
  EXPECT_EQ(tenants.usage(kAcme).admitted, 1);
  EXPECT_EQ(tenants.usage(kAcme).rejected, 1);
  // Execution accounting was bracketed: nothing left in flight, and the
  // request was charged its GPU time (load plus inference).
  EXPECT_EQ(tenants.usage(kAcme).concurrent_executions, 0);
  EXPECT_EQ(tenants.usage(kAcme).gpu_time_in_window,
            results[0].record.completed - results[0].record.dispatched);
  EXPECT_EQ(gateway.counters().shed, 3);
  // Quota denials are not a capacity signal for the scaling probe.
  EXPECT_EQ(gateway.windowed_outcomes().sheds, 0u);
}

TEST(GatewayTenancyTest, NoManagerMeansOpenAccess) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  Gateway gateway(cluster.get());
  std::vector<Disposition> seen;
  cluster->simulator().schedule_at(0, [&] {
    gateway.submit(tenant_request(0, 0, TenantId()),
                   [&](const GatewayResult& r) { seen.push_back(r.disposition); });
    gateway.submit(tenant_request(1, 0, TenantId(7)),
                   [&](const GatewayResult& r) { seen.push_back(r.disposition); });
  });
  cluster->run_to_completion();
  EXPECT_EQ(seen, std::vector<Disposition>(2, Disposition::kCompleted));
}

// A flooding tenant cannot crowd out a well-behaved one: its rate limit
// and concurrency cap shed the flood at the door, and the other tenant's
// requests all complete within their SLO.
TEST(GatewayTenancyTest, NoisyNeighbourIsShedAndQuietTenantMeetsSlo) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  Gateway gateway(cluster.get());
  TenantManager tenants(/*total_gpus=*/2);
  const TenantId flooder(1), quiet(2);
  TenantQuota flood_quota;
  flood_quota.requests_per_sec = 1.0;
  flood_quota.burst = 2.0;
  flood_quota.max_concurrent_executions = 1;
  ASSERT_TRUE(tenants.register_tenant(flooder, flood_quota).ok());
  ASSERT_TRUE(tenants.register_tenant(quiet, {}).ok());
  gateway.set_tenant_manager(&tenants);

  constexpr std::int64_t kFlood = 50;
  constexpr std::int64_t kQuiet = 5;
  std::vector<GatewayResult> flood_results, quiet_results;
  cluster->simulator().schedule_at(0, [&] {
    for (std::int64_t i = 0; i < kFlood; ++i) {
      gateway.submit(tenant_request(i, 0, flooder), [&](const GatewayResult& r) {
        flood_results.push_back(r);
      });
    }
  });
  for (std::int64_t k = 0; k < kQuiet; ++k) {
    cluster->simulator().schedule_at(sec(2) * k, [&, k] {
      gateway.submit(tenant_request(kFlood + k, 1, quiet), [&](const GatewayResult& r) {
        quiet_results.push_back(r);
      });
    });
  }
  cluster->run_to_completion();

  const TenantUsage& flood_usage = tenants.usage(flooder);
  ASSERT_EQ(flood_results.size(), static_cast<std::size_t>(kFlood));
  EXPECT_GE(flood_usage.admitted, 1);
  EXPECT_LE(flood_usage.admitted, 2);  // at most its burst
  EXPECT_EQ(flood_usage.rejected, kFlood - flood_usage.admitted);
  std::int64_t flood_shed = 0;
  for (const GatewayResult& r : flood_results) {
    if (r.disposition == Disposition::kShed) ++flood_shed;
  }
  EXPECT_EQ(flood_shed, kFlood - flood_usage.admitted);

  ASSERT_EQ(quiet_results.size(), static_cast<std::size_t>(kQuiet));
  for (const GatewayResult& r : quiet_results) {
    EXPECT_EQ(r.disposition, Disposition::kCompleted);
    EXPECT_TRUE(r.slo_met);
  }
  EXPECT_EQ(tenants.usage(quiet).rejected, 0);

  EXPECT_EQ(flood_usage.concurrent_executions, 0);
  EXPECT_EQ(tenants.usage(quiet).concurrent_executions, 0);
  const GatewayCounters& c = gateway.counters();
  EXPECT_EQ(c.submitted, kFlood + kQuiet);
  EXPECT_EQ(c.submitted, c.completed + c.shed + c.expired + c.failed);
}

// The request's GPU dies mid-inference; the retry (and the hedge timer
// that keeps covering it) share the one flight, so the tenant slot stays
// held across the failure and is released exactly once, at completion.
TEST(GatewayTenancyTest, SlotReleasedOnceAcrossGpuDeathAndRetry) {
  auto cluster = testkit::ClusterBuilder().nodes(1).gpus_per_node(2).build();
  GatewayConfig config;
  config.max_retries = 1;
  config.hedge_budget_fraction = 0.1;
  config.default_slo = sec(30);
  Gateway gateway(cluster.get(), config);
  TenantManager tenants(/*total_gpus=*/2);
  TenantQuota quota;
  quota.max_concurrent_executions = 1;  // a leaked slot would block the next call
  ASSERT_TRUE(tenants.register_tenant(kAcme, quota).ok());
  gateway.set_tenant_manager(&tenants);

  std::vector<GatewayResult> results;
  const auto collect = [&](const GatewayResult& r) { results.push_back(r); };
  cluster->simulator().schedule_at(0, [&] {
    gateway.submit(tenant_request(0, 0, kAcme), collect);
  });
  cluster->simulator().schedule_at(sec(1), [&] {
    EXPECT_EQ(tenants.usage(kAcme).concurrent_executions, 1);
  });
  // squeezenet1.1 loads for 2.41s, then infers for 1.28s: 3.2s is
  // mid-inference.
  cluster->simulator().schedule_at(msec(3200), [&] {
    const auto busy = cluster->engine().busy_gpus();
    ASSERT_EQ(busy.size(), 1u);
    cluster->kill_gpu(busy[0]);
    EXPECT_EQ(tenants.usage(kAcme).concurrent_executions, 1);  // the retry holds it
  });
  cluster->simulator().schedule_at(sec(20), [&] {
    EXPECT_EQ(tenants.usage(kAcme).concurrent_executions, 0);
    gateway.submit(tenant_request(1, 0, kAcme), collect);
  });
  cluster->run_to_completion();

  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].disposition, Disposition::kCompleted);
  EXPECT_EQ(results[1].disposition, Disposition::kCompleted);
  EXPECT_EQ(gateway.counters().retries, 1);
  EXPECT_EQ(cluster->engine().failures().size(), 1u);
  EXPECT_EQ(tenants.usage(kAcme).admitted, 2);
  EXPECT_EQ(tenants.usage(kAcme).rejected, 0);
  EXPECT_EQ(tenants.usage(kAcme).concurrent_executions, 0);
  // Each resolution charged its resolving record's GPU time once.
  EXPECT_EQ(tenants.usage(kAcme).gpu_time_in_window,
            (results[0].record.completed - results[0].record.dispatched) +
                (results[1].record.completed - results[1].record.dispatched));
}

}  // namespace
}  // namespace gfaas::gateway
