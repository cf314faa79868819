// Unit tests for the virtual GPU substrate: PCIe link timing/queueing, GPU
// specs, and the VirtualGpu's timing state machine.
#include <gtest/gtest.h>

#include "gpu/gpu_spec.h"
#include "gpu/pcie.h"
#include "gpu/virtual_gpu.h"

namespace gfaas::gpu {
namespace {

TEST(PcieLinkTest, TransferDurationFromBandwidth) {
  PcieLink link(/*GB/s=*/10.0, /*latency=*/usec(20));
  // 10 GB/s = 10000 bytes/µs; 1 MB decimal = 100 µs + 20 latency.
  EXPECT_EQ(link.transfer_duration(1'000'000), 120);
  EXPECT_EQ(link.transfer_duration(0), 20);
}

TEST(PcieLinkTest, ReservationsQueueBackToBack) {
  PcieLink link(10.0, usec(0));
  const TransferTiming t1 = link.reserve(0, 1'000'000);    // [0, 100]
  const TransferTiming t2 = link.reserve(50, 1'000'000);   // queued: [100, 200]
  const TransferTiming t3 = link.reserve(500, 1'000'000);  // idle gap: [500, 600]
  EXPECT_EQ(t1.start, 0);
  EXPECT_EQ(t1.end, 100);
  EXPECT_EQ(t2.start, 100);
  EXPECT_EQ(t2.end, 200);
  EXPECT_EQ(t3.start, 500);
  EXPECT_EQ(link.transfers_completed(), 3);
  EXPECT_EQ(link.bytes_transferred(), 3'000'000);
}

TEST(GpuSpecTest, PresetsAreOrdered) {
  const GpuSpec base = rtx2080();
  const GpuSpec ti = rtx2080ti();
  const GpuSpec a100 = a100_like();
  EXPECT_LT(base.memory_capacity, ti.memory_capacity);
  EXPECT_LT(ti.memory_capacity, a100.memory_capacity);
  EXPECT_GT(base.infer_time_scale, ti.infer_time_scale);
  EXPECT_GT(ti.infer_time_scale, a100.infer_time_scale);
  EXPECT_EQ(base.sm_count, 46);
}

class VirtualGpuTest : public ::testing::Test {
 protected:
  VirtualGpuTest() : link_(12.6, usec(20)), gpu_(GpuId(0), rtx2080(), &link_) {}

  PcieLink link_;
  VirtualGpu gpu_;
};

TEST_F(VirtualGpuTest, LoadTheInferLifecycle) {
  EXPECT_EQ(gpu_.phase(), GpuPhase::kIdle);

  auto load_end = gpu_.begin_load(0, MB(1701), seconds_to_sim(2.67));
  ASSERT_TRUE(load_end.ok());
  EXPECT_GE(*load_end, seconds_to_sim(2.67));  // profiled time dominates
  EXPECT_EQ(gpu_.phase(), GpuPhase::kLoading);
  EXPECT_TRUE(gpu_.is_busy());

  // Cannot run inference before the load finishes.
  EXPECT_EQ(gpu_.begin_inference(*load_end, sec(1), 32).status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(gpu_.finish_load().ok());
  EXPECT_EQ(gpu_.phase(), GpuPhase::kIdle);

  auto infer_end = gpu_.begin_inference(*load_end, seconds_to_sim(1.28), 32);
  ASSERT_TRUE(infer_end.ok());
  EXPECT_EQ(*infer_end, *load_end + seconds_to_sim(1.28));
  EXPECT_EQ(gpu_.phase(), GpuPhase::kInferring);
  ASSERT_TRUE(gpu_.finish_inference(*infer_end).ok());
  EXPECT_EQ(gpu_.phase(), GpuPhase::kIdle);
  EXPECT_EQ(gpu_.counters().loads, 1);
  EXPECT_EQ(gpu_.counters().inferences, 1);
}

TEST_F(VirtualGpuTest, BusyGpuRejectsConcurrentWork) {
  ASSERT_TRUE(gpu_.begin_load(0, MB(100), sec(1)).ok());
  EXPECT_EQ(gpu_.begin_load(0, MB(100), sec(1)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(VirtualGpuTest, MismatchedPhaseTransitionsRejected) {
  EXPECT_EQ(gpu_.finish_load().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(gpu_.finish_inference(0).code(), StatusCode::kFailedPrecondition);
}

TEST_F(VirtualGpuTest, SmUtilizationIntegratesOccupancy) {
  auto load_end = gpu_.begin_load(0, MB(100), sec(1));
  ASSERT_TRUE(load_end.ok());
  ASSERT_TRUE(gpu_.finish_load().ok());
  auto infer_end = gpu_.begin_inference(*load_end, sec(1), 46);
  ASSERT_TRUE(infer_end.ok());
  ASSERT_TRUE(gpu_.finish_inference(*infer_end).ok());
  // Roughly: occupancy 1.0 for the inference second, 0 during the load.
  const double util = gpu_.sm_utilization(*infer_end);
  EXPECT_NEAR(util, 0.5, 0.05);
}

TEST_F(VirtualGpuTest, SharedLinkCreatesContention) {
  PcieLink shared(12.6, usec(0));
  VirtualGpu g0(GpuId(0), rtx2080(), &shared);
  VirtualGpu g1(GpuId(1), rtx2080(), &shared);
  auto end0 = g0.begin_load(0, MB(1000), msec(10));
  auto end1 = g1.begin_load(0, MB(1000), msec(10));
  ASSERT_TRUE(end0.ok() && end1.ok());
  // g1's transfer queues behind g0's on the shared link.
  EXPECT_GT(*end1, *end0);
}

}  // namespace
}  // namespace gfaas::gpu
