// Unit tests for the virtual GPU substrate: PCIe link timing/queueing, GPU
// specs, and the VirtualGpu's memory accounting and state machine.
#include <gtest/gtest.h>

#include <vector>

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

TEST_F(VirtualGpuTest, CreateProcessAllocatesMemory) {
  auto pid = gpu_.create_process(ModelId(1), MB(1701));
  ASSERT_TRUE(pid.ok());
  EXPECT_TRUE(gpu_.has_model(ModelId(1)));
  EXPECT_EQ(gpu_.free_memory(), gpu_.memory_capacity() - MB(1701));
  EXPECT_EQ(gpu_.process_count(), 1u);
}

TEST_F(VirtualGpuTest, DuplicateModelProcessRejected) {
  ASSERT_TRUE(gpu_.create_process(ModelId(1), MB(100)).ok());
  EXPECT_EQ(gpu_.create_process(ModelId(1), MB(100)).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(VirtualGpuTest, OutOfMemoryRejected) {
  ASSERT_TRUE(gpu_.create_process(ModelId(1), GiB(7)).ok());
  EXPECT_EQ(gpu_.create_process(ModelId(2), GiB(4)).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(VirtualGpuTest, MemoryBoundaryIsExact) {
  ASSERT_TRUE(gpu_.create_process(ModelId(1), MB(3000)).ok());
  const Bytes rest = gpu_.free_memory();
  EXPECT_EQ(gpu_.create_process(ModelId(2), rest + 1).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(gpu_.create_process(ModelId(2), 0).status().code(),
            StatusCode::kInvalidArgument);
  auto filler = gpu_.create_process(ModelId(2), rest);
  ASSERT_TRUE(filler.ok());
  EXPECT_EQ(gpu_.free_memory(), 0);
  ASSERT_TRUE(gpu_.kill_process(*filler).ok());
  EXPECT_EQ(gpu_.free_memory(), rest);
  ASSERT_TRUE(gpu_.kill_process(gpu_.find_process(ModelId(1))->id).ok());
  EXPECT_EQ(gpu_.free_memory(), gpu_.memory_capacity());
}

TEST_F(VirtualGpuTest, KillProcessFreesMemory) {
  auto pid = gpu_.create_process(ModelId(1), MB(2000));
  ASSERT_TRUE(pid.ok());
  EXPECT_TRUE(gpu_.kill_process(*pid).ok());
  EXPECT_FALSE(gpu_.has_model(ModelId(1)));
  EXPECT_EQ(gpu_.free_memory(), gpu_.memory_capacity());
  EXPECT_EQ(gpu_.counters().evictions, 1);
  EXPECT_EQ(gpu_.kill_process(*pid).code(), StatusCode::kNotFound);
}

TEST_F(VirtualGpuTest, LoadTheInferLifecycle) {
  auto pid = gpu_.create_process(ModelId(5), MB(1701));
  ASSERT_TRUE(pid.ok());
  EXPECT_EQ(gpu_.phase(), GpuPhase::kIdle);

  auto load_end = gpu_.begin_load(0, *pid, seconds_to_sim(2.67));
  ASSERT_TRUE(load_end.ok());
  EXPECT_GE(*load_end, seconds_to_sim(2.67));  // profiled time dominates
  EXPECT_EQ(gpu_.phase(), GpuPhase::kLoading);
  EXPECT_TRUE(gpu_.is_busy());
  EXPECT_EQ(gpu_.busy_until(), *load_end);

  // Cannot run inference before the load finishes.
  EXPECT_EQ(gpu_.begin_inference(*load_end, *pid, sec(1), 32).status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(gpu_.finish_load(*load_end, *pid).ok());
  EXPECT_EQ(gpu_.phase(), GpuPhase::kIdle);

  auto infer_end = gpu_.begin_inference(*load_end, *pid, seconds_to_sim(1.28), 32);
  ASSERT_TRUE(infer_end.ok());
  EXPECT_EQ(*infer_end, *load_end + seconds_to_sim(1.28));
  EXPECT_EQ(gpu_.phase(), GpuPhase::kInferring);
  ASSERT_TRUE(gpu_.finish_inference(*infer_end, *pid).ok());
  EXPECT_EQ(gpu_.phase(), GpuPhase::kIdle);
  EXPECT_EQ(gpu_.counters().loads, 1);
  EXPECT_EQ(gpu_.counters().inferences, 1);
}

TEST_F(VirtualGpuTest, BusyGpuRejectsConcurrentWork) {
  auto p1 = gpu_.create_process(ModelId(1), MB(100));
  auto p2 = gpu_.create_process(ModelId(2), MB(100));
  ASSERT_TRUE(p1.ok() && p2.ok());
  ASSERT_TRUE(gpu_.begin_load(0, *p1, sec(1)).ok());
  EXPECT_EQ(gpu_.begin_load(0, *p2, sec(1)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(VirtualGpuTest, MismatchedPhaseTransitionsRejected) {
  auto pid = gpu_.create_process(ModelId(1), MB(100));
  ASSERT_TRUE(pid.ok());
  EXPECT_EQ(gpu_.finish_load(0, *pid).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(gpu_.finish_inference(0, *pid).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(gpu_.begin_load(0, ProcessId(999), sec(1)).ok());
}

TEST_F(VirtualGpuTest, SmUtilizationIntegratesOccupancy) {
  auto pid = gpu_.create_process(ModelId(1), MB(100));
  ASSERT_TRUE(pid.ok());
  auto load_end = gpu_.begin_load(0, *pid, sec(1));
  ASSERT_TRUE(load_end.ok());
  ASSERT_TRUE(gpu_.finish_load(*load_end, *pid).ok());
  auto infer_end = gpu_.begin_inference(*load_end, *pid, sec(1), 46);
  ASSERT_TRUE(infer_end.ok());
  ASSERT_TRUE(gpu_.finish_inference(*infer_end, *pid).ok());
  // Roughly: occupancy 1.0 for the inference second, 0 during the load.
  const double util = gpu_.sm_utilization(*infer_end);
  EXPECT_NEAR(util, 0.5, 0.05);
}

TEST_F(VirtualGpuTest, SharedLinkCreatesContention) {
  PcieLink shared(12.6, usec(0));
  VirtualGpu g0(GpuId(0), rtx2080(), &shared);
  VirtualGpu g1(GpuId(1), rtx2080(), &shared);
  auto p0 = g0.create_process(ModelId(1), MB(1000));
  auto p1 = g1.create_process(ModelId(2), MB(1000));
  ASSERT_TRUE(p0.ok() && p1.ok());
  auto end0 = g0.begin_load(0, *p0, msec(10));
  auto end1 = g1.begin_load(0, *p1, msec(10));
  ASSERT_TRUE(end0.ok() && end1.ok());
  // g1's transfer queues behind g0's on the shared link.
  EXPECT_GT(*end1, *end0);
}

TEST_F(VirtualGpuTest, ProcessesListedInCreationOrder) {
  ASSERT_TRUE(gpu_.create_process(ModelId(3), MB(100)).ok());
  ASSERT_TRUE(gpu_.create_process(ModelId(1), MB(100)).ok());
  const auto procs = gpu_.processes();
  ASSERT_EQ(procs.size(), 2u);
  EXPECT_EQ(procs[0].model, ModelId(3));
  EXPECT_EQ(procs[1].model, ModelId(1));
}

}  // namespace
}  // namespace gfaas::gpu
