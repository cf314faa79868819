#include "gpu/virtual_gpu.h"

#include <algorithm>

#include "common/log.h"

namespace gfaas::gpu {

VirtualGpu::VirtualGpu(GpuId id, GpuSpec spec, PcieLink* host_link)
    : id_(id), spec_(std::move(spec)), host_link_(host_link) {
  GFAAS_CHECK(host_link_ != nullptr);
  GFAAS_CHECK(id_.valid());
  GFAAS_CHECK(spec_.memory_capacity > 0) << "gpu memory capacity must be positive";
}

StatusOr<SimTime> VirtualGpu::begin_load(SimTime now, Bytes bytes, SimTime load_time) {
  if (phase_ != GpuPhase::kIdle) {
    return Status::FailedPrecondition("gpu busy; cannot start load");
  }
  // The profiled load time includes process start + upload; the PCIe link
  // is additionally reserved so co-located GPUs contend for the host link.
  const SimTime scaled =
      static_cast<SimTime>(static_cast<double>(load_time) * spec_.load_time_scale + 0.5);
  const TransferTiming transfer = host_link_->reserve(now, bytes);
  const SimTime queue_delay = transfer.start - now;
  const SimTime end = now + queue_delay + std::max(scaled, transfer.duration());
  load_transfer_ = transfer;
  phase_ = GpuPhase::kLoading;
  sm_meter_.set(now, 0.0);  // SMs idle during upload (§V-C)
  ++counters_.loads;
  return end;
}

Status VirtualGpu::finish_load() {
  if (phase_ != GpuPhase::kLoading) {
    return Status::FailedPrecondition("gpu is not loading");
  }
  phase_ = GpuPhase::kIdle;
  return Status::Ok();
}

StatusOr<SimTime> VirtualGpu::begin_inference(SimTime now, SimTime infer_time,
                                              std::int64_t batch) {
  if (phase_ != GpuPhase::kIdle) {
    return Status::FailedPrecondition("gpu busy; cannot start inference");
  }
  if (batch < 1) return Status::InvalidArgument("batch must be >= 1");
  const SimTime scaled = static_cast<SimTime>(
      static_cast<double>(infer_time) * spec_.infer_time_scale + 0.5);
  const SimTime end = now + std::max<SimTime>(scaled, 1);
  phase_ = GpuPhase::kInferring;
  const double occupancy =
      std::min(1.0, static_cast<double>(batch) / static_cast<double>(spec_.sm_count));
  sm_meter_.set(now, occupancy);
  ++counters_.inferences;
  return end;
}

Status VirtualGpu::abort_execution(SimTime now) {
  if (phase_ == GpuPhase::kIdle) {
    return Status::FailedPrecondition("gpu idle; nothing to abort");
  }
  if (phase_ == GpuPhase::kLoading) {
    host_link_->cancel_reservation(load_transfer_);
  }
  phase_ = GpuPhase::kIdle;
  sm_meter_.set(now, 0.0);
  return Status::Ok();
}

Status VirtualGpu::finish_inference(SimTime now) {
  if (phase_ != GpuPhase::kInferring) {
    return Status::FailedPrecondition("gpu is not inferring");
  }
  phase_ = GpuPhase::kIdle;
  sm_meter_.set(now, 0.0);
  return Status::Ok();
}

}  // namespace gfaas::gpu
