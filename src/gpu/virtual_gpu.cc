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

StatusOr<ProcessId> VirtualGpu::create_process(ModelId model, Bytes occupation) {
  if (!model.valid()) return Status::InvalidArgument("invalid model id");
  if (has_model(model)) {
    return Status::AlreadyExists("model " + std::to_string(model.value()) +
                                 " already has a process on gpu " +
                                 std::to_string(id_.value()));
  }
  if (occupation <= 0) {
    return Status::InvalidArgument("process occupation must be positive");
  }
  if (occupation > free_memory()) {
    return Status::ResourceExhausted("process of " + format_bytes(occupation) +
                                     " exceeds free memory " +
                                     format_bytes(free_memory()));
  }
  used_ += occupation;
  const ProcessId pid(next_process_++);
  processes_[pid.value()] = GpuProcess{pid, model, occupation, /*loaded=*/false};
  return pid;
}

Status VirtualGpu::kill_process(ProcessId process) {
  auto it = processes_.find(process.value());
  if (it == processes_.end()) {
    return Status::NotFound("no process " + std::to_string(process.value()));
  }
  used_ -= it->second.occupation;
  processes_.erase(it);
  ++counters_.evictions;
  return Status::Ok();
}

const GpuProcess* VirtualGpu::find_process(ModelId model) const {
  for (const auto& [pid, proc] : processes_) {
    if (proc.model == model) return &proc;
  }
  return nullptr;
}

std::vector<GpuProcess> VirtualGpu::processes() const {
  std::vector<GpuProcess> out;
  out.reserve(processes_.size());
  for (const auto& [pid, proc] : processes_) out.push_back(proc);
  std::sort(out.begin(), out.end(),
            [](const GpuProcess& a, const GpuProcess& b) { return a.id < b.id; });
  return out;
}

GpuProcess* VirtualGpu::mutable_process(ProcessId id) {
  auto it = processes_.find(id.value());
  return it == processes_.end() ? nullptr : &it->second;
}

StatusOr<SimTime> VirtualGpu::begin_load(SimTime now, ProcessId process,
                                         SimTime load_time) {
  GpuProcess* proc = mutable_process(process);
  if (proc == nullptr) {
    return Status::NotFound("no process " + std::to_string(process.value()));
  }
  if (phase_ != GpuPhase::kIdle) {
    return Status::FailedPrecondition("gpu busy; cannot start load");
  }
  if (proc->loaded) {
    return Status::FailedPrecondition("process already loaded");
  }
  // The profiled load time includes process start + upload; the PCIe link
  // is additionally reserved so co-located GPUs contend for the host link.
  const SimTime scaled =
      static_cast<SimTime>(static_cast<double>(load_time) * spec_.load_time_scale + 0.5);
  const TransferTiming transfer = host_link_->reserve(now, proc->occupation);
  const SimTime queue_delay = transfer.start - now;
  const SimTime end = now + queue_delay + std::max(scaled, transfer.duration());
  load_transfer_ = transfer;
  phase_ = GpuPhase::kLoading;
  busy_until_ = end;
  sm_meter_.set(now, 0.0);  // SMs idle during upload (§V-C)
  ++counters_.loads;
  counters_.bytes_uploaded += proc->occupation;
  return end;
}

Status VirtualGpu::finish_load(SimTime now, ProcessId process) {
  GpuProcess* proc = mutable_process(process);
  if (proc == nullptr) {
    return Status::NotFound("no process " + std::to_string(process.value()));
  }
  if (phase_ != GpuPhase::kLoading) {
    return Status::FailedPrecondition("gpu is not loading");
  }
  proc->loaded = true;
  phase_ = GpuPhase::kIdle;
  busy_until_ = now;
  return Status::Ok();
}

StatusOr<SimTime> VirtualGpu::begin_inference(SimTime now, ProcessId process,
                                              SimTime infer_time, std::int64_t batch) {
  GpuProcess* proc = mutable_process(process);
  if (proc == nullptr) {
    return Status::NotFound("no process " + std::to_string(process.value()));
  }
  if (!proc->loaded) {
    return Status::FailedPrecondition("model not loaded yet");
  }
  if (phase_ != GpuPhase::kIdle) {
    return Status::FailedPrecondition("gpu busy; cannot start inference");
  }
  if (batch < 1) return Status::InvalidArgument("batch must be >= 1");
  const SimTime scaled = static_cast<SimTime>(
      static_cast<double>(infer_time) * spec_.infer_time_scale + 0.5);
  const SimTime end = now + std::max<SimTime>(scaled, 1);
  phase_ = GpuPhase::kInferring;
  busy_until_ = end;
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
  busy_until_ = now;
  sm_meter_.set(now, 0.0);
  return Status::Ok();
}

Status VirtualGpu::finish_inference(SimTime now, ProcessId process) {
  GpuProcess* proc = mutable_process(process);
  if (proc == nullptr) {
    return Status::NotFound("no process " + std::to_string(process.value()));
  }
  if (phase_ != GpuPhase::kInferring) {
    return Status::FailedPrecondition("gpu is not inferring");
  }
  phase_ = GpuPhase::kIdle;
  busy_until_ = now;
  sm_meter_.set(now, 0.0);
  return Status::Ok();
}

}  // namespace gfaas::gpu
