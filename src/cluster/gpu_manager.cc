#include "cluster/gpu_manager.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace gfaas::cluster {

GpuManager::GpuManager(NodeId node, sim::Executor* executor, cache::CacheManager* cache,
                       const models::ModelRegistry* registry,
                       std::vector<gpu::VirtualGpu*> gpus)
    : node_(node), executor_(executor), cache_(cache), registry_(registry) {
  GFAAS_CHECK(executor_ && cache_ && registry_);
  GFAAS_CHECK(!gpus.empty());
  first_gpu_ = gpus.front()->id().value();
  for (gpu::VirtualGpu* device : gpus) {
    const std::int64_t expected = first_gpu_ + static_cast<std::int64_t>(slots_.size());
    GFAAS_CHECK(device->id().value() == expected)
        << "node " << node_.value() << " gpu ids must be dense and ascending";
    slots_.emplace_back().device = device;
  }
}

namespace {

// Stretches a duration by the gray-degradation factor. Exact for the
// healthy factor 1.0 (SimTime microseconds are well inside the double
// mantissa), so degradation-free runs are bit-identical.
SimTime stretched(SimTime t, double factor) {
  return static_cast<SimTime>(std::llround(static_cast<double>(t) * factor));
}

}  // namespace

std::vector<GpuId> GpuManager::gpu_ids() const {
  std::vector<GpuId> ids;
  for (const Slot& s : slots_) ids.push_back(s.device->id());
  return ids;
}

GpuManager::Slot& GpuManager::slot(GpuId gpu) {
  GFAAS_CHECK(manages(gpu)) << "gpu " << gpu.value() << " not managed by node "
                            << node_.value();
  return slots_[static_cast<std::size_t>(gpu.value() - first_gpu_)];
}

void GpuManager::set_slowdown(GpuId gpu, double factor) {
  GFAAS_CHECK(factor >= 1.0) << "slowdown factor must be >= 1";
  slot(gpu).slowdown = factor;
}

StatusOr<SimTime> GpuManager::execute(const core::Request& request, GpuId gpu,
                                      bool false_miss, bool via_local_queue,
                                      CompletionCallback done) {
  GFAAS_CHECK(done != nullptr);
  Slot& s = slot(gpu);
  gpu::VirtualGpu& device = *s.device;
  if (device.is_busy()) {
    return Status::FailedPrecondition("gpu " + std::to_string(gpu.value()) +
                                      " is busy; one request at a time");
  }
  const SimTime now = executor_->now();
  const ModelId model = request.model;
  auto infer_time = registry_->infer_time(model, request.batch);
  if (!infer_time.ok()) return infer_time.status();
  // A degraded GPU runs at the stretched timings but execute() returns
  // the healthy estimate — the scheduler must not know,
  // that is what makes the degradation gray.
  const SimTime real_infer = stretched(*infer_time, s.slowdown);

  // One entry lookup: a hit is counted, refreshed and pinned here.
  const cache::Residency found = cache_->acquire(gpu, model);
  const bool hit = found != cache::Residency::kMiss;

  // The slot is only read while the device is busy, so an error return
  // below leaves nothing behind that a later execute() could observe.
  s.record = core::CompletionRecord{};
  s.record.id = request.id;
  s.record.model = model;
  s.record.gpu = gpu;
  s.record.arrival = request.arrival;
  s.record.dispatched = now;
  s.record.cache_hit = hit;
  s.record.false_miss = false_miss;
  s.record.via_local_queue = via_local_queue;
  s.record.deadline = request.deadline;
  s.record.steal_hops = request.steal_hops;
  s.batch = request.batch;
  s.infer_time = real_infer;
  s.done = std::move(done);

  if (found == cache::Residency::kLoaded) {
    // Cache hit: "the GPU process that uses the requested model is
    // already running; GPU Manager forwards the input" (§III-C).
    auto end = device.begin_inference(now, real_infer, request.batch);
    if (!end.ok()) return end.status();
    s.finish = *end;
    schedule_completion(gpu);
    return *end - (real_infer - *infer_time);
  }
  // Resident but not loaded (kUnloaded): a mid-load abort kept the entry
  // for pinned waiters (see abort()). It stays a hit for the cache index,
  // but the weights must be re-uploaded: fall through, skipping eviction.

  // Upload the model (the paper's new GPU process), then run.
  const auto occupation = registry_->occupation(model);
  if (!occupation.ok()) return occupation.status();
  auto load_time = registry_->load_time(model);
  if (!load_time.ok()) return load_time.status();
  if (!hit) {
    auto victims = cache_->plan_eviction(gpu, *occupation);
    if (!victims.ok()) return victims.status();
    for (ModelId victim : *victims) {
      GFAAS_CHECK(cache_->record_eviction(gpu, victim).ok());
      device.count_eviction();
    }
    Status inserted = cache_->record_insertion(gpu, model, *occupation);
    if (!inserted.ok()) return inserted;
    GFAAS_CHECK(cache_->pin(gpu, model).ok());
  }

  const SimTime real_load = stretched(*load_time, s.slowdown);
  auto load_end = device.begin_load(now, *occupation, real_load);
  if (!load_end.ok()) return load_end.status();

  s.finish = *load_end;
  s.pending_event = executor_->schedule_after(
      std::max<SimTime>(0, s.finish - executor_->now()),
      [this, gpu] { finish_load(gpu); });
  // The returned estimate backs out the gray stretch; link-queueing
  // delays (visible to everyone) stay in.
  return *load_end - (real_load - *load_time) + *infer_time;
}

void GpuManager::finish_load(GpuId gpu) {
  Slot& s = slot(gpu);
  GFAAS_CHECK(s.device->finish_load().ok());
  GFAAS_CHECK(cache_->record_load(gpu, s.record.model).ok());
  auto end = s.device->begin_inference(s.finish, s.infer_time, s.batch);
  GFAAS_CHECK(end.ok()) << end.status().to_string();
  s.finish = *end;
  schedule_completion(gpu);
}

void GpuManager::schedule_completion(GpuId gpu) {
  Slot& s = slot(gpu);
  // Under the wall-clock executor now() keeps moving, so the remaining
  // delay can come out marginally negative; clamp to "immediately".
  // Events run on the executor's worker (or inside the simulator's event
  // loop), so this one cannot fire before its id is recorded.
  s.pending_event = executor_->schedule_after(
      std::max<SimTime>(0, s.finish - executor_->now()),
      [this, gpu] { finish_inference(gpu); });
}

void GpuManager::finish_inference(GpuId gpu) {
  Slot& s = slot(gpu);
  GFAAS_CHECK(s.device->finish_inference(s.finish).ok());
  GFAAS_CHECK(cache_->unpin(gpu, s.record.model).ok());
  s.record.completed = s.finish;
  // The engine's completion handling may immediately start the next
  // request on this GPU, which refills the slot: hand over copies.
  const core::CompletionRecord record = s.record;
  const CompletionCallback done = std::move(s.done);
  done(record);
}

StatusOr<core::CompletionRecord> GpuManager::abort(GpuId gpu) {
  Slot& s = slot(gpu);
  gpu::VirtualGpu& device = *s.device;
  if (!device.is_busy()) {
    return Status::NotFound("gpu " + std::to_string(gpu.value()) +
                            " has no in-flight request");
  }
  // The pending event is the load-finish or the completion event; either
  // way it has not fired yet (abort must precede the completion instant),
  // so the cancel is authoritative and neither event body runs.
  GFAAS_CHECK(executor_->cancel(s.pending_event))
      << "abort raced the completion of request " << s.record.id.value();
  s.done = nullptr;
  const ModelId model = s.record.model;
  GFAAS_CHECK(device.abort_execution(executor_->now()).ok());
  // Drop the execution pin taken at dispatch; residency bookkeeping for
  // loaded models stays until a killed GPU is retired through
  // CacheManager::remove_gpu.
  GFAAS_CHECK(cache_->unpin(gpu, model).ok());
  // An interrupted upload never became servable: evict it, or the cache
  // index would advertise a model that is not on the GPU (a phantom
  // location on a killed GPU, or on a cancelled hedge loser's live one).
  // If queued requests still pin it, the entry stays (they enqueued
  // against it) and the next dispatch re-uploads it.
  const cache::GpuCacheState& state = cache_->state(gpu);
  if (!state.loaded(model) && !state.pinned(model)) {
    GFAAS_CHECK(cache_->record_eviction(gpu, model).ok());
    device.count_eviction();
  }
  core::CompletionRecord record = s.record;
  record.completed = executor_->now();
  record.failed = true;
  return record;
}

}  // namespace gfaas::cluster
