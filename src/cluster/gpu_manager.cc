#include "cluster/gpu_manager.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "datastore/keys.h"

namespace gfaas::cluster {

GpuManager::GpuManager(NodeId node, sim::Executor* executor, datastore::KvStore* store,
                       cache::CacheManager* cache, const models::ModelRegistry* registry,
                       const models::LatencyOracle* oracle,
                       std::vector<gpu::VirtualGpu*> gpus)
    : node_(node),
      executor_(executor),
      store_(store),
      cache_(cache),
      registry_(registry),
      oracle_(oracle),
      gpus_(std::move(gpus)) {
  GFAAS_CHECK(executor_ && cache_ && registry_ && oracle_);
  GFAAS_CHECK(!gpus_.empty());
}

namespace {

// Stretches a duration by the gray-degradation factor. Exact for the
// healthy factor 1.0 (SimTime microseconds are well inside the double
// mantissa), so degradation-free runs are bit-identical.
SimTime stretched(SimTime t, double factor) {
  return static_cast<SimTime>(std::llround(static_cast<double>(t) * factor));
}

}  // namespace

void GpuManager::set_slowdown(GpuId gpu, double factor) {
  GFAAS_CHECK(manages(gpu)) << "slowdown on unmanaged gpu " << gpu.value();
  GFAAS_CHECK(factor >= 1.0) << "slowdown factor must be >= 1";
  if (factor == 1.0) {
    slowdown_.erase(gpu.value());
  } else {
    slowdown_[gpu.value()] = factor;
  }
}

double GpuManager::slowdown(GpuId gpu) const {
  const auto it = slowdown_.find(gpu.value());
  return it == slowdown_.end() ? 1.0 : it->second;
}

bool GpuManager::manages(GpuId gpu) const {
  return std::any_of(gpus_.begin(), gpus_.end(),
                     [&](const gpu::VirtualGpu* g) { return g->id() == gpu; });
}

gpu::VirtualGpu& GpuManager::gpu_ref(GpuId gpu) {
  for (auto* g : gpus_) {
    if (g->id() == gpu) return *g;
  }
  GFAAS_CHECK(false) << "gpu " << gpu.value() << " not managed by node " << node_.value();
  __builtin_unreachable();
}

const gpu::VirtualGpu& GpuManager::gpu_ref(GpuId gpu) const {
  return const_cast<GpuManager*>(this)->gpu_ref(gpu);
}

void GpuManager::publish_status(GpuId gpu, bool busy, SimTime finish_time) {
  if (store_ == nullptr) return;
  store_->put(datastore::keys::gpu_status(gpu), busy ? "busy" : "idle");
  store_->put(datastore::keys::gpu_finish_time(gpu), std::to_string(finish_time));
  store_->put(datastore::keys::gpu_free_mem(gpu),
              std::to_string(gpu_ref(gpu).free_memory()));
}

StatusOr<SimTime> GpuManager::execute(const core::Request& request, GpuId gpu,
                                      bool false_miss, bool via_local_queue,
                                      CompletionCallback done) {
  GFAAS_CHECK(done != nullptr);
  gpu::VirtualGpu& device = gpu_ref(gpu);
  if (device.is_busy()) {
    return Status::FailedPrecondition("gpu " + std::to_string(gpu.value()) +
                                      " is busy; one request at a time");
  }
  const SimTime now = executor_->now();
  const ModelId model = request.model;
  auto infer_time = oracle_->infer_time(model, request.batch);
  if (!infer_time.ok()) return infer_time.status();
  // A degraded GPU runs at the stretched timings but execute() returns
  // (and publishes) the healthy estimate — the scheduler must not know,
  // that is what makes the degradation gray.
  const double slow = slowdown(gpu);
  const SimTime real_infer = stretched(*infer_time, slow);

  const bool hit = cache_->is_cached(gpu, model);

  core::CompletionRecord record;
  record.id = request.id;
  record.model = model;
  record.gpu = gpu;
  record.arrival = request.arrival;
  record.dispatched = now;
  record.cache_hit = hit;
  record.false_miss = false_miss;
  record.via_local_queue = via_local_queue;
  record.deadline = request.deadline;
  record.steal_hops = request.steal_hops;

  auto complete = [this, request, gpu, record, done](SimTime finish) mutable {
    // Under the wall-clock executor now() keeps moving, so the remaining
    // delay can come out marginally negative; clamp to "immediately".
    const SimTime delay = std::max<SimTime>(0, finish - executor_->now());
    const std::uint64_t event =
        executor_->schedule_after(delay, [this, request, gpu, record,
                                          done, finish]() mutable {
          gpu::VirtualGpu& dev = gpu_ref(gpu);
          const auto proc = dev.find_process(request.model);
          GFAAS_CHECK(proc.has_value());
          GFAAS_CHECK(dev.finish_inference(finish, proc->id).ok());
          GFAAS_CHECK(cache_->unpin(gpu, request.model).ok());
          record.completed = finish;
          publish_status(gpu, /*busy=*/false, finish);
          // Retire the in-flight entry before the callback: the engine's
          // completion handling may immediately start the next request on
          // this GPU.
          in_flight_.erase(gpu.value());
          done(record);
        });
    // Runs on the executor's worker (or inside the simulator's event
    // loop), so the event cannot fire before the id is recorded.
    auto it = in_flight_.find(gpu.value());
    GFAAS_CHECK(it != in_flight_.end());
    it->second.pending_event = event;
  };

  if (hit) {
    // Cache hit: "the GPU process that uses the requested model is
    // already running; GPU Manager forwards the input" (§III-C).
    GFAAS_CHECK(cache_->record_access(gpu, model).ok());
    GFAAS_CHECK(cache_->pin(gpu, model).ok());
    const auto proc = device.find_process(model);
    if (proc.has_value()) {
      GFAAS_CHECK(proc->loaded) << "mid-load process on a dispatchable gpu";
      auto end = device.begin_inference(now, proc->id, real_infer, request.batch);
      if (!end.ok()) return end.status();
      const SimTime believed_end = *end - (real_infer - *infer_time);
      publish_status(gpu, /*busy=*/true, believed_end);
      in_flight_[gpu.value()] = InFlightExecution{request, record, 0};
      complete(*end);
      return believed_end;
    }
    // Resident model without a backing process: a mid-load abort killed
    // the upload while queued requests kept the entry pinned (see
    // abort()). Residency was never surrendered, so this stays a hit for
    // the cache index — but the weights must be re-uploaded, so fall
    // through to the load chain below (skipping eviction/insertion).
  }

  // Start (or restart) a process, upload the model, then run.
  const auto profile = registry_->get(model);
  if (!profile.ok()) return profile.status();
  if (!hit) {
    auto victims = cache_->plan_eviction(gpu, profile->occupation);
    if (!victims.ok()) return victims.status();
    for (ModelId victim : *victims) {
      const auto victim_proc = device.find_process(victim);
      // A victim can lack a process if a mid-load abort kept its entry
      // alive for waiters that were later cancelled.
      if (victim_proc.has_value()) {
        GFAAS_CHECK(device.kill_process(victim_proc->id).ok());
      }
      GFAAS_CHECK(cache_->record_eviction(gpu, victim).ok());
    }
  }
  auto pid = device.create_process(model, profile->occupation);
  if (!pid.ok()) return pid.status();
  if (!hit) {
    GFAAS_CHECK(cache_->record_insertion(gpu, model, profile->occupation).ok());
    GFAAS_CHECK(cache_->pin(gpu, model).ok());
  }

  auto load_time = oracle_->load_time(model);
  if (!load_time.ok()) return load_time.status();
  const SimTime real_load = stretched(*load_time, slow);
  auto load_end = device.begin_load(now, *pid, real_load);
  if (!load_end.ok()) return load_end.status();

  // Published/returned estimate backs out the gray stretch; link-queueing
  // delays (visible to everyone) stay in.
  const SimTime expected_finish =
      *load_end - (real_load - *load_time) + *infer_time;
  publish_status(gpu, /*busy=*/true, expected_finish);

  const ProcessId process = *pid;
  const SimTime load_finish = *load_end;
  const SimTime infer_duration = real_infer;
  const std::uint64_t load_event = executor_->schedule_after(
      std::max<SimTime>(0, load_finish - executor_->now()),
      [this, gpu, process, request, load_finish, infer_duration, complete]() mutable {
        gpu::VirtualGpu& dev = gpu_ref(gpu);
        GFAAS_CHECK(dev.finish_load(load_finish, process).ok());
        auto end = dev.begin_inference(load_finish, process, infer_duration,
                                       request.batch);
        GFAAS_CHECK(end.ok()) << end.status().to_string();
        complete(*end);
      });
  in_flight_[gpu.value()] = InFlightExecution{request, record, load_event};
  return expected_finish;
}

StatusOr<core::CompletionRecord> GpuManager::abort(GpuId gpu) {
  auto it = in_flight_.find(gpu.value());
  if (it == in_flight_.end()) {
    return Status::NotFound("gpu " + std::to_string(gpu.value()) +
                            " has no in-flight request");
  }
  InFlightExecution state = std::move(it->second);
  in_flight_.erase(it);
  // The pending event is the load-finish or the completion event; either
  // way it has not fired yet (abort must precede the completion instant),
  // so the cancel is authoritative and the chained lambdas never run.
  GFAAS_CHECK(executor_->cancel(state.pending_event))
      << "abort raced the completion of request " << state.request.id.value();
  gpu::VirtualGpu& device = gpu_ref(gpu);
  GFAAS_CHECK(device.abort_execution(executor_->now()).ok());
  // Drop the execution pin taken at dispatch; residency bookkeeping for
  // loaded models stays until a killed GPU is retired through
  // CacheManager::remove_gpu.
  GFAAS_CHECK(cache_->unpin(gpu, state.request.model).ok());
  // If the abort interrupted the model upload, the process never became
  // servable: evict it, or the cache index would advertise a "cached"
  // model whose next hit finds it unloaded. This matters both for
  // kill-during-load (the cache must not mirror a phantom location while
  // the GPU is torn down) and for a cancelled hedge loser, where the GPU
  // lives on and must stay dispatchable.
  const auto proc = device.find_process(state.request.model);
  if (proc.has_value() && !proc->loaded) {
    GFAAS_CHECK(device.kill_process(proc->id).ok());
    if (cache_->state(gpu).pinned(state.request.model)) {
      // Queued requests for this model still hold pins: keep the entry
      // resident (they enqueued against it) and let the next dispatch
      // re-upload via the hit-without-process path in execute().
    } else {
      GFAAS_CHECK(cache_->record_eviction(gpu, state.request.model).ok());
    }
  }
  core::CompletionRecord record = state.record;
  record.completed = executor_->now();
  record.failed = true;
  publish_status(gpu, /*busy=*/false, record.completed);
  return record;
}

}  // namespace gfaas::cluster
