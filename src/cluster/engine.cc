#include "cluster/engine.h"

#include <algorithm>
#include <chrono>

#include "common/log.h"
#include "telemetry/telemetry.h"

namespace gfaas::cluster {

using SlotIndex = core::RequestTable::Index;
constexpr SlotIndex kNoSlot = core::RequestTable::kNone;

// Instrument pointers resolved once at set_telemetry(); every hot-path
// record is then one null check plus wait-free atomic bumps.
struct SchedulerEngine::TelemetryHandles {
  telemetry::SpanRecorder* spans = nullptr;
  telemetry::Counter* dispatches = nullptr;
  telemetry::Counter* completions = nullptr;
  telemetry::Counter* failures = nullptr;
  telemetry::Counter* cancellations = nullptr;
  telemetry::Counter* execution_time_us = nullptr;
  telemetry::Counter* cancelled_execution_time_us = nullptr;
};

SchedulerEngine::SchedulerEngine(sim::Executor* executor, cache::CacheManager* cache,
                                 const models::ModelRegistry* registry,
                                 const std::vector<GpuManager*>& managers,
                                 std::unique_ptr<core::SchedulingPolicy> policy)
    : executor_(executor),
      cache_(cache),
      registry_(registry),
      policy_(std::move(policy)),
      global_queue_(table_),
      local_queues_(table_, 0) {
  GFAAS_CHECK(executor_ && cache_ && registry_ && policy_);
  GFAAS_CHECK(!managers.empty());
  for (GpuManager* manager : managers) join(manager);
}

SchedulerEngine::~SchedulerEngine() = default;

void SchedulerEngine::set_telemetry(telemetry::Telemetry* telemetry) {
  if (telemetry == nullptr) {
    tel_.reset();
    return;
  }
  auto handles = std::make_unique<TelemetryHandles>();
  telemetry::MetricRegistry& m = telemetry->metrics();
  handles->spans = &telemetry->spans();
  // Instrument names resolve through qualified(): on a sharded stack
  // every engine.* / cache.* series carries the owning shard's
  // `{shard=i}` label; on a single-engine stack qualified() is the
  // identity and the names below are the registry keys verbatim.
  handles->dispatches = m.counter(telemetry->qualified("engine.dispatches"));
  handles->completions = m.counter(telemetry->qualified("engine.completions"));
  handles->failures = m.counter(telemetry->qualified("engine.failures"));
  handles->cancellations =
      m.counter(telemetry->qualified("engine.cancellations"));
  handles->execution_time_us =
      m.counter(telemetry->qualified("engine.execution_time_us"));
  handles->cancelled_execution_time_us =
      m.counter(telemetry->qualified("engine.cancelled_execution_time_us"));
  tel_ = std::move(handles);
  // Point-in-time scheduler state the exporter samples each tick. The
  // gauge names are pre-qualified once; the probe itself allocates
  // nothing new per tick beyond the registry lookups it always did.
  struct ProbeNames {
    std::string queue_global, queue_local, in_flight, gpus_idle,
        gpus_schedulable, cache_hits, cache_misses, cache_evictions,
        cache_hit_ratio;
  };
  ProbeNames names{telemetry->qualified("engine.queue.global"),
                   telemetry->qualified("engine.queue.local"),
                   telemetry->qualified("engine.in_flight"),
                   telemetry->qualified("engine.gpus.idle"),
                   telemetry->qualified("engine.gpus.schedulable"),
                   telemetry->qualified("cache.hits"),
                   telemetry->qualified("cache.misses"),
                   telemetry->qualified("cache.evictions"),
                   telemetry->qualified("cache.hit_ratio")};
  telemetry->add_probe([this, names = std::move(names)](
                           telemetry::MetricRegistry& reg) {
    serial_.AssertHeld();  // probes run on the executor worker thread
    reg.gauge(names.queue_global)
        ->set(static_cast<double>(global_queue_.size()));
    reg.gauge(names.queue_local)
        ->set(static_cast<double>(local_queues_.total_pending()));
    reg.gauge(names.in_flight)->set(static_cast<double>(in_flight()));
    reg.gauge(names.gpus_idle)->set(static_cast<double>(idle_gpu_count()));
    reg.gauge(names.gpus_schedulable)
        ->set(static_cast<double>(schedulable_gpu_count()));
    const cache::CacheStats& cs = cache_->stats();
    reg.gauge(names.cache_hits)->set(static_cast<double>(cs.hits));
    reg.gauge(names.cache_misses)->set(static_cast<double>(cs.misses));
    reg.gauge(names.cache_evictions)->set(static_cast<double>(cs.evictions));
    reg.gauge(names.cache_hit_ratio)->set(1.0 - cs.miss_ratio());
  });
}

GpuManager& SchedulerEngine::manager_for(GpuId gpu) {
  const auto index = static_cast<std::size_t>(gpu.value());
  GFAAS_CHECK(gpu.valid() && index < manager_by_gpu_.size())
      << "no manager for gpu " << gpu.value();
  return *manager_by_gpu_[index];
}

void SchedulerEngine::submit(core::Request request) {
  serial_.AssertHeld();
  global_queue_.push(std::move(request));
  run_policy();
}

void SchedulerEngine::join(GpuManager* manager) {
  GFAAS_CHECK(manager != nullptr);
  for (const GpuId gpu : manager->gpu_ids()) {
    GFAAS_CHECK(gpu.value() == static_cast<std::int64_t>(manager_by_gpu_.size()))
        << "gpu " << gpu.value() << " breaks the dense id order";
    index_.add_gpu(gpu);
    manager_by_gpu_.push_back(manager);
  }
  local_queues_.ensure_gpu_count(manager_by_gpu_.size());
}

void SchedulerEngine::add_node(GpuManager* manager) {
  serial_.AssertHeld();
  join(manager);
  // A scale-up during a backed-up queue must take effect immediately.
  run_policy();
}

void SchedulerEngine::fence_gpu(GpuId gpu) {
  serial_.AssertHeld();
  index_.fence(gpu);
  cache_->fence_gpu(gpu);
  // If the GPU is sitting idle over a non-empty local queue (fenced
  // between policy invocations), start the drain now; completions chain
  // the rest in on_completion().
  if (index_.is_idle(gpu) && !local_queues_.empty(gpu)) {
    dispatch_from_local(gpu);
  }
}

void SchedulerEngine::unfence_gpu(GpuId gpu) {
  serial_.AssertHeld();
  cache_->unfence_gpu(gpu);
  index_.unfence(gpu);
  run_policy();
}

void SchedulerEngine::remove_gpu(GpuId gpu) {
  serial_.AssertHeld();
  GFAAS_CHECK(drained(gpu)) << "gpu " << gpu.value() << " removed before draining";
  index_.remove_gpu(gpu);
  cache_->remove_gpu(gpu);
}

SimTime SchedulerEngine::now() const { return executor_->now(); }

SimTime SchedulerEngine::estimated_finish_time(GpuId gpu) const {
  serial_.AssertHeld();
  // In-flight work (committed at dispatch: load + inference), plus every
  // request already waiting in the local queue (§IV-A "and requests
  // already queued in its local queue"). Local-queue requests are cache
  // hits by construction, so only inference time accrues; the index keeps
  // that sum as a running aggregate, making this an O(1) lookup.
  return index_.load(gpu).estimated_finish(now());
}

SimTime SchedulerEngine::load_time(ModelId model) const {
  auto t = registry_->load_time(model);
  GFAAS_CHECK(t.ok()) << t.status().to_string();
  return *t;
}

SimTime SchedulerEngine::infer_time(ModelId model, std::int64_t batch) const {
  auto t = registry_->infer_time(model, batch);
  GFAAS_CHECK(t.ok()) << t.status().to_string();
  return *t;
}

void SchedulerEngine::dispatch_from_global(RequestId request, GpuId gpu,
                                           bool false_miss) {
  serial_.AssertHeld();
  const SlotIndex slot = global_queue_.unlink(request);
  if (false_miss) ++false_misses_;
  start_execution(slot, gpu, false_miss, /*via_local_queue=*/false);
}

void SchedulerEngine::dispatch_from_local(GpuId gpu) {
  serial_.AssertHeld();
  const SlotIndex slot = local_queues_.head_slot(gpu);
  GFAAS_CHECK(slot != kNoSlot) << "local queue of gpu " << gpu.value() << " empty";
  // Drops the pin taken at move time; execution re-pins for its duration.
  unpark(slot);
  start_execution(slot, gpu, /*false_miss=*/false, /*via_local_queue=*/true);
}

void SchedulerEngine::move_to_local(RequestId request, GpuId gpu) {
  serial_.AssertHeld();
  const SlotIndex slot = global_queue_.unlink(request);
  const core::Request& req = table_[slot].request;
  // Pin so the model cannot be evicted while the request waits; the local
  // queue would otherwise lose its guaranteed hit.
  GFAAS_CHECK(cache_->pin(gpu, req.model).ok()) << "move to gpu without cached model";
  index_.add_local_work(gpu, infer_time(req.model, req.batch));
  local_queues_.link(gpu, slot);
}

void SchedulerEngine::unpark(SlotIndex slot) {
  const GpuId gpu = table_[slot].gpu;
  const core::Request& req = table_[slot].request;
  local_queues_.unlink(slot);
  index_.add_local_work(gpu, -infer_time(req.model, req.batch));
  GFAAS_CHECK(cache_->unpin(gpu, req.model).ok());
}

void SchedulerEngine::start_execution(SlotIndex slot, GpuId gpu, bool false_miss,
                                      bool via_local_queue) {
  // Transition the index before execute(): under the wall-clock executor
  // the completion callback can fire as soon as execute() schedules it,
  // and mark_idle() must never observe a GPU the index still thinks is
  // idle. Nothing reads the index between here and execute() returning,
  // so simulated runs are unaffected by the ordering. Marking busy first
  // spares record_dispatch() re-keying the GPU in the idle set.
  index_.mark_busy(gpu);
  index_.record_dispatch(gpu);
  // The request, hook included, stays in its slot while it runs; the GPU
  // Manager only reads it during execute().
  core::RequestTable::Slot& s = table_[slot];
  s.place = core::Place::kExecuting;
  s.gpu = gpu;
  const core::Request& request = s.request;
  if (tel_) {
    tel_->dispatches->add();
    tel_->spans->record(
        request.id.value(), telemetry::SpanEvent::kDispatch, now(),
        static_cast<std::int32_t>(gpu.value()),
        (via_local_queue ? 1 : 0) | (false_miss ? 2 : 0));
  }
  auto finish = manager_for(gpu).execute(
      request, gpu, false_miss, via_local_queue,
      [this](const core::CompletionRecord& record) {
        // Completions fire on the worker thread (directly under the
        // simulated executor, via the callback pool's re-post otherwise).
        serial_.AssertHeld();
        on_completion(record);
      });
  GFAAS_CHECK(finish.ok()) << "execute failed: " << finish.status().to_string();
  index_.set_committed_finish(gpu, *finish);
  update_duplicates_meter();
}

void SchedulerEngine::on_completion(const core::CompletionRecord& record) {
  const core::CompletionHook hook = retire(record.id);
  // The GPU Manager retired the inference before invoking us, so the GPU
  // is idle again as of this event.
  index_.mark_idle(record.gpu);
  completions_.push_back(record);
  if (tel_) {
    tel_->completions->add();
    tel_->execution_time_us->add(record.completed - record.dispatched);
    const std::int32_t gpu = static_cast<std::int32_t>(record.gpu.value());
    if (!record.cache_hit) {
      // The cold-load share of the execution, stamped at dispatch time
      // so the span sequence reads submit..dispatch -> load -> execute.
      tel_->spans->record(record.id.value(), telemetry::SpanEvent::kModelLoad,
                          record.dispatched, gpu, load_time(record.model));
    }
    tel_->spans->record(record.id.value(), telemetry::SpanEvent::kExecute,
                        record.completed, gpu, record.cache_hit ? 1 : 0);
  }
  if (hook) hook(record);
  update_duplicates_meter();
  // A draining GPU is invisible to the policy, so the engine serves out
  // its local queue directly — those requests pinned its cached models and
  // must finish here.
  if (index_.is_fenced(record.gpu) && !local_queues_.empty(record.gpu)) {
    dispatch_from_local(record.gpu);
  }
  run_policy();
}

core::CompletionHook SchedulerEngine::retire(RequestId id) {
  // Freed before the hook fires: the hook may resubmit under the same id
  // (a Gateway retry) or admit follow-up work.
  const SlotIndex slot = table_.find(id);
  GFAAS_CHECK(slot != kNoSlot && table_[slot].place == core::Place::kExecuting)
      << "completion of unknown request " << id.value();
  return table_.release(slot).on_complete;
}

void SchedulerEngine::kill_gpu(GpuId gpu) {
  serial_.AssertHeld();
  GFAAS_CHECK(index_.is_registered(gpu)) << "kill of unknown gpu " << gpu.value();
  // Fence first: the dead GPU leaves the idle/location indexes, so the
  // policy re-runs below cannot target it. Unlike fence_gpu() this never
  // starts a local-queue drain — there is no GPU left to drain into.
  if (!index_.is_fenced(gpu)) {
    index_.fence(gpu);
    cache_->fence_gpu(gpu);
  }
  // Fail the in-flight request, if any: the GPU Manager unwinds the
  // execution and its hook receives a failed record instead of silence.
  if (!index_.is_idle(gpu)) {
    auto aborted = manager_for(gpu).abort(gpu);
    GFAAS_CHECK(aborted.ok()) << aborted.status().to_string();
    const core::CompletionHook hook = retire(aborted->id);
    index_.mark_idle(gpu);
    failures_.push_back(*aborted);
    if (tel_) tel_->failures->add();
    if (hook) hook(*aborted);
  }
  // Local-queue requests pinned this GPU's cached models; give the pins
  // back and let them rejoin the global queue (ids, deadlines and hooks
  // intact) so the policy re-places them on surviving GPUs.
  for (auto slot = local_queues_.head_slot(gpu); slot != kNoSlot;
       slot = local_queues_.head_slot(gpu)) {
    unpark(slot);
    global_queue_.link(slot);
  }
  GFAAS_CHECK(drained(gpu));
  index_.remove_gpu(gpu);
  cache_->remove_gpu(gpu);
  update_duplicates_meter();
  run_policy();
}

bool SchedulerEngine::cancel_request(RequestId id) {
  serial_.AssertHeld();
  GFAAS_CHECK(id.valid());
  const SlotIndex slot = table_.find(id);
  if (slot == kNoSlot) return false;
  const GpuId gpu = table_[slot].gpu;
  switch (table_[slot].place) {
    case core::Place::kGlobal:  // (1) drop it before any GPU commits
      global_queue_.unlink(id);
      table_.release(slot);
      return true;
    case core::Place::kLocal:  // (2) undo move_to_local
      unpark(slot);
      table_.release(slot);
      return true;
    default:
      break;
  }
  // (3) Executing: abort through the GPU Manager. Unlike kill_gpu the GPU
  // survives — it goes back to the idle set and can take waiting work
  // immediately. The aborted record is discarded (the winner's completion
  // is the result); only the wasted GPU-time is kept for the hedging
  // overhead metric.
  auto aborted = manager_for(gpu).abort(gpu);
  GFAAS_CHECK(aborted.ok()) << aborted.status().to_string();
  retire(id);  // the hook is dropped unfired
  index_.mark_idle(gpu);
  cancelled_execution_time_ += aborted->completed - aborted->dispatched;
  ++cancellations_;
  if (tel_) {
    tel_->cancellations->add();
    tel_->cancelled_execution_time_us->add(aborted->completed -
                                           aborted->dispatched);
  }
  update_duplicates_meter();
  // Same serve-next chain as a completion: a draining GPU works through
  // its local queue, everyone else goes back to the policy.
  if (index_.is_fenced(gpu) && !local_queues_.empty(gpu)) {
    dispatch_from_local(gpu);
  }
  run_policy();
  return true;
}

void SchedulerEngine::steal_from_global(std::size_t max_count,
                                        FunctionRef<bool(const core::Request&)> eligible,
                                        std::vector<core::Request>& out) {
  serial_.AssertHeld();
  out.clear();
  // Walk backward from the tail taking the victims (newest arrivals
  // first, skipping any the filter rejects), then reverse the batch so it
  // replays into the thief's queue in the order the requests arrived.
  // Taking a request invalidates only iterators to it, so the walk keeps
  // the position one past the candidate.
  auto past = global_queue_.end();
  while (out.size() < max_count && past != global_queue_.begin()) {
    auto candidate = past;
    --candidate;
    if (!eligible(*candidate)) {
      past = candidate;
      continue;
    }
    // The hook rides inside the request: from this engine's point of
    // view the request was never here, so exactly-once delivery is now
    // the thief's obligation (killing THIS shard later cannot touch it).
    auto req = global_queue_.take(candidate->id);
    GFAAS_CHECK(req.ok()) << req.status().to_string();
    out.push_back(std::move(req).value());
  }
  std::reverse(out.begin(), out.end());
}

bool SchedulerEngine::request_waiting(RequestId id) const {
  serial_.AssertHeld();
  const core::Place place = table_.place_of(id);
  return place == core::Place::kGlobal || place == core::Place::kLocal;
}

GpuId SchedulerEngine::hedge_dispatch(core::Request request, RequestId primary) {
  serial_.AssertHeld();
  // The lowest-id idle holder: the first bit of holders & idle.
  const GpuBits holders = cache_->holders(request.model);
  const GpuBits idle = index_.idle_bits();
  GpuId target = first_gpu(holders.word_count(), [&holders, &idle](std::size_t i) {
    return holders.word(i) & idle.word(i);
  });
  const bool target_cached = target.valid();
  if (!target_cached) {
    target = index_.last_idle();
    if (!target.valid()) return GpuId();
  }
  // Only duplicate when the copy is expected to win. The scheduler's own
  // placement judged the primary's spot cheapest at the time, so an
  // unconditional hedge loses almost every race and just burns the idle
  // GPU. Re-run the comparison against the fleet as it stands NOW, with
  // one extra signal the placement never had: overdueness. A GPU whose
  // committed finish is already in the past while it is still busy is a
  // straggler — every believed number about it is a lie, and the amount
  // it is overdue is a *lower bound* on the extra delay (it is that late
  // and still running). So the primary's effective cost is the believed
  // queue-ahead work plus the overdueness of the GPU it sits on (an
  // executing primary has no queue ahead — only overdueness can justify
  // duplicating it). A primary still in the global queue has no committed
  // placement at all: always worth duplicating onto an idle GPU.
  const SimTime infer = infer_time(request.model, request.batch);
  const SimTime hedge_eta =
      (target_cached ? 0 : load_time(request.model)) + infer;
  SimTime effective = kSimTimeMax;
  const auto overdue_by = [this](GpuId gpu) {
    return std::max<SimTime>(0, now() - index_.load(gpu).committed_finish);
  };
  const SlotIndex p = table_.find(primary);
  // Not executing, not global, not parked: the caller raced a terminal
  // transition; decline and let it re-check.
  if (p == kNoSlot) return GpuId();
  const GpuId primary_gpu = table_[p].gpu;
  if (table_[p].place == core::Place::kExecuting) {
    effective = overdue_by(primary_gpu);
  } else if (table_[p].place == core::Place::kLocal) {
    SimTime work = 0;
    for (auto i = local_queues_.head_slot(primary_gpu); i != p; i = table_[i].next) {
      work += infer_time(table_[i].request.model, table_[i].request.batch);
    }
    effective = work + overdue_by(primary_gpu);
  }
  if (effective <= hedge_eta) return GpuId();
  start_execution(table_.insert(std::move(request)), target, /*false_miss=*/false,
                  /*via_local_queue=*/false);
  return target;
}

void SchedulerEngine::audit() const {
  serial_.AssertHeld();
  const auto placed = table_.audit();
  // Walks stop past the table's size, so a cycle fails the length check.
  std::size_t global = 0;
  for (auto it = global_queue_.begin();
       it != global_queue_.end() && global <= table_.size(); ++it) {
    ++global;
  }
  GFAAS_CHECK(global == global_queue_.size() &&
              global == placed[static_cast<std::size_t>(core::Place::kGlobal)])
      << "global list holds " << global << " of " << global_queue_.size();
  std::size_t local = 0;
  for (std::size_t g = 0; g < index_.gpu_count(); ++g) {
    const GpuId gpu(static_cast<std::int64_t>(g));
    std::size_t parked = 0;
    SimTime work = 0;
    for (auto i = local_queues_.head_slot(gpu); i != kNoSlot && parked <= table_.size();
         i = table_[i].next) {
      GFAAS_CHECK(table_[i].place == core::Place::kLocal && table_[i].gpu == gpu);
      work += infer_time(table_[i].request.model, table_[i].request.batch);
      ++parked;
    }
    GFAAS_CHECK(parked == local_queues_.size(gpu))
        << "local list of gpu " << g << " holds " << parked << " of "
        << local_queues_.size(gpu);
    const SimTime indexed = index_.is_registered(gpu) ? index_.load(gpu).local_work : 0;
    GFAAS_CHECK(work == indexed)
        << "local list of gpu " << g << " holds " << work << " us of work, index says "
        << indexed;
    local += parked;
  }
  GFAAS_CHECK(local == local_queues_.total_pending() &&
              local == placed[static_cast<std::size_t>(core::Place::kLocal)]);
  // Each executing slot runs on its own busy GPU, and every busy GPU runs one.
  std::vector<bool> running(index_.gpu_count(), false);
  std::size_t executing = 0;
  for (SlotIndex i = 0; i < table_.slot_count(); ++i) {
    if (table_[i].place != core::Place::kExecuting) continue;
    const GpuId gpu = table_[i].gpu;
    const auto g = static_cast<std::size_t>(gpu.value());
    GFAAS_CHECK(index_.is_registered(gpu) && !index_.is_idle(gpu) && !running[g])
        << "request " << table_[i].request.id.value() << " executes on gpu " << g
        << ", which is not its own busy gpu";
    running[g] = true;
    ++executing;
  }
  GFAAS_CHECK(executing == placed[static_cast<std::size_t>(core::Place::kExecuting)] &&
              executing == index_.busy_gpus().size())
      << executing << " executing slots, " << index_.busy_gpus().size() << " busy gpus";
  index_.audit();
  cache_->audit();
}

void SchedulerEngine::update_duplicates_meter() {
  if (!tracked_model_.valid()) return;
  duplicates_meter_.set(now(),
                        static_cast<double>(cache_->duplicate_count(tracked_model_)));
}

void SchedulerEngine::run_policy() {
  if (policy_running_) return;
  policy_running_ = true;
  // Invoke when any idle GPU could take work (global or local queue).
  const bool has_work = !global_queue_.empty() || local_queues_.total_pending() > 0;
  if (has_work && index_.idle_count() > 0) {
    const std::size_t queue_len = global_queue_.size();
    ++policy_invocations_;
    policy_queue_len_sum_ += queue_len;
    policy_queue_len_max_ = std::max(policy_queue_len_max_, queue_len);
    const auto start = std::chrono::steady_clock::now();
    policy_->schedule(*this);
    policy_wall_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  policy_running_ = false;
}

}  // namespace gfaas::cluster
