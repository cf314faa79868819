#include "gateway/gateway.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "common/log.h"
#include "concurrent/callback_executor.h"
#include "gateway/tenancy.h"
#include "telemetry/telemetry.h"

namespace gfaas::gateway {

// Instrument pointers resolved once at set_telemetry(); every hot-path
// record is then one null check plus wait-free atomic bumps.
struct Gateway::TelemetryHandles {
  telemetry::SpanRecorder* spans = nullptr;
  telemetry::Counter* submitted = nullptr;
  telemetry::Counter* admitted = nullptr;
  telemetry::Counter* queued = nullptr;
  telemetry::Counter* shed = nullptr;
  telemetry::Counter* expired = nullptr;
  telemetry::Counter* completed = nullptr;
  telemetry::Counter* slo_met = nullptr;
  telemetry::Counter* failed = nullptr;
  telemetry::Counter* retries = nullptr;
  telemetry::Counter* hedges = nullptr;
  telemetry::Counter* hedge_wins = nullptr;
  telemetry::Histogram* latency_s = nullptr;
  telemetry::Histogram* wait_s = nullptr;
  telemetry::Histogram* exec_s = nullptr;
  telemetry::Histogram* estimate_error_s = nullptr;
};

const char* disposition_name(Disposition disposition) {
  switch (disposition) {
    case Disposition::kCompleted:
      return "completed";
    case Disposition::kShed:
      return "shed";
    case Disposition::kExpired:
      return "expired";
    case Disposition::kFailed:
      return "failed";
  }
  return "unknown";
}

Gateway::Gateway(cluster::ElasticCluster* cluster, GatewayConfig config)
    : cluster_(cluster), config_(config) {
  GFAAS_CHECK(cluster_ != nullptr);
  GFAAS_CHECK(config_.default_slo >= 0 && config_.stats_window > 0);
  GFAAS_CHECK(config_.wait_budget_fraction > 0.0);
  GFAAS_CHECK(config_.max_retries >= 0);
  GFAAS_CHECK(config_.hedge_budget_fraction >= 0.0 &&
              config_.hedge_budget_fraction < 1.0);
  GFAAS_CHECK(config_.hedge_retry_interval > 0);
}

Gateway::~Gateway() = default;

void Gateway::set_telemetry(telemetry::Telemetry* telemetry) {
  if (telemetry == nullptr) {
    tel_.reset();
    return;
  }
  auto handles = std::make_unique<TelemetryHandles>();
  telemetry::MetricRegistry& m = telemetry->metrics();
  handles->spans = &telemetry->spans();
  handles->submitted = m.counter("gateway.submitted");
  handles->admitted = m.counter("gateway.admitted");
  handles->queued = m.counter("gateway.queued");
  handles->shed = m.counter("gateway.shed");
  handles->expired = m.counter("gateway.expired");
  handles->completed = m.counter("gateway.completed");
  handles->slo_met = m.counter("gateway.slo_met");
  handles->failed = m.counter("gateway.failed");
  handles->retries = m.counter("gateway.retries");
  handles->hedges = m.counter("gateway.hedges");
  handles->hedge_wins = m.counter("gateway.hedge_wins");
  handles->latency_s = m.histogram("gateway.latency_s");
  handles->wait_s = m.histogram("gateway.wait_s");
  handles->exec_s = m.histogram("gateway.exec_s");
  handles->estimate_error_s = m.histogram("gateway.estimate_error_s");
  tel_ = std::move(handles);
  // Point-in-time state the exporter samples each tick: window
  // occupancy and per-model SLO attainment (model gauges register
  // lazily as models first complete).
  telemetry->add_probe([this](telemetry::MetricRegistry& reg) {
    serial_.AssertHeld();  // probes run on the executor worker thread
    reg.gauge("gateway.in_flight")->set(static_cast<double>(flights_.size()));
    reg.gauge("gateway.pending")->set(static_cast<double>(pending_.size()));
    for (const auto& [model, stats] : model_stats_) {
      reg.gauge("gateway.model." + std::to_string(model) + ".slo_attainment")
          ->set(stats.slo_attainment());
    }
  });
}

void Gateway::submit(core::Request request, ResultCallback done) {
  serial_.AssertHeld();
  BatchMemo memo;
  submit_one(std::move(request), std::move(done), memo);
  flush_counts(memo);
}

void Gateway::submit_batch(std::vector<Submission>&& batch) {
  serial_.AssertHeld();
  BatchMemo memo;
  for (Submission& cell : batch) {
    submit_one(std::move(cell.request), std::move(cell.done), memo);
  }
  flush_counts(memo);
  batch.clear();  // keeps the capacity, so the caller may reuse the buffer
}

void Gateway::flush_counts(const BatchMemo& memo) {
  if (tel_) {
    tel_->submitted->add(memo.submitted);
    tel_->queued->add(memo.queued);
  }
}

void Gateway::submit_one(core::Request request, ResultCallback done,
                         BatchMemo& memo) {
  GFAAS_CHECK(done != nullptr);
  const SimTime now = cluster_->executor().now();
  request.arrival = now;
  if (request.deadline == kSimTimeMax && config_.default_slo > 0) {
    request.deadline = now + config_.default_slo;
  }
  ++counters_.submitted;
  if (tel_) {
    ++memo.submitted;
    tel_->spans->record(request.id.value(), telemetry::SpanEvent::kSubmit, now);
  }

  // Tenant admission (§VI): from here on the request holds one of its
  // tenant's execution slots, released wherever it resolves.
  if (tenants_ != nullptr) {
    if (tenants_->admit(request.tenant, now) != Admission::kAdmitted) {
      resolve_locally(request, Disposition::kShed, done, /*tenant_denied=*/true);
      return;
    }
    tenants_->on_dispatch(request.tenant);
  }

  // Already stale at the door (a client retransmitted an expired call):
  // answer now rather than spending GPU time on a dead request.
  if (request.deadline <= now) {
    resolve_locally(request, Disposition::kExpired, done);
    return;
  }
  // A zero-capacity window can never admit, and nothing ever drains the
  // pending queue: shed synchronously instead of stranding callbacks.
  if (config_.max_in_flight == 0) {
    resolve_locally(request, Disposition::kShed, done);
    return;
  }
  if (flights_.size() < config_.max_in_flight) {
    // Admission mutates the engine (global queue, dispatch state): any
    // memoized fleet scan from earlier in the batch is stale now.
    memo.valid = false;
    admit(std::move(request), std::move(done));
    return;
  }
  // Window full: shed vs queue. Queue only when the engine's own
  // estimates say the request can still make its deadline from the back
  // of the backlog; otherwise shedding now is strictly kinder than an
  // expiry later.
  if (pending_.size() >= config_.max_pending) {
    resolve_locally(request, Disposition::kShed, done);
    return;
  }
  const SimTime estimate = estimated_completion_impl(request, memo);
  if (estimate > request.deadline) {
    resolve_locally(request, Disposition::kShed, done);
    return;
  }
  if (tel_) {
    ++memo.queued;
    tel_->spans->record(request.id.value(), telemetry::SpanEvent::kQueue, now,
                        -1, estimate);
  }
  pending_.push_back(
      PendingRequest{std::move(request), std::move(done), estimate});
}

SimTime Gateway::estimated_completion(const core::Request& request) const {
  serial_.AssertHeld();
  BatchMemo memo;
  return estimated_completion_impl(request, memo);
}

SimTime Gateway::estimated_completion_impl(const core::Request& request,
                                           BatchMemo& memo) const {
  const cluster::SchedulerEngine& engine = cluster_->engine();
  if (!memo.valid) {
    memo.now = cluster_->executor().now();
    memo.fleet = engine.schedulable_gpu_count();
    memo.counted = 0;
    memo.mean_finish = 0.0;
    memo.global_queue = 0;
    if (memo.fleet > 0) {
      // When the engine's committed work (in-flight inference plus the
      // local queues, per the engine's own §IV-A finish-time estimates)
      // drains, on average across the schedulable fleet. The mean — not
      // the min — is what a request at the back of the backlog actually
      // experiences: the scheduler spreads the backlog over every GPU,
      // not just the soonest. Idle GPUs contribute `now` each; no need
      // to enumerate them (this runs per submission under overload,
      // exactly when it matters — and once per *batch* on the bulk
      // path: admissions are the only engine mutations a submission can
      // cause, so between admissions this scan is invariant).
      memo.counted = engine.idle_gpu_count();
      memo.mean_finish =
          static_cast<double>(memo.now) * static_cast<double>(memo.counted);
      engine.for_each_busy_gpu([&engine, &memo](GpuId gpu) {
        if (engine.is_fenced(gpu)) return;  // draining: takes no new work
        memo.mean_finish += static_cast<double>(
            std::max(memo.now, engine.estimated_finish_time(gpu)));
        ++memo.counted;
      });
      if (memo.counted > 0) {
        memo.mean_finish /= static_cast<double>(memo.counted);
      }
      memo.global_queue = engine.global_queue().size();
    }
    memo.valid = true;
  }
  if (memo.fleet == 0) return kSimTimeMax;
  if (memo.counted == 0) return kSimTimeMax;  // whole fleet draining

  // The request's own demand: a cold load unless the model is warm
  // somewhere the scheduler can route to. Always read live — it is
  // request-specific, and so is pending_.size() below, which the batch
  // itself grows.
  const SimTime service =
      (engine.cache().cached_anywhere(request.model)
           ? 0
           : engine.load_time(request.model)) +
      engine.infer_time(request.model, request.batch);
  // Backlog ahead of this request that the committed-finish estimates do
  // not cover yet — the engine's global queue plus our own pending queue
  // — spread across the fleet, each round costing about one service time.
  const std::size_t ahead = memo.global_queue + pending_.size();
  const auto rounds = static_cast<SimTime>(ahead / memo.fleet);
  return static_cast<SimTime>(memo.mean_finish) + service * (1 + rounds);
}

Gateway::FlightSlot Gateway::FlightTable::insert(Flight flight) {
  FlightSlot slot = free_;
  if (slot == kNone) {
    slot = static_cast<FlightSlot>(slots_.size());
    GFAAS_CHECK(slot != kNone) << "flight table full";
    slots_.emplace_back();
  } else {
    free_ = slots_[slot].next_free;
  }
  Slot& s = slots_[slot];
  s.flight = std::move(flight);
  s.live = true;
  ++live_;
  return slot;
}

Gateway::Flight Gateway::FlightTable::release(FlightSlot slot) {
  Slot& s = slots_[slot];
  GFAAS_CHECK(s.live) << "release of free flight slot " << slot;
  Flight flight = std::move(s.flight);
  s.live = false;
  ++s.generation;
  s.next_free = free_;
  free_ = slot;
  --live_;
  return flight;
}

void Gateway::admit(core::Request request, ResultCallback done,
                    SimTime estimate) {
  ++counters_.admitted;
  if (tel_) {
    tel_->admitted->add();
    tel_->spans->record(request.id.value(), telemetry::SpanEvent::kAdmit,
                        cluster_->executor().now());
  }
  Flight flight;
  flight.request = std::move(request);
  flight.done = std::move(done);
  flight.estimate = estimate;
  const FlightSlot slot = flights_.insert(std::move(flight));
  Flight& admitted = flights_[slot];
  // The hook captures the flight's slot, so every copy of the request —
  // retries under the same id, hedges under a fresh one — reports back to
  // this flight. The flight keeps the pristine request, hook included, to
  // resubmit from, and the engine gets a copy. The request holds no heap
  // data and the capture fits std::function's inline buffer, so the copy
  // allocates nothing.
  const auto hook = [this, slot](const core::CompletionRecord& record) {
    serial_.AssertHeld();  // engine completions fire on the worker thread
    on_engine_result(slot, record);
  };
  static_assert(sizeof(hook) <= 16 &&
                    std::is_trivially_copyable_v<decltype(hook)>,
                "the hook must stay inline in std::function");
  admitted.request.on_complete = hook;
  cluster_->engine().submit(admitted.request);
  if (config_.hedge_budget_fraction > 0 &&
      admitted.request.deadline != kSimTimeMax) {
    const core::Request& req = admitted.request;
    const auto budget = static_cast<double>(req.deadline - req.arrival);
    arm_hedge_timer(slot, req.arrival + static_cast<SimTime>(
                                            config_.hedge_budget_fraction * budget));
  }
}

void Gateway::arm_hedge_timer(FlightSlot slot, SimTime fire_at) {
  const std::uint32_t generation = flights_.generation(slot);
  const SimTime delay =
      std::max<SimTime>(0, fire_at - cluster_->executor().now());
  const auto timer = [this, slot, generation] {
    serial_.AssertHeld();  // timer callbacks fire on the worker thread
    on_hedge_timer(slot, generation);
  };
  static_assert(sizeof(timer) <= 16 &&
                    std::is_trivially_copyable_v<decltype(timer)>,
                "the hedge timer must stay inline in std::function");
  flights_[slot].hedge_event = cluster_->executor().schedule_after(delay, timer);
}

void Gateway::on_hedge_timer(FlightSlot slot, std::uint32_t generation) {
  if (!flights_.live(slot) || flights_.generation(slot) != generation) {
    return;  // resolved; stale timer
  }
  Flight& flight = flights_[slot];
  flight.hedge_event = 0;
  if (flight.hedge_id >= 0) return;  // already hedged
  const core::Request& req = flight.request;
  const SimTime now = cluster_->executor().now();
  if (now >= req.deadline) return;  // no budget left to race against
  cluster::SchedulerEngine& engine = cluster_->engine();
  // Only waiting requests are hedged. Duplicating an *executing* request
  // was tried and hurts: every won race re-idles the straggling GPU,
  // which immediately grabs (and slow-walks) the next request — the
  // degradation spreads instead of being contained by its own
  // backpressure. A parked primary, by contrast, cancels for free.
  if (engine.request_executing(req.id)) return;  // dispatched: nothing to win
  if (!engine.request_waiting(req.id)) return;   // failure being handled
  core::Request hedge = flight.request;  // its hook reports this slot
  hedge.id = RequestId(next_hedge_id_++);
  const std::int64_t hedge_id = hedge.id.value();
  const GpuId gpu = engine.hedge_dispatch(std::move(hedge), req.id);
  if (!gpu.valid()) {
    // No idle GPU to duplicate onto, or the engine judged the duplicate
    // a guaranteed loser against the primary's queue position. Re-check
    // shortly; the timer retires itself once the deadline passes or the
    // primary dispatches.
    next_hedge_id_ = hedge_id;  // id unused; reclaim for determinism
    arm_hedge_timer(slot, now + config_.hedge_retry_interval);
    return;
  }
  flight.hedge_id = hedge_id;
  ++counters_.hedges;
  if (tel_) {
    tel_->hedges->add();
    tel_->spans->record(req.id.value(), telemetry::SpanEvent::kHedge, now,
                        static_cast<std::int32_t>(gpu.value()));
  }
}

void Gateway::resolve_locally(const core::Request& request, Disposition disposition,
                              ResultCallback& done, bool tenant_denied) {
  const SimTime now = cluster_->executor().now();
  if (tenants_ != nullptr && !tenant_denied) {
    tenants_->on_complete(request.tenant, now, /*gpu_time=*/0);
  }
  ModelServingStats& stats = model_stats_[request.model.value()];
  GatewayResult result;
  result.disposition = disposition;
  if (disposition == Disposition::kShed) {
    ++counters_.shed;
    ++stats.shed;
    if (!tenant_denied) {
      window_sheds_.push_back(now);
      trim_window(now);
    }
    if (tel_) {
      tel_->shed->add();
      tel_->spans->record(request.id.value(), telemetry::SpanEvent::kShed, now);
    }
  } else {
    GFAAS_CHECK(disposition == Disposition::kExpired);
    ++counters_.expired;
    ++stats.expired;
    if (tel_) {
      tel_->expired->add();
      tel_->spans->record(request.id.value(), telemetry::SpanEvent::kExpired, now);
    }
  }
  deliver(std::move(done), result);
}

void Gateway::deliver(ResultCallback&& done, const GatewayResult& result) {
  if (callbacks_ == nullptr) {
    done(result);
    return;
  }
  // The closure owns the callback and a copy of the result, so it does
  // not depend on the Gateway outliving the executor's queue.
  auto task = [done = std::move(done), result] { done(result); };
  static_assert(concurrent::Task::kFitsInline<decltype(task)>,
                "a delivered result must be stored in place by the executor");
  callbacks_->post(std::move(task));
}

void Gateway::on_engine_result(FlightSlot slot,
                               const core::CompletionRecord& record) {
  GFAAS_CHECK(flights_.live(slot))
      << "engine result " << record.id.value() << " for a retired flight";
  Flight& flight = flights_[slot];
  const std::int64_t id = flight.request.id.value();
  const bool is_hedge = record.id.value() != id;
  GFAAS_CHECK(!is_hedge || record.id.value() == flight.hedge_id)
      << "engine result " << record.id.value() << " for flight " << id
      << " (hedge " << flight.hedge_id << ")";

  if (!record.failed) {
    // A winner. Cancel the losing copy (it may be queued or executing;
    // the engine drops its hook silently either way) before resolving.
    if (is_hedge) {
      ++counters_.hedge_wins;
      if (tel_) tel_->hedge_wins->add();
    }
    const std::int64_t loser = is_hedge ? id : flight.hedge_id;
    const bool loser_live = is_hedge ? flight.primary_live : flight.hedge_id >= 0;
    if (loser_live) {
      GFAAS_CHECK(cluster_->engine().cancel_request(RequestId(loser)))
          << "hedge loser " << loser << " neither queued nor executing";
      if (!is_hedge) ++counters_.hedges_cancelled;
    }
    core::CompletionRecord normalized = record;
    normalized.id = flight.request.id;
    resolve_flight(slot, normalized);
    return;
  }

  // One copy died with its GPU. Remember the first cause — that is what
  // the caller should see if everything else fails too.
  if (is_hedge) {
    flight.hedge_id = -1;
  } else {
    flight.primary_live = false;
  }
  if (!flight.failed_before) {
    flight.first_failure = record;
    flight.failed_before = true;
  }
  // While the other copy is still racing, swallow the failure: the flight
  // can still complete normally (a domain kill that takes out both copies
  // lands here twice; only the second fall-through decides).
  if (flight.primary_live || flight.hedge_id >= 0) return;

  // Every copy is dead: retry on surviving capacity, budget permitting.
  const bool budget_left = flight.retries < config_.max_retries;
  if (budget_left &&
      estimated_completion(flight.request) <= flight.request.deadline) {
    ++flight.retries;
    ++counters_.retries;
    ++model_stats_[flight.request.model.value()].retried;
    if (tel_) {
      tel_->retries->add();
      tel_->spans->record(id, telemetry::SpanEvent::kRetry,
                          cluster_->executor().now());
    }
    flight.primary_live = true;
    cluster_->engine().submit(flight.request);
    // The hedge timer (if hedging is on and none is pending) keeps
    // covering the retry: re-arm against the remaining budget.
    if (config_.hedge_budget_fraction > 0 && flight.hedge_event == 0 &&
        flight.request.deadline != kSimTimeMax) {
      arm_hedge_timer(slot, cluster_->executor().now() +
                                config_.hedge_retry_interval);
    }
    return;
  }
  if (budget_left) ++counters_.retries_denied;
  core::CompletionRecord failure = flight.first_failure;
  failure.id = flight.request.id;
  resolve_flight(slot, failure);
}

void Gateway::resolve_flight(FlightSlot slot,
                             const core::CompletionRecord& record) {
  Flight flight = flights_.release(slot);
  if (flight.hedge_event != 0) cluster_->executor().cancel(flight.hedge_event);
  if (tenants_ != nullptr) {
    tenants_->on_complete(flight.request.tenant, cluster_->executor().now(),
                          record.completed - record.dispatched);
  }
  ModelServingStats& stats = model_stats_[record.model.value()];
  GatewayResult result;
  result.record = record;
  if (record.failed) {
    result.disposition = Disposition::kFailed;
    ++counters_.failed;
    ++stats.failed;
    if (tel_) {
      tel_->failed->add();
      tel_->spans->record(record.id.value(), telemetry::SpanEvent::kFail,
                          record.completed,
                          static_cast<std::int32_t>(record.gpu.value()));
    }
  } else {
    result.disposition = Disposition::kCompleted;
    result.slo_met = record.slo_met();
    ++counters_.completed;
    ++stats.completed;
    if (result.slo_met) {
      ++counters_.slo_met;
      ++stats.slo_met;
    }
    stats.latency_s.add(sim_to_seconds(record.latency()));
    const SimTime wait = record.dispatched - record.arrival;
    const bool deep_wait =
        record.deadline != kSimTimeMax &&
        static_cast<double>(wait) >
            config_.wait_budget_fraction *
                static_cast<double>(record.deadline - record.arrival);
    window_latencies_.push_back(
        OutcomeSample{record.completed, record.latency(), deep_wait});
    trim_window(record.completed);
    if (tel_) {
      tel_->completed->add();
      if (result.slo_met) tel_->slo_met->add();
      tel_->latency_s->record(sim_to_seconds(record.latency()));
      tel_->wait_s->record(sim_to_seconds(wait));
      tel_->exec_s->record(sim_to_seconds(record.completed - record.dispatched));
      if (flight.estimate > 0) {
        const SimTime error = record.completed > flight.estimate
                                  ? record.completed - flight.estimate
                                  : flight.estimate - record.completed;
        tel_->estimate_error_s->record(sim_to_seconds(error));
      }
      tel_->spans->record(record.id.value(), telemetry::SpanEvent::kComplete,
                          record.completed,
                          static_cast<std::int32_t>(record.gpu.value()),
                          record.latency());
    }
  }
  // Admit from the pending queue before resolving the callback: a client
  // that synchronously resubmits from its callback must line up behind
  // the requests already waiting, not steal the slot this completion
  // just freed.
  drain_pending();
  deliver(std::move(flight.done), result);
}

void Gateway::drain_pending() {
  while (flights_.size() < config_.max_in_flight && !pending_.empty()) {
    PendingRequest next = std::move(pending_.front());
    pending_.pop_front();
    if (next.request.deadline <= cluster_->executor().now()) {
      resolve_locally(next.request, Disposition::kExpired, next.done);
      continue;
    }
    admit(std::move(next.request), std::move(next.done), next.estimate);
  }
}

void Gateway::trim_window(SimTime now) const {
  const SimTime cutoff = now - config_.stats_window;
  while (!window_latencies_.empty() && window_latencies_.front().completed < cutoff) {
    window_latencies_.pop_front();
  }
  while (!window_sheds_.empty() && window_sheds_.front() < cutoff) {
    window_sheds_.pop_front();
  }
}

double Gateway::slo_attainment() const {
  serial_.AssertHeld();
  return counters_.completed > 0 ? static_cast<double>(counters_.slo_met) /
                                       static_cast<double>(counters_.completed)
                                 : 0.0;
}

WindowedOutcomes Gateway::windowed_outcomes() const {
  serial_.AssertHeld();
  trim_window(cluster_->executor().now());
  WindowedOutcomes out;
  out.completions = window_latencies_.size();
  out.sheds = window_sheds_.size();
  if (!window_latencies_.empty()) {
    std::vector<SimTime> latencies;
    latencies.reserve(window_latencies_.size());
    for (std::size_t i = 0; i < window_latencies_.size(); ++i) {
      const OutcomeSample& sample = window_latencies_[i];
      latencies.push_back(sample.latency);
      if (sample.deep_wait) ++out.deep_waits;
    }
    std::sort(latencies.begin(), latencies.end());
    out.p50_latency = latencies[metrics::nearest_rank(latencies.size(), 0.50)];
    out.p99_latency = latencies[metrics::nearest_rank(latencies.size(), 0.99)];
  }
  return out;
}

void Gateway::audit() const {
  serial_.AssertHeld();
  const GatewayCounters& c = counters_;
  const std::int64_t resolved = c.completed + c.shed + c.expired + c.failed;
  const auto live = static_cast<std::int64_t>(flights_.size() + pending_.size());
  GFAAS_CHECK(c.submitted == resolved + live)
      << c.submitted << " submitted, " << resolved << " resolved, " << live << " live";
  GFAAS_CHECK(flights_.size() <= config_.max_in_flight)
      << flights_.size() << " flights over a window of " << config_.max_in_flight;
}

}  // namespace gfaas::gateway
