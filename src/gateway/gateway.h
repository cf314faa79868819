// Gateway serving layer: the async front end of the cluster (paper
// Fig. 3: "the Gateway submits requests" — this is that Gateway).
//
// The trace-replay drivers feed the engine a pre-materialized request
// stream; the Gateway instead serves live submissions with per-request
// SLO metadata and admission control, turning the ElasticCluster seam
// into something that can serve real RPCs in both execution modes
// (SimCluster, evaluation; RealTimeCluster, deployment):
//
//   * submit(request, done) stamps arrival and deadline (arrival + SLO),
//     and resolves `done` exactly once with the request's disposition —
//     completed, shed, expired, or failed (GPU died mid-request);
//   * submit_batch(cells) is the bulk form the concurrent ingestion path
//     drains into: one burst of submissions shares a single fleet-scan
//     finish-time estimate (memoized between admissions, invalidated by
//     each one), producing exactly the same shed-vs-queue decisions as
//     submitting the cells one at a time (bench_seed_digest-guarded);
//   * optional tenant admission (paper §VI multi-tenancy): with a
//     TenantManager attached, each submission first passes its tenant's
//     rate limit, concurrency cap and GPU-time share, or is shed;
//   * admission is a bounded in-flight window: at most max_in_flight
//     requests live inside the engine at once. A submission over the
//     window faces the shed-vs-queue decision: the Gateway estimates the
//     request's completion from the engine's own finish-time estimates
//     (§IV-A) plus the backlog ahead of it, sheds immediately when the
//     estimate already busts the deadline (the client can retry
//     elsewhere now instead of timing out later), and otherwise holds
//     the request in a bounded pending queue that drains on completions;
//   * per-model serving stats (completions, SLO attainment, latency
//     moments) and a trailing-window outcome record (latency quantiles,
//     shed and deep-wait fractions) feed the SLO-aware scaling policy:
//     the caller wires autoscale::SloAwarePolicy's probe callback to
//     windowed_outcomes() (autoscale and gateway never link each other);
//   * resilience, off by default (GatewayConfig::max_retries / hedging):
//     a failed request is transparently resubmitted on surviving
//     capacity while its SLO budget allows, and a deep-waiting request
//     is hedged — duplicated onto an idle GPU, first completion wins,
//     the loser is cancelled through the engine's abort path — with the
//     caller's callback still firing exactly once.
//
// Threading: the Gateway's own state is not internally synchronized —
// submit()/submit_batch() and engine completions all run on the
// executor's worker thread. Client threads do not schedule submissions
// themselves anymore: they push {request, callback} cells into a
// ConcurrentIngress (gateway/ingress.h), whose lock-free MPSC queue the
// worker drains into submit_batch() in one pass. Completion-callback
// fan-out can be moved off the worker thread with
// set_callback_executor(): every resolution is then posted, in
// resolution order, to a dedicated concurrent::CallbackExecutor thread,
// so a slow client callback can never stall dispatch. Callbacks remain
// exactly-once per request either way.
//
// Lifetime: a posted resolution carries its callback and its result by
// value, so the callback executor's pending work never refers back to
// the Gateway; the Gateway may be destroyed before the executor drains.
//
// No allocation in the steady state: once warm, a request that is
// admitted, served and resolved allocates nothing in the Gateway. Each
// admitted request lives in a flight slot recycled through a free list,
// its completion hook and hedge timer capture only the slot (they fit
// std::function's inline buffer), the pending queue and the trailing
// outcome window are rings that keep their capacity, and a resolution
// posted to the callback executor is stored in place there.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/elastic_cluster.h"
#include "common/thread_annotations.h"
#include "core/request.h"
#include "metrics/stats.h"

namespace gfaas::concurrent {
class CallbackExecutor;
}  // namespace gfaas::concurrent

namespace gfaas::telemetry {
class Telemetry;
}  // namespace gfaas::telemetry

namespace gfaas::gateway {

class TenantManager;

// Final disposition of one submitted request.
enum class Disposition {
  kCompleted,  // served; slo_met tells whether within deadline
  kShed,       // rejected at admission (load shedding)
  kExpired,    // deadline passed before the engine could take it
  kFailed,     // GPU died mid-request (chaos path)
};

const char* disposition_name(Disposition disposition);

struct GatewayResult {
  Disposition disposition = Disposition::kCompleted;
  // Valid for kCompleted and kFailed; default-initialized otherwise.
  core::CompletionRecord record;
  // Completed within its deadline.
  bool slo_met = false;
};

using ResultCallback = std::function<void(const GatewayResult&)>;

// One unit of ingestion: what a producer thread enqueues and what
// submit_batch consumes. Default-constructible so it can live in the
// MPSC ring's cells.
struct Submission {
  core::Request request;
  ResultCallback done;
};

struct GatewayConfig {
  // Admission window: requests concurrently inside the engine (global
  // queue + local queues + executing). 0 sheds every submission — a
  // drained gateway held in reserve.
  std::size_t max_in_flight = 256;
  // Bounded pending queue for submissions over the window; overflow
  // sheds the newcomer.
  std::size_t max_pending = 4096;
  // Latency SLO stamped onto requests that arrive without a deadline:
  // deadline = arrival + default_slo.
  SimTime default_slo = sec(30);
  // Trailing window for the outcome record the scaling probe reads.
  SimTime stats_window = minutes(2);
  // A completion whose pre-dispatch wait exceeded this fraction of its
  // SLO budget (deadline - arrival) counts as a deep wait.
  double wait_budget_fraction = 0.25;

  // --- failure resilience (chaos path). Both knobs default OFF so the
  // serving path is byte-identical to the plain engine when unused (the
  // bench_seed_digest guard).
  //
  // Transparent retry: a request whose completion hook fires failed=true
  // (its GPU died) is resubmitted onto surviving capacity up to this many
  // times before the caller sees kFailed. A retry is only spent when the
  // engine's own finish-time estimate says it can still make the
  // deadline; otherwise the failure is reported at once with the
  // original cause.
  int max_retries = 0;
  // Tail-latency hedging: a request still waiting (not dispatched) after
  // this fraction of its SLO budget (deadline - arrival) is duplicated
  // onto an idle schedulable GPU — warm holder preferred, else the
  // least-loaded. First completion wins; the loser is cancelled through
  // the engine's abort path, and the caller's callback fires exactly
  // once either way. 0 disables. Requests without a finite deadline are
  // never hedged (no budget to race against).
  double hedge_budget_fraction = 0.0;
  // When the hedge trigger finds no idle GPU (fleet saturated), re-check
  // after this long, until the deadline passes.
  SimTime hedge_retry_interval = msec(50);
};

// Serving counters, whole-run.
struct GatewayCounters {
  std::int64_t submitted = 0;
  std::int64_t admitted = 0;
  std::int64_t completed = 0;
  std::int64_t slo_met = 0;
  std::int64_t shed = 0;
  std::int64_t expired = 0;
  std::int64_t failed = 0;
  // --- resilience (see GatewayConfig::max_retries / hedging) ---
  std::int64_t retries = 0;         // failed requests resubmitted
  std::int64_t retries_denied = 0;  // retry budget left, but SLO budget gone
  std::int64_t hedges = 0;          // duplicates launched
  std::int64_t hedge_wins = 0;      // duplicate finished first
  std::int64_t hedges_cancelled = 0;  // duplicates cancelled (primary won)
};

// Per-model serving stats (the serving twin of the per-policy grids).
struct ModelServingStats {
  std::int64_t completed = 0;
  std::int64_t slo_met = 0;
  std::int64_t shed = 0;
  std::int64_t expired = 0;
  std::int64_t failed = 0;
  std::int64_t retried = 0;  // transparent resubmissions after a GPU death
  metrics::StreamingStats latency_s;  // completed requests only

  double slo_attainment() const {
    return completed > 0
               ? static_cast<double>(slo_met) / static_cast<double>(completed)
               : 0.0;
  }
};

// What the scaling probe sees: the trailing stats_window of outcomes.
// Wait (dispatch - arrival) is reported separately from end-to-end
// latency: waits are the part of latency capacity can fix, while the
// end-to-end tail also carries the intrinsic model-load time that no
// fleet size removes (autoscale::SloAwarePolicy steers on the former).
// Because the LALB policy queues a tail of requests on busy GPUs by
// design (cache affinity), a wait *percentile* never reads zero; the
// robust congestion aggregate is deep_wait_fraction — how many requests
// burned more than wait_budget_fraction of their SLO budget waiting.
struct WindowedOutcomes {
  std::size_t completions = 0;
  std::size_t sheds = 0;
  std::size_t deep_waits = 0;
  SimTime p50_latency = 0;
  SimTime p99_latency = 0;

  double shed_fraction() const {
    const std::size_t total = completions + sheds;
    return total > 0 ? static_cast<double>(sheds) / static_cast<double>(total) : 0.0;
  }
  double deep_wait_fraction() const {
    return completions > 0
               ? static_cast<double>(deep_waits) / static_cast<double>(completions)
               : 0.0;
  }
};

class Gateway {
 public:
  // `cluster` must outlive the gateway. Every request the gateway
  // submits carries a completion hook back to it; other submitters may
  // still feed the engine directly.
  Gateway(cluster::ElasticCluster* cluster, GatewayConfig config = {});
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  // Attaches the live-telemetry seam: serving counters, latency / wait /
  // admission-estimate-error histograms, per-request lifecycle spans,
  // and a pull probe for queue depths and per-model SLO attainment.
  // Nullable — the default (detached) serving path records nothing and
  // stays byte-identical to the uninstrumented build. Wire before the
  // first submission; `telemetry` must outlive the gateway's last
  // resolution and the exporter's last tick.
  void set_telemetry(telemetry::Telemetry* telemetry);

  // Attaches tenant admission (paper §VI). Nullable and not owned; the
  // default (detached) path never reads Request::tenant. Attached, every
  // submission must carry a registered tenant that passes
  // TenantManager::admit before the window check, or it resolves kShed
  // (counted in TenantUsage::rejected). An admitted request holds one of
  // its tenant's execution slots (on_dispatch) from then until its
  // callback resolves, whatever the disposition, and releases it exactly
  // once (on_complete) just before that callback — also when it expires
  // in the pending queue, and across retries and hedges, which share the
  // one flight. The release charges the resolving record's GPU time,
  // completed - dispatched (load plus inference); a request that never
  // reached a GPU is charged 0. Wire before the first submission;
  // `manager` must outlive the gateway's last resolution.
  void set_tenant_manager(TenantManager* manager) { tenants_ = manager; }

  // Submits one request for serving. Stamps request.arrival = now and,
  // when the request carries no deadline, deadline = now + default_slo.
  // `done` fires exactly once — possibly synchronously (shed / expired /
  // zero window), otherwise at completion or failure. (With a callback
  // executor attached, "synchronously" becomes "posted immediately".)
  void submit(core::Request request, ResultCallback done);

  // Bulk admission for a drained ingestion burst: submits every cell in
  // order, amortizing the window check and the fleet-scan half of the
  // finish-time estimate over the batch. Decisions are identical to
  // calling submit() per cell — the memoized scan is invalidated by
  // every admission, and only engine-invariant stretches reuse it. With
  // telemetry attached, the submitted and queued counters move once per
  // batch.
  // Leaves `batch` empty with its capacity, so a caller may reuse it.
  void submit_batch(std::vector<Submission>&& batch);

  // Routes every future result callback (and the synchronous shed /
  // expired answers) through `callbacks` instead of invoking them on the
  // executor's worker thread. Pass nullptr to restore inline delivery.
  // Must be set before the first submission; `callbacks` must outlive
  // the gateway's last resolution.
  void set_callback_executor(concurrent::CallbackExecutor* callbacks) {
    callbacks_ = callbacks;
  }

  // Estimated completion time of `request` were it admitted now: the
  // earliest schedulable-GPU availability by the engine's finish-time
  // estimates, plus the request's own service time, scaled by the
  // backlog ahead of it. kSimTimeMax when no GPU is schedulable.
  SimTime estimated_completion(const core::Request& request) const;

  // --- observability ---
  // Like every other Gateway method, these run on the executor's worker
  // thread (or after it has quiesced — drain() is the happens-before
  // edge that lets the driving thread read results when a run ends).
  std::size_t in_flight() const {
    serial_.AssertHeld();
    return flights_.size();
  }
  std::size_t pending() const {
    serial_.AssertHeld();
    return pending_.size();
  }
  const GatewayCounters& counters() const {
    serial_.AssertHeld();
    return counters_;
  }
  // Whole-run SLO attainment over completed requests.
  double slo_attainment() const;
  // Per-model stats, keyed by model id (ordered for stable reports).
  const std::map<std::int64_t, ModelServingStats>& model_stats() const {
    serial_.AssertHeld();
    return model_stats_;
  }
  // Trailing-window outcome record (the SLO-aware scaling signal).
  WindowedOutcomes windowed_outcomes() const;
  // CHECKs request conservation — every submission is completed, shed,
  // expired, failed, in flight or pending — and the window bound
  // in_flight() <= max_in_flight.
  void audit() const;

 private:
  // Seam for tests/negative_compile: the probe reads guarded members
  // WITHOUT the capability and must fail thread-safety analysis — which
  // proves the GUARDED_BY annotations below are actually present.
  friend class ThreadSafetyProbe;

  struct PendingRequest {
    core::Request request;
    ResultCallback done;
    // Completion estimate from the shed-vs-queue decision (0 when the
    // request was admitted without one); telemetry scores the admission
    // estimator against it at resolution.
    SimTime estimate = 0;
  };

  // One admitted request until its callback resolves. The gateway may
  // have up to two engine-side copies racing for it (the primary —
  // possibly a retry reincarnation under the same id — and one hedge
  // under a fresh id); every copy carries the request's completion hook,
  // which reports the flight's slot, so each result finds its flight.
  struct Flight {
    core::Request request;  // pristine copy for retries and hedges
    ResultCallback done;
    int retries = 0;
    bool primary_live = true;
    std::int64_t hedge_id = -1;      // engine id of the live hedge, -1 none
    std::uint64_t hedge_event = 0;   // pending hedge-timer event, 0 none
    // First failure seen, reported as the cause if every copy and retry
    // dies (the caller learns what originally went wrong, not what the
    // last doomed duplicate hit).
    core::CompletionRecord first_failure;
    bool failed_before = false;
    // See PendingRequest::estimate.
    SimTime estimate = 0;
  };

  // The admitted flights, in slots recycled through a free list (the
  // shape of core::RequestTable): admission takes a slot, resolution
  // frees it, and the slot index is what the completion hook and the
  // hedge timer capture. Freeing a slot advances its generation, so a
  // timer armed for an earlier flight in the slot can tell it is stale.
  // Slots live in a deque, so a Flight& stays valid while the table
  // grows.
  class FlightTable {
   public:
    using Index = std::uint32_t;

    Index insert(Flight flight);
    // Moves the flight out and frees its slot.
    Flight release(Index slot);
    Flight& operator[](Index slot) { return slots_[slot].flight; }
    bool live(Index slot) const {
      return slot < slots_.size() && slots_[slot].live;
    }
    std::uint32_t generation(Index slot) const { return slots_[slot].generation; }
    // Live flights.
    std::size_t size() const { return live_; }

   private:
    static constexpr Index kNone = std::numeric_limits<Index>::max();
    struct Slot {
      Flight flight;
      std::uint32_t generation = 0;
      bool live = false;
      Index next_free = kNone;
    };
    std::deque<Slot> slots_;
    Index free_ = kNone;
    std::size_t live_ = 0;
  };
  using FlightSlot = FlightTable::Index;

  // FIFO over a ring whose capacity is a power of two and only grows:
  // push_back and pop_front are O(1), and a steady stream allocates
  // nothing once the ring has reached its peak occupancy.
  template <typename T>
  class Fifo {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    T& front() { return items_[head_]; }
    // The i-th element from the front.
    const T& operator[](std::size_t i) const {
      return items_[(head_ + i) & (items_.size() - 1)];
    }
    void push_back(T item) {
      if (size_ == items_.size()) grow();
      items_[(head_ + size_) & (items_.size() - 1)] = std::move(item);
      ++size_;
    }
    void pop_front() {
      items_[head_] = T();  // releases whatever the popped element holds
      head_ = (head_ + 1) & (items_.size() - 1);
      --size_;
    }

   private:
    void grow() {
      std::vector<T> next(std::max<std::size_t>(16, 2 * items_.size()));
      for (std::size_t i = 0; i < size_; ++i) {
        next[i] = std::move(items_[(head_ + i) & (items_.size() - 1)]);
      }
      items_.swap(next);
      head_ = 0;
    }

    std::vector<T> items_;  // size() is the capacity, a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  // Batch-scoped cache of the fleet scan inside estimated_completion.
  // Valid only while the engine is untouched: every admission (the only
  // engine mutation a submission can cause) invalidates it. Everything
  // request-specific (service time, cache warmth) and everything the
  // batch itself mutates (pending_.size()) is always read live. submit()
  // and estimated_completion() each use a fresh one, a batch of one.
  struct BatchMemo {
    bool valid = false;
    SimTime now = 0;
    double mean_finish = 0.0;
    std::size_t counted = 0;
    std::size_t fleet = 0;
    std::size_t global_queue = 0;
    // The batch's submissions and queued requests, added to the telemetry
    // counters once at the end of the batch instead of one atomic add per
    // request.
    std::int64_t submitted = 0;
    std::int64_t queued = 0;
  };

  void submit_one(core::Request request, ResultCallback done, BatchMemo& memo)
      REQUIRES(serial_);
  // Adds the memo's submitted and queued counts to telemetry.
  void flush_counts(const BatchMemo& memo) REQUIRES(serial_);
  SimTime estimated_completion_impl(const core::Request& request,
                                    BatchMemo& memo) const REQUIRES(serial_);
  void admit(core::Request request, ResultCallback done, SimTime estimate = 0)
      REQUIRES(serial_);
  // Sheds or expires a request the engine never took. A tenant denial
  // holds no slot to release, and as a quota decision rather than a
  // capacity signal it stays out of the windowed shed fraction.
  void resolve_locally(const core::Request& request, Disposition disposition,
                       ResultCallback& done, bool tenant_denied = false)
      REQUIRES(serial_);
  // Invokes `done` with `result` — inline, or posted to the callback
  // executor when one is attached. Consumes `done`.
  void deliver(ResultCallback&& done, const GatewayResult& result)
      REQUIRES(serial_);
  // One engine-side copy of the flight in `slot` completed or failed.
  void on_engine_result(FlightSlot slot, const core::CompletionRecord& record)
      REQUIRES(serial_);
  // Resolves the flight's callback with `record` (id already normalized
  // to the caller's), retiring the flight and its pending hedge timer.
  void resolve_flight(FlightSlot slot, const core::CompletionRecord& record)
      REQUIRES(serial_);
  // Schedules the flight's hedge trigger for `fire_at`.
  void arm_hedge_timer(FlightSlot slot, SimTime fire_at) REQUIRES(serial_);
  // `generation` is the slot's at arming time; a different one means the
  // flight resolved and the timer is stale.
  void on_hedge_timer(FlightSlot slot, std::uint32_t generation)
      REQUIRES(serial_);
  // Admits from the pending queue while the window has room, expiring
  // requests whose deadline passed while they waited.
  void drain_pending() REQUIRES(serial_);
  void trim_window(SimTime now) const REQUIRES(serial_);

  struct OutcomeSample {
    SimTime completed;
    SimTime latency;
    bool deep_wait;  // wait exceeded wait_budget_fraction of the SLO budget
  };

  cluster::ElasticCluster* cluster_;
  GatewayConfig config_;
  concurrent::CallbackExecutor* callbacks_ = nullptr;
  TenantManager* tenants_ = nullptr;
  // Telemetry instrument handles, resolved once at set_telemetry();
  // null when detached (the hot paths then skip every record).
  struct TelemetryHandles;
  std::unique_ptr<TelemetryHandles> tel_;

  // Thread-affinity capability: all mutable serving state below is
  // worker-thread-only by contract (see the header comment), checked
  // statically via GUARDED_BY under Clang and, when a worker binds the
  // capability, dynamically via the asserts at each entry point.
  common::ExecutorAffinity serial_;

  Fifo<PendingRequest> pending_ GUARDED_BY(serial_);

  // Admitted-but-unresolved requests. Hedge duplicates get engine ids
  // from a disjoint namespace so they can never collide with client ids.
  FlightTable flights_ GUARDED_BY(serial_);
  std::int64_t next_hedge_id_ GUARDED_BY(serial_) = std::int64_t{1} << 40;

  GatewayCounters counters_ GUARDED_BY(serial_);
  std::map<std::int64_t, ModelServingStats> model_stats_ GUARDED_BY(serial_);
  // Trailing-window outcome samples, trimmed lazily against stats_window.
  mutable Fifo<OutcomeSample> window_latencies_ GUARDED_BY(serial_);
  mutable Fifo<SimTime> window_sheds_ GUARDED_BY(serial_);
};

}  // namespace gfaas::gateway
