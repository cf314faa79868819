// Deterministic discrete-event simulation engine.
//
// All gFaaS experiments run on this engine: components schedule callbacks
// at absolute or relative simulated times, and the engine executes them in
// (time, insertion-sequence) order. Sequence-number tie-breaking makes
// runs bit-reproducible regardless of container/heap implementation
// details.
//
// The same scheduler/cache/GPU-manager code also runs against wall-clock
// time through cluster::RealTimeExecutor; nothing in those components
// depends on this engine directly — they receive `now` and completion
// callbacks through the Clock/Executor interfaces below.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/log.h"
#include "common/time.h"

namespace gfaas::sim {

// Read-only clock interface; components observe time through this so they
// are agnostic to simulated vs wall-clock execution.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual SimTime now() const = 0;
};

// Deferred-execution interface: "call fn after delay".
class Executor : public Clock {
 public:
  // Schedules fn at now() + delay (delay >= 0). Returns an id usable with
  // cancel().
  virtual std::uint64_t schedule_after(SimTime delay, std::function<void()> fn) = 0;
  virtual bool cancel(std::uint64_t event_id) = 0;

  // Runs fn as soon as possible, keeping FIFO order with the events
  // already due. Semantically schedule_after(0, fn); wall-clock
  // implementations override it with a cheaper immediate-work path
  // (cluster::RealTimeExecutor's ready deque).
  virtual std::uint64_t post(std::function<void()> fn) {
    return schedule_after(0, std::move(fn));
  }
};

class Simulator final : public Executor {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const override { return now_; }

  // Schedules fn at the absolute simulated time `when` (>= now()).
  std::uint64_t schedule_at(SimTime when, std::function<void()> fn);

  // Schedules fn at `when` on the ARRIVAL lane: among events sharing a
  // time, arrival-lane events run before every normally scheduled event,
  // regardless of insertion order (FIFO among themselves). This exists
  // for epoch-chunked replays (shard::ShardedCluster): the seed replay
  // schedules every submission upfront, so its submissions hold the
  // lowest sequence numbers and win every same-time tie against
  // completion events scheduled during the run. A replay that injects
  // arrivals mid-run cannot win those ties by sequence number — the lane
  // restores the seed ordering exactly. Runs that never use this method
  // are unaffected: all-default-lane ordering degenerates to (time, seq).
  std::uint64_t schedule_arrival_at(SimTime when, std::function<void()> fn);

  std::uint64_t schedule_after(SimTime delay, std::function<void()> fn) override {
    GFAAS_CHECK(delay >= 0) << "negative delay " << delay;
    return schedule_at(now_ + delay, std::move(fn));
  }

  // Cancels a pending event; returns false if it already ran or never
  // existed. Cancellation is O(1) (lazy: the event is tombstoned).
  bool cancel(std::uint64_t event_id) override;

  // Runs until the event queue is empty. Returns the number of events run.
  std::size_t run();

  // Runs events with time <= deadline; the clock ends at
  // max(now, deadline) even if the queue drains early.
  std::size_t run_until(SimTime deadline);

  // Executes the single next event, if any. Returns false if queue empty.
  bool step();

  std::size_t pending_events() const { return live_.size(); }
  std::uint64_t events_executed() const { return executed_; }

 private:
  // Same-time ordering is (lane, seq): the arrival lane first, then
  // insertion order. Everything scheduled through the Executor interface
  // uses kDefaultLane, so the lane only matters to callers that opt into
  // schedule_arrival_at().
  static constexpr std::uint8_t kArrivalLane = 0;
  static constexpr std::uint8_t kDefaultLane = 1;

  std::uint64_t schedule_on_lane(SimTime when, std::uint8_t lane,
                                 std::function<void()> fn);

  struct Event {
    SimTime time;
    std::uint8_t lane;  // first tie-breaker: arrivals beat scheduled work
    std::uint64_t seq;  // second tie-breaker: FIFO among same-lane events
    std::uint64_t id;
    std::function<void()> fn;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.lane != b.lane) return a.lane > b.lane;
      return a.seq > b.seq;
    }
  };

  // Pops cancelled tombstones off the heap so heap_.front(), when it
  // exists, is always a live event.
  void settle_head();
  bool pop_and_run();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
  // Binary heap under EventOrder, kept with std::push_heap/pop_heap so
  // the head event can be moved out rather than copied.
  std::vector<Event> heap_;
  // Ids of events scheduled but not yet run or cancelled. An event popped
  // off the heap whose id is absent here was cancelled (lazy tombstone).
  std::unordered_set<std::uint64_t> live_;
};

}  // namespace gfaas::sim
