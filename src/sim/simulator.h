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

// The event queue is two containers with one order. An event scheduled no
// earlier, by (time, lane, seq), than the newest entry of a sorted run is
// appended to that run; any other event goes on a binary heap. The next
// event is the earlier of the run's head and the heap's front. A replay
// that schedules its sorted arrival trace upfront thus pays O(1) per
// arrival, and the heap holds only the out-of-order work (loads,
// completions, timers) scheduled while the run plays. The run is cleared
// when it drains, and its consumed prefix is dropped once the head passes
// half its length, so a run that never drains stays bounded.
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

  // Cancels a pending event; returns false if it already ran, was already
  // cancelled, or never existed. O(1): the callback is released at once
  // and its entry is dropped lazily when it surfaces.
  bool cancel(std::uint64_t event_id) override;

  // Runs until the event queue is empty. Returns the number of events run.
  std::size_t run();

  // Runs events with time <= deadline; the clock ends at
  // max(now, deadline) even if the queue drains early.
  std::size_t run_until(SimTime deadline);

  // Executes the single next event, if any. Returns false if queue empty.
  bool step();

  // Occupied slots are exactly the pending events.
  std::size_t pending_events() const { return slots_.size() - free_slots_.size(); }
  std::uint64_t events_executed() const { return executed_; }

  // Recomputes the queue's invariants from scratch and CHECK-fails on the
  // first broken one: the live entries in the heap and the run equal
  // pending_events(), every occupied slot has exactly one current entry,
  // the heap is a heap and the run is sorted from its head. For tests;
  // O(pending + slots).
  void audit() const;

 private:
  // Same-time ordering is (lane, seq): the arrival lane first, then
  // insertion order. Everything scheduled through the Executor interface
  // uses the default lane, so the lane only matters to callers that opt
  // into schedule_arrival_at(). Both live in one key: the lane is the top
  // bit, the insertion sequence the rest.
  static constexpr std::uint64_t kDefaultLaneBit = std::uint64_t{1} << 63;

  std::uint64_t schedule_keyed(SimTime when, std::uint64_t lane_bit,
                               std::function<void()> fn);

  // An entry is plain data; the callback lives in slots_[slot]. The
  // entry is current only while the slot's generation still equals `gen`:
  // running or cancelling an event bumps the generation and frees the
  // slot, which turns the entry (and every id handed out for it) stale.
  struct Entry {
    SimTime time;
    std::uint64_t key;  // lane bit | insertion sequence
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.key > b.key;
    }
  };
  struct Slot {
    std::function<void()> fn;  // empty while the slot is free
    std::uint32_t gen = 1;
  };

  // Event ids pack (generation, slot); generations start at 1, so no id
  // is ever 0 and a stale id can never match the slot's next occupant.
  static std::uint64_t make_id(std::uint32_t slot, std::uint32_t gen) {
    return (std::uint64_t{gen} << 32) | slot;
  }
  // Frees the slot and bumps its generation.
  void release(std::uint32_t slot);
  bool stale(const Entry& e) const { return slots_[e.slot].gen != e.gen; }
  // Consumes the run's head: clears the run once it drains and drops the
  // consumed prefix once the head passes half the run.
  void advance_run();
  // Drops stale entries off the front of the heap and of the run, so
  // each front, when it exists, is a live event.
  void settle_head();
  // After settle_head(): whether the run's head precedes the heap's
  // front, and the next event to run (nullptr when none is pending).
  bool run_is_next() const;
  const Entry* next_entry() const;
  bool pop_and_run();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  // The sorted run (entries before run_head_ are consumed) and the binary
  // min-heap under Later, kept with std::push_heap/pop_heap; see the
  // class comment.
  std::vector<Entry> run_;
  std::size_t run_head_ = 0;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace gfaas::sim
