#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace gfaas::sim {

std::uint64_t Simulator::schedule_on_lane(SimTime when, std::uint8_t lane,
                                          std::function<void()> fn) {
  GFAAS_CHECK(when >= now_) << "scheduling into the past: " << when << " < " << now_;
  GFAAS_CHECK(fn != nullptr);
  const std::uint64_t id = next_id_++;
  heap_.push_back(Event{when, lane, next_seq_++, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), EventOrder{});
  live_.insert(id);
  return id;
}

std::uint64_t Simulator::schedule_at(SimTime when, std::function<void()> fn) {
  return schedule_on_lane(when, kDefaultLane, std::move(fn));
}

std::uint64_t Simulator::schedule_arrival_at(SimTime when, std::function<void()> fn) {
  return schedule_on_lane(when, kArrivalLane, std::move(fn));
}

bool Simulator::cancel(std::uint64_t event_id) {
  // Only events still pending (scheduled, not yet run or cancelled) can be
  // cancelled. The heap entry stays behind as a tombstone and is dropped
  // lazily by settle_head(); amortized O(1).
  return live_.erase(event_id) > 0;
}

void Simulator::settle_head() {
  while (!heap_.empty() && live_.count(heap_.front().id) == 0) {
    std::pop_heap(heap_.begin(), heap_.end(), EventOrder{});
    heap_.pop_back();
  }
}

bool Simulator::pop_and_run() {
  settle_head();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), EventOrder{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  live_.erase(ev.id);
  now_ = ev.time;
  ++executed_;
  ev.fn();
  return true;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (pop_and_run()) ++n;
  return n;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t n = 0;
  // Settle before testing the head so a cancelled tombstone inside the
  // deadline can never pull a live event from beyond it.
  for (settle_head(); !heap_.empty() && heap_.front().time <= deadline;
       settle_head()) {
    if (pop_and_run()) ++n;
  }
  now_ = std::max(now_, deadline);
  return n;
}

bool Simulator::step() { return pop_and_run(); }

}  // namespace gfaas::sim
