#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace gfaas::sim {

std::uint64_t Simulator::schedule_keyed(SimTime when, std::uint64_t lane_bit,
                                        std::function<void()> fn) {
  GFAAS_CHECK(when >= now_) << "scheduling into the past: " << when << " < " << now_;
  GFAAS_CHECK(fn != nullptr);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(Entry{when, lane_bit | next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return make_id(slot, s.gen);
}

std::uint64_t Simulator::schedule_at(SimTime when, std::function<void()> fn) {
  return schedule_keyed(when, kDefaultLaneBit, std::move(fn));
}

std::uint64_t Simulator::schedule_arrival_at(SimTime when, std::function<void()> fn) {
  return schedule_keyed(when, 0, std::move(fn));
}

void Simulator::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  ++s.gen;
  free_slots_.push_back(slot);
}

bool Simulator::cancel(std::uint64_t event_id) {
  // Only events still pending (scheduled, not yet run or cancelled) can be
  // cancelled. The heap entry stays behind, stale, and is dropped lazily
  // by settle_head(); amortized O(1).
  const auto slot = static_cast<std::uint32_t>(event_id);
  const auto gen = static_cast<std::uint32_t>(event_id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen || !slots_[slot].fn) {
    return false;
  }
  release(slot);
  return true;
}

void Simulator::settle_head() {
  while (!heap_.empty() && slots_[heap_.front().slot].gen != heap_.front().gen) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

bool Simulator::pop_and_run() {
  settle_head();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry ev = heap_.back();
  heap_.pop_back();
  // Move the callback out and free the slot before running it: the
  // callback may schedule (reusing this slot) or cancel its own id.
  std::function<void()> fn = std::move(slots_[ev.slot].fn);
  release(ev.slot);
  now_ = ev.time;
  ++executed_;
  fn();
  return true;
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (pop_and_run()) ++n;
  return n;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t n = 0;
  // Settle before testing the head so a cancelled entry inside the
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
