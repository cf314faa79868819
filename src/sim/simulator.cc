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
  const Entry entry{when, lane_bit | next_seq_++, slot, s.gen};
  // An entry no earlier than the run's tail keeps the run sorted and is
  // appended in O(1); only out-of-order entries pay for the heap.
  if (run_.empty() || !Later{}(run_.back(), entry)) {
    run_.push_back(entry);
  } else {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
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
  // cancelled. The entry stays behind, stale, and is dropped lazily by
  // settle_head(); amortized O(1).
  const auto slot = static_cast<std::uint32_t>(event_id);
  const auto gen = static_cast<std::uint32_t>(event_id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen || !slots_[slot].fn) {
    return false;
  }
  release(slot);
  return true;
}

void Simulator::advance_run() {
  if (++run_head_ == run_.size()) {
    run_.clear();
    run_head_ = 0;
  } else if (run_head_ > run_.size() / 2) {
    run_.erase(run_.begin(), run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
    run_head_ = 0;
  }
}

void Simulator::settle_head() {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  while (!run_.empty() && stale(run_[run_head_])) advance_run();
}

bool Simulator::run_is_next() const {
  return !run_.empty() && (heap_.empty() || Later{}(heap_.front(), run_[run_head_]));
}

const Simulator::Entry* Simulator::next_entry() const {
  if (run_is_next()) return &run_[run_head_];
  return heap_.empty() ? nullptr : &heap_.front();
}

bool Simulator::pop_and_run() {
  settle_head();
  Entry ev;
  if (run_is_next()) {
    ev = run_[run_head_];
    advance_run();
  } else if (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    ev = heap_.back();
    heap_.pop_back();
  } else {
    return false;
  }
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
  for (;;) {
    settle_head();
    const Entry* next = next_entry();
    if (next == nullptr || next->time > deadline) break;
    pop_and_run();
    ++n;
  }
  now_ = std::max(now_, deadline);
  return n;
}

bool Simulator::step() { return pop_and_run(); }

void Simulator::audit() const {
  // Recount the current entry of every slot from both containers.
  std::vector<std::uint32_t> current(slots_.size(), 0);
  std::size_t live = 0;
  auto count = [&](const Entry& e) {
    GFAAS_CHECK(e.slot < slots_.size()) << "entry names slot " << e.slot;
    if (stale(e)) return;
    GFAAS_CHECK(slots_[e.slot].fn) << "current entry on free slot " << e.slot;
    ++current[e.slot];
    ++live;
  };
  GFAAS_CHECK(run_.empty() ? run_head_ == 0 : run_head_ < run_.size())
      << "run head " << run_head_ << " of " << run_.size();
  for (const Entry& e : heap_) count(e);
  for (std::size_t i = run_head_; i < run_.size(); ++i) count(run_[i]);
  GFAAS_CHECK(live == pending_events())
      << live << " live entries, " << pending_events() << " pending events";
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    GFAAS_CHECK(current[slot] == (slots_[slot].fn ? 1u : 0u))
        << "slot " << slot << " has " << current[slot] << " current entries";
  }
  GFAAS_CHECK(std::is_heap(heap_.begin(), heap_.end(), Later{})) << "heap order broken";
  GFAAS_CHECK(std::is_sorted(
      run_.begin() + static_cast<std::ptrdiff_t>(run_head_), run_.end(),
      [](const Entry& a, const Entry& b) { return Later{}(b, a); }))
      << "run out of order";
}

}  // namespace gfaas::sim
