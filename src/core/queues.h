// The Scheduler's queues (paper Fig. 3), over one request table.
//
// RequestTable holds every request the scheduler owns — waiting in the
// global queue, parked in a GPU's local queue, or executing on a GPU — in
// slots recycled through a free list, with one id -> slot index whose
// nodes are recycled too (C++17 extract/insert). Once the table has grown
// to the peak number of live requests, admitting, moving and retiring a
// request allocates nothing. std::deque keeps slot addresses stable as it
// grows, so the Request pointers head()/find() return stay valid while
// the request stays put.
//
// GlobalQueue holds every pending request in arrival order. Algorithm 1
// walks it from the head; its O3 skip counter bounds that walk in the
// amortized sense (see LalbScheduler::schedule_out_of_order), so no
// per-model index is kept.
//
// LocalQueues holds the per-GPU queues of requests the policy moved to a
// busy GPU (Algorithm 2 line 12). "When this GPU becomes idle, it always
// executes the requests already in its local queue before considering any
// request in the global queue."
//
// Both are intrusive FIFO lists threaded through the slots' prev/next
// links: moving a request between them relinks its slot and never moves
// the request. The scheduling engine's queues share its table, which also
// holds the executing slots; a GlobalQueue built without one owns its own.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/request.h"

namespace gfaas::core {

// Where a table slot's request sits (kFree: the slot holds none).
enum class Place : std::uint8_t { kFree, kGlobal, kLocal, kExecuting };

class RequestTable {
 public:
  using Index = std::uint32_t;
  static constexpr Index kNone = std::numeric_limits<Index>::max();

  struct Slot {
    Request request;
    Place place = Place::kFree;
    GpuId gpu;  // the local queue's or the executing GPU
    Index prev = kNone;
    Index next = kNone;  // a free slot chains the free list here
  };
  // Head, tail and length of one FIFO threaded through the slots.
  struct List {
    Index head = kNone;
    Index tail = kNone;
    std::size_t size = 0;
  };

  // Stores the request in a free slot and indexes its id; the caller then
  // places the slot (links it into a list or marks it executing). An id
  // already in the table dies here.
  Index insert(Request request);
  // Moves the request out, frees its slot and drops its id.
  Request release(Index slot);
  // Slot holding the id (kNone if absent), and where it sits.
  Index find(RequestId id) const {
    const auto it = index_.find(id.value());
    return it == index_.end() ? kNone : it->second;
  }
  Place place_of(RequestId id) const {
    const Index slot = find(id);
    return slot == kNone ? Place::kFree : slots_[slot].place;
  }
  Slot& operator[](Index slot) { return slots_[slot]; }
  const Slot& operator[](Index slot) const { return slots_[slot]; }
  // Requests held.
  std::size_t size() const { return index_.size(); }
  // Slots ever allocated, free ones included: slot indexes run below it.
  std::size_t slot_count() const { return slots_.size(); }

  // Appends the slot to the list, placing it there.
  void link(List& list, Index slot, Place place, GpuId gpu = GpuId());
  void unlink(List& list, Index slot);

  // Recomputes from scratch and CHECKs that every index entry names a
  // live slot holding that id and every other slot is on the free list.
  // Returns the live slots per Place.
  std::array<std::size_t, 4> audit() const;

 private:
  using IdIndex = std::unordered_map<std::int64_t, Index>;
  std::deque<Slot> slots_;
  // Index nodes retired by release(), one per free slot, reused by insert().
  std::vector<IdIndex::node_type> spare_nodes_;
  Index free_ = kNone;
  IdIndex index_;
};

class GlobalQueue {
 public:
  using Index = RequestTable::Index;

  GlobalQueue() : owned_(std::make_unique<RequestTable>()), table_(*owned_) {}
  explicit GlobalQueue(RequestTable& table) : table_(table) {}

  // Const iteration in arrival order. Policies may dispatch/take requests
  // while iterating: taking a request invalidates only iterators to THAT
  // request (std::list semantics), so callers advance before acting.
  class const_iterator {
   public:
    using iterator_category = std::bidirectional_iterator_tag;
    using value_type = Request;
    using difference_type = std::ptrdiff_t;
    using pointer = const Request*;
    using reference = const Request&;

    const_iterator() = default;
    reference operator*() const { return queue_->table_[slot_].request; }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      slot_ = queue_->table_[slot_].next;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    const_iterator& operator--() {
      slot_ = slot_ == RequestTable::kNone ? queue_->list_.tail
                                           : queue_->table_[slot_].prev;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return slot_ == o.slot_; }
    bool operator!=(const const_iterator& o) const { return slot_ != o.slot_; }

   private:
    friend class GlobalQueue;
    const_iterator(const GlobalQueue* queue, Index slot) : queue_(queue), slot_(slot) {}
    const GlobalQueue* queue_ = nullptr;
    Index slot_ = RequestTable::kNone;
  };
  const_iterator begin() const { return {this, list_.head}; }
  const_iterator end() const { return {this, RequestTable::kNone}; }

  void push(Request request) { link(table_.insert(std::move(request))); }

  bool empty() const { return list_.size == 0; }
  std::size_t size() const { return list_.size; }

  // Earliest-arrival pending request (nullptr if empty).
  const Request* head() const {
    return empty() ? nullptr : &table_[list_.head].request;
  }
  const Request* find(RequestId id) const;

  // Increments the request's O3 skip counter (Algorithm 1 lines 14-16);
  // returns the new value. This is the only sanctioned way to mutate a
  // queued request.
  int bump_visits(RequestId id);

  // Removes and returns the request.
  StatusOr<Request> take(RequestId id);

  // --- slot moves within the shared table (the scheduling engine) ---
  // Appends a live slot (a local-queue request rejoining the queue).
  void link(Index slot) { table_.link(list_, slot, Place::kGlobal); }
  // Unlinks the queued request's slot, which stays live in the table.
  Index unlink(RequestId id);

 private:
  // The id's slot if it is queued here, else kNone.
  Index slot_of(RequestId id) const;

  std::unique_ptr<RequestTable> owned_;  // standalone queues only
  RequestTable& table_;
  RequestTable::List list_;
};

class LocalQueues {
 public:
  using Index = RequestTable::Index;

  LocalQueues(RequestTable& table, std::size_t gpu_count)
      : table_(table), lists_(gpu_count) {}

  // Grows the per-GPU queue vector to cover ids < `gpu_count` (elastic
  // scale-up; never shrinks — retired GPU ids keep an empty slot).
  void ensure_gpu_count(std::size_t gpu_count) {
    if (lists_.size() < gpu_count) lists_.resize(gpu_count);
  }

  void push(GpuId gpu, Request request) { link(gpu, table_.insert(std::move(request))); }
  std::optional<Request> pop_head(GpuId gpu);
  std::size_t size(GpuId gpu) const { return list(gpu).size; }
  bool empty(GpuId gpu) const { return size(gpu) == 0; }
  // Requests queued across all GPUs; a maintained counter, O(1).
  std::size_t total_pending() const { return total_; }

  // --- slot moves within the shared table (the scheduling engine) ---
  // Head slot of the GPU's queue (kNone if empty); later slots follow
  // through the table's `next` links.
  Index head_slot(GpuId gpu) const { return list(gpu).head; }
  void link(GpuId gpu, Index slot);
  // Unlinks a queued slot from its GPU's queue; it stays live in the table.
  void unlink(Index slot);

 private:
  const RequestTable::List& list(GpuId gpu) const;
  RequestTable::List& list(GpuId gpu) {
    return const_cast<RequestTable::List&>(std::as_const(*this).list(gpu));
  }

  RequestTable& table_;
  std::vector<RequestTable::List> lists_;  // indexed by GpuId value
  std::size_t total_ = 0;
};

}  // namespace gfaas::core
