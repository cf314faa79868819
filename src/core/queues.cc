#include "core/queues.h"

#include "common/log.h"

namespace gfaas::core {

RequestTable::Index RequestTable::insert(Request request) {
  const std::int64_t id = request.id.value();
  GFAAS_CHECK(request.id.valid());
  const Index live = find(request.id);
  GFAAS_CHECK(live == kNone)
      << (slots_[live].place == Place::kExecuting ? "duplicate in-flight request id "
                                                  : "already queued: request ")
      << id;
  Index slot = free_;
  if (slot == kNone) {
    slot = static_cast<Index>(slots_.size());
    GFAAS_CHECK(slot != kNone) << "request table full";
    slots_.emplace_back();
    index_.emplace(id, slot);
  } else {
    free_ = slots_[slot].next;
    IdIndex::node_type node = std::move(spare_nodes_.back());
    spare_nodes_.pop_back();
    node.key() = id;
    node.mapped() = slot;
    index_.insert(std::move(node));
  }
  Slot& s = slots_[slot];
  s.request = std::move(request);
  s.prev = s.next = kNone;
  return slot;
}

Request RequestTable::release(Index slot) {
  Slot& s = slots_[slot];
  GFAAS_CHECK(s.place != Place::kFree) << "release of a free slot";
  spare_nodes_.push_back(index_.extract(s.request.id.value()));
  s.place = Place::kFree;
  s.next = free_;
  free_ = slot;
  return std::move(s.request);
}

void RequestTable::link(List& list, Index slot, Place place, GpuId gpu) {
  Slot& s = slots_[slot];
  s.place = place;
  s.gpu = gpu;
  s.prev = list.tail;
  s.next = kNone;
  (list.tail == kNone ? list.head : slots_[list.tail].next) = slot;
  list.tail = slot;
  ++list.size;
}

void RequestTable::unlink(List& list, Index slot) {
  Slot& s = slots_[slot];
  (s.prev == kNone ? list.head : slots_[s.prev].next) = s.next;
  (s.next == kNone ? list.tail : slots_[s.next].prev) = s.prev;
  s.prev = s.next = kNone;
  --list.size;
}

std::array<std::size_t, 4> RequestTable::audit() const {
  std::array<std::size_t, 4> placed{};
  for (const auto& [id, slot] : index_) {
    GFAAS_CHECK(slot < slots_.size() && slots_[slot].place != Place::kFree &&
                slots_[slot].request.id.value() == id)
        << "id index entry " << id << " names a stale slot";
    ++placed[static_cast<std::size_t>(slots_[slot].place)];
  }
  std::size_t free = 0;
  for (Index slot = free_; slot != kNone && free <= slots_.size();
       slot = slots_[slot].next) {
    GFAAS_CHECK(slots_[slot].place == Place::kFree) << "live slot on the free list";
    ++free;
  }
  GFAAS_CHECK(free + index_.size() == slots_.size() && free == spare_nodes_.size())
      << "request table leaks slots";
  return placed;
}

GlobalQueue::Index GlobalQueue::slot_of(RequestId id) const {
  const Index slot = table_.find(id);
  return slot != RequestTable::kNone && table_[slot].place == Place::kGlobal
             ? slot
             : RequestTable::kNone;
}

const Request* GlobalQueue::find(RequestId id) const {
  const Index slot = slot_of(id);
  return slot == RequestTable::kNone ? nullptr : &table_[slot].request;
}

int GlobalQueue::bump_visits(RequestId id) {
  const Index slot = slot_of(id);
  GFAAS_CHECK(slot != RequestTable::kNone)
      << "bump_visits on unqueued request " << id.value();
  return ++table_[slot].request.visits;
}

GlobalQueue::Index GlobalQueue::unlink(RequestId id) {
  const Index slot = slot_of(id);
  GFAAS_CHECK(slot != RequestTable::kNone) << "request " << id.value() << " not queued";
  table_.unlink(list_, slot);
  return slot;
}

StatusOr<Request> GlobalQueue::take(RequestId id) {
  if (slot_of(id) == RequestTable::kNone) {
    return Status::NotFound("request " + std::to_string(id.value()) + " not queued");
  }
  return table_.release(unlink(id));
}

const RequestTable::List& LocalQueues::list(GpuId gpu) const {
  const auto index = static_cast<std::size_t>(gpu.value());
  GFAAS_CHECK(index < lists_.size()) << "unknown gpu " << gpu.value();
  return lists_[index];
}

void LocalQueues::link(GpuId gpu, Index slot) {
  table_.link(list(gpu), slot, Place::kLocal, gpu);
  ++total_;
}

void LocalQueues::unlink(Index slot) {
  GFAAS_CHECK(table_[slot].place == Place::kLocal) << "slot not in a local queue";
  table_.unlink(list(table_[slot].gpu), slot);
  --total_;
}

std::optional<Request> LocalQueues::pop_head(GpuId gpu) {
  const Index slot = head_slot(gpu);
  if (slot == RequestTable::kNone) return std::nullopt;
  unlink(slot);
  return table_.release(slot);
}

}  // namespace gfaas::core
