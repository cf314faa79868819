#include "cluster/cluster_state_index.h"

#include "common/log.h"

namespace gfaas::cluster {

void ClusterStateIndex::enter(OrderedSet& set, OrderedSet::node_type& parked,
                              std::int64_t dispatches, GpuId gpu) {
  if (parked.empty()) {
    GFAAS_CHECK(set.emplace(dispatches, gpu.value()).second);
    return;
  }
  parked.value() = {dispatches, gpu.value()};
  GFAAS_CHECK(set.insert(std::move(parked)).inserted);
}

void ClusterStateIndex::leave(OrderedSet& set, OrderedSet::node_type& parked,
                              std::int64_t dispatches, GpuId gpu) {
  parked = set.extract({dispatches, gpu.value()});
  GFAAS_CHECK(!parked.empty());
}

void ClusterStateIndex::enter_sets(PerGpu& s, GpuId gpu) {
  if (!s.idle || s.fenced) return;
  const core::GpuLoad& l = load(gpu);
  enter(idle_, s.idle_node, l.dispatches, gpu);
  idle_bits_.set(gpu);
  if (l.local_work > 0) enter(serviceable_, s.serviceable_node, l.dispatches, gpu);
}

void ClusterStateIndex::leave_sets(PerGpu& s, GpuId gpu) {
  if (!s.idle || s.fenced) return;
  const core::GpuLoad& l = load(gpu);
  leave(idle_, s.idle_node, l.dispatches, gpu);
  idle_bits_.reset(gpu);
  if (l.local_work > 0) leave(serviceable_, s.serviceable_node, l.dispatches, gpu);
}

void ClusterStateIndex::add_gpu(GpuId gpu) {
  GFAAS_CHECK(gpu.valid());
  GFAAS_CHECK(static_cast<std::size_t>(gpu.value()) == gpus_.size())
      << "gpu ids must be registered densely from 0 (ids are never reused)";
  gpus_.emplace_back();
  gpus_.back().registered = true;
  loads_.emplace_back();
  idle_bits_.grow_to(gpus_.size());
  ++schedulable_count_;
  enter_sets(gpus_.back(), gpu);
}

void ClusterStateIndex::fence(GpuId gpu) {
  PerGpu& s = state(gpu);
  GFAAS_CHECK(!s.fenced) << "gpu " << gpu.value() << " already fenced";
  leave_sets(s, gpu);
  s.fenced = true;
  --schedulable_count_;
}

void ClusterStateIndex::unfence(GpuId gpu) {
  PerGpu& s = state(gpu);
  GFAAS_CHECK(s.fenced) << "gpu " << gpu.value() << " is not fenced";
  s.fenced = false;
  ++schedulable_count_;
  enter_sets(s, gpu);
}

void ClusterStateIndex::remove_gpu(GpuId gpu) {
  PerGpu& s = state(gpu);
  GFAAS_CHECK(s.fenced) << "gpu " << gpu.value() << " must be fenced before removal";
  GFAAS_CHECK(s.idle && load(gpu).local_work == 0)
      << "gpu " << gpu.value() << " removed before draining";
  s.registered = false;
}

void ClusterStateIndex::mark_busy(GpuId gpu) {
  PerGpu& s = state(gpu);
  GFAAS_CHECK(s.idle) << "gpu " << gpu.value() << " already busy";
  leave_sets(s, gpu);
  s.idle = false;
}

void ClusterStateIndex::mark_idle(GpuId gpu) {
  PerGpu& s = state(gpu);
  GFAAS_CHECK(!s.idle) << "gpu " << gpu.value() << " already idle";
  s.idle = true;
  enter_sets(s, gpu);
}

void ClusterStateIndex::record_dispatch(GpuId gpu) {
  PerGpu& s = state(gpu);
  leave_sets(s, gpu);
  ++mutable_load(gpu).dispatches;
  enter_sets(s, gpu);
}

void ClusterStateIndex::set_committed_finish(GpuId gpu, SimTime finish) {
  mutable_load(gpu).committed_finish = finish;
}

void ClusterStateIndex::add_local_work(GpuId gpu, SimTime delta) {
  GFAAS_CHECK(delta != 0) << "zero local-queue work on gpu " << gpu.value();
  PerGpu& s = state(gpu);
  core::GpuLoad& l = mutable_load(gpu);
  const bool had_work = l.local_work > 0;
  l.local_work += delta;
  GFAAS_CHECK(l.local_work >= 0)
      << "negative local-queue work aggregate on gpu " << gpu.value();
  if (had_work == (l.local_work > 0) || !s.idle || s.fenced) return;
  if (had_work) {
    leave(serviceable_, s.serviceable_node, l.dispatches, gpu);
  } else {
    enter(serviceable_, s.serviceable_node, l.dispatches, gpu);
  }
}

GpuId ClusterStateIndex::first_idle_with_local_work() const {
  if (serviceable_.empty()) return GpuId();
  return GpuId(serviceable_.begin()->second);
}

std::vector<GpuId> ClusterStateIndex::idle_gpus() const {
  std::vector<GpuId> out;
  out.reserve(idle_.size());
  for (const auto& [dispatches, id] : idle_) out.push_back(GpuId(id));
  return out;
}

std::vector<GpuId> ClusterStateIndex::busy_gpus() const {
  std::vector<GpuId> out;
  for_each_busy([&out](GpuId gpu) { out.push_back(gpu); });
  return out;
}

void ClusterStateIndex::audit() const {
  std::size_t schedulable = 0, idle = 0, serviceable = 0;
  GFAAS_CHECK(loads_.size() == gpus_.size() &&
              idle_bits_.bits().word_count() == gpu_words_for(gpus_.size()))
      << "per-gpu arrays cover " << loads_.size() << " of " << gpus_.size() << " gpus";
  for (std::size_t id = 0; id < gpus_.size(); ++id) {
    const PerGpu& s = gpus_[id];
    const bool dispatchable = s.registered && !s.fenced && s.idle;
    const GpuId gpu(static_cast<std::int64_t>(id));
    GFAAS_CHECK(idle_bits_.test(gpu) == dispatchable)
        << "idle bit of gpu " << id << " is " << idle_bits_.test(gpu);
    if (!s.registered || s.fenced) continue;
    ++schedulable;
    if (!s.idle) continue;
    const auto key = std::make_pair(loads_[id].dispatches, gpu.value());
    GFAAS_CHECK(idle_.count(key) == 1) << "idle gpu " << id << " missing from idle set";
    ++idle;
    if (loads_[id].local_work > 0) {
      GFAAS_CHECK(serviceable_.count(key) == 1)
          << "gpu " << id << " with local work missing from serviceable set";
      ++serviceable;
    }
  }
  GFAAS_CHECK(idle == idle_.size() && idle == idle_bits_.count())
      << "idle set has " << idle_.size() << " and idle bitset " << idle_bits_.count()
      << " of " << idle;
  GFAAS_CHECK(serviceable == serviceable_.size())
      << "serviceable set has " << serviceable_.size() << " of " << serviceable;
  GFAAS_CHECK(schedulable == schedulable_count_)
      << "schedulable count " << schedulable_count_ << ", recount " << schedulable;
}

}  // namespace gfaas::cluster
