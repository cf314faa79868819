#include "core/queues.h"

#include "common/log.h"

namespace gfaas::core {

void GlobalQueue::push(Request request) {
  GFAAS_CHECK(request.id.valid());
  GFAAS_CHECK(by_id_.count(request.id.value()) == 0)
      << "request " << request.id.value() << " already queued";
  // Arrival order is push order; the engine pushes in event-time order.
  queue_.push_back(std::move(request));
  auto it = std::prev(queue_.end());
  by_id_[it->id.value()] = it;
}

const Request* GlobalQueue::head() const {
  return queue_.empty() ? nullptr : &queue_.front();
}

const Request* GlobalQueue::find(RequestId id) const {
  auto it = by_id_.find(id.value());
  return it == by_id_.end() ? nullptr : &*it->second;
}

int GlobalQueue::bump_visits(RequestId id) {
  auto it = by_id_.find(id.value());
  GFAAS_CHECK(it != by_id_.end()) << "bump_visits on unqueued request " << id.value();
  return ++it->second->visits;
}

StatusOr<Request> GlobalQueue::take(RequestId id) {
  auto it = by_id_.find(id.value());
  if (it == by_id_.end()) {
    return Status::NotFound("request " + std::to_string(id.value()) + " not queued");
  }
  Request out = std::move(*it->second);
  queue_.erase(it->second);
  by_id_.erase(it);
  return out;
}

void LocalQueues::push(GpuId gpu, Request request) {
  const auto index = static_cast<std::size_t>(gpu.value());
  GFAAS_CHECK(index < queues_.size()) << "unknown gpu " << gpu.value();
  queues_[index].push_back(std::move(request));
  ++total_;
}

std::optional<Request> LocalQueues::pop_head(GpuId gpu) {
  const auto index = static_cast<std::size_t>(gpu.value());
  GFAAS_CHECK(index < queues_.size());
  if (queues_[index].empty()) return std::nullopt;
  Request out = std::move(queues_[index].front());
  queues_[index].pop_front();
  --total_;
  return out;
}

std::optional<Request> LocalQueues::remove(GpuId gpu, RequestId id) {
  const auto index = static_cast<std::size_t>(gpu.value());
  GFAAS_CHECK(index < queues_.size());
  auto& queue = queues_[index];
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (it->id == id) {
      Request out = std::move(*it);
      queue.erase(it);
      --total_;
      return out;
    }
  }
  return std::nullopt;
}

std::size_t LocalQueues::size(GpuId gpu) const {
  const auto index = static_cast<std::size_t>(gpu.value());
  GFAAS_CHECK(index < queues_.size());
  return queues_[index].size();
}

const std::deque<Request>& LocalQueues::queued(GpuId gpu) const {
  const auto index = static_cast<std::size_t>(gpu.value());
  GFAAS_CHECK(index < queues_.size());
  return queues_[index];
}

}  // namespace gfaas::core
