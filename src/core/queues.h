// The Scheduler's queues (paper Fig. 3).
//
// GlobalQueue holds every pending request in arrival order, with an
// id -> position index for O(1) lookup and removal. Algorithm 1 walks it
// from the head; its O3 skip counter bounds that walk in the amortized
// sense (see LalbScheduler::schedule_out_of_order), so no per-model index
// is kept.
//
// LocalQueues holds the per-GPU queues of requests the policy moved to a
// busy GPU (Algorithm 2 line 12). "When this GPU becomes idle, it always
// executes the requests already in its local queue before considering any
// request in the global queue."
#pragma once

#include <deque>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/request.h"

namespace gfaas::core {

class GlobalQueue {
 public:
  // Const iteration in arrival order. Policies may dispatch/take requests
  // while iterating: taking a request invalidates only iterators to THAT
  // request (std::list semantics), so callers advance before acting.
  using const_iterator = std::list<Request>::const_iterator;
  const_iterator begin() const { return queue_.begin(); }
  const_iterator end() const { return queue_.end(); }

  void push(Request request);

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

  // Earliest-arrival pending request (nullptr if empty).
  const Request* head() const;
  const Request* find(RequestId id) const;

  // Increments the request's O3 skip counter (Algorithm 1 lines 14-16);
  // returns the new value. This is the only sanctioned way to mutate a
  // queued request.
  int bump_visits(RequestId id);

  // Removes and returns the request.
  StatusOr<Request> take(RequestId id);

 private:
  std::list<Request> queue_;  // arrival order (push_back)
  std::unordered_map<std::int64_t, std::list<Request>::iterator> by_id_;
};

class LocalQueues {
 public:
  explicit LocalQueues(std::size_t gpu_count) : queues_(gpu_count) {}

  // Grows the per-GPU queue vector to cover ids < `gpu_count` (elastic
  // scale-up; never shrinks — retired GPU ids keep an empty slot).
  void ensure_gpu_count(std::size_t gpu_count) {
    if (queues_.size() < gpu_count) queues_.resize(gpu_count);
  }

  void push(GpuId gpu, Request request);
  std::optional<Request> pop_head(GpuId gpu);
  // Removes the request from the GPU's queue wherever it sits (hedging
  // cancels a parked loser mid-queue; the head is the common case but a
  // deep-waiting duplicate can win first). Nullopt if not queued there.
  std::optional<Request> remove(GpuId gpu, RequestId id);
  std::size_t size(GpuId gpu) const;
  bool empty(GpuId gpu) const { return size(gpu) == 0; }
  // Requests queued across all GPUs; a maintained counter, O(1).
  std::size_t total_pending() const { return total_; }

  // Requests queued on the GPU, head first (for finish-time estimation).
  const std::deque<Request>& queued(GpuId gpu) const;

 private:
  std::vector<std::deque<Request>> queues_;
  std::size_t total_ = 0;
};

}  // namespace gfaas::core
