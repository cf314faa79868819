// Dedicated completion-callback thread: the fan-out side of the
// concurrent ingestion path.
//
// The scheduler runs on the executor's single worker thread; a client
// completion callback that blocks (logging, an RPC reply, a slow
// downstream) would stall every dispatch behind it. The Gateway instead
// hands resolved results here (Gateway::set_callback_executor) and the
// worker thread returns to scheduling immediately.
//
// Guarantees:
//   * FIFO: callbacks run in post() order (one consumer thread, one
//     ordered queue), so results delivered by the Gateway keep the
//     engine's completion order — and each request's single resolution
//     stays exactly-once by construction.
//   * post() never blocks on a running callback: the producer takes one
//     uncontended-in-the-common-case mutex push; the consumer swaps the
//     whole backlog out under one lock per pass.
//   * Waking the callback thread never preempts the thread that posts
//     to it: on Linux it runs under SCHED_BATCH. With a spare CPU it
//     runs there at once. Sharing a CPU with a busy poster, it waits for
//     the poster's slice to end and then clears the whole backlog in one
//     batch; until then later post() calls find no sleeping waiter and
//     skip the futex wake, so a saturated worker pays no context switch
//     per result. The cost: on a host with more runnable threads than
//     CPUs, a result waits for some running thread's slice to end, so
//     delivery takes milliseconds where the default policy takes
//     microseconds (README, "Concurrent ingestion"). If the policy
//     cannot be set, the thread keeps the default one and stays correct.
//   * No allocation in the steady state: the queue and the consumer's
//     batch are two vectors swapped whole each pass, both keeping their
//     capacity.
//   * drain() blocks until everything posted so far has finished,
//     including callbacks posted by callbacks.
//
// Destruction runs every callback already posted, then joins the thread.
#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace gfaas::concurrent {

class CallbackExecutor {
 public:
  CallbackExecutor();
  ~CallbackExecutor();

  CallbackExecutor(const CallbackExecutor&) = delete;
  CallbackExecutor& operator=(const CallbackExecutor&) = delete;

  // Thread-safe; `fn` runs on the callback thread, after everything
  // posted before it.
  void post(std::function<void()> fn);

  // Blocks the calling thread until the queue is empty and no callback
  // is mid-flight. Calling it on the callback thread (from inside a
  // callback) would wait for itself, so it CHECK-fails there.
  void drain();

  std::uint64_t executed() const;
  std::size_t pending() const;

 private:
  void loop();

  mutable common::Mutex mu_;
  common::CondVar cv_;
  common::CondVar drained_cv_;
  std::vector<std::function<void()>> queue_ GUARDED_BY(mu_);
  std::uint64_t executed_ GUARDED_BY(mu_) = 0;
  // A batch of callbacks is executing.
  bool running_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread worker_;
};

}  // namespace gfaas::concurrent
