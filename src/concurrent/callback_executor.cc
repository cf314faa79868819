#include "concurrent/callback_executor.h"

#include <utility>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "common/log.h"

namespace gfaas::concurrent {

CallbackExecutor::CallbackExecutor() {
  worker_ = std::thread([this] { loop(); });
}

CallbackExecutor::~CallbackExecutor() {
  {
    common::MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void CallbackExecutor::post(Task task) {
  GFAAS_CHECK(task);
  {
    common::MutexLock lock(&mu_);
    GFAAS_CHECK(!stop_) << "post() on a stopping CallbackExecutor";
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void CallbackExecutor::drain() {
  GFAAS_CHECK(std::this_thread::get_id() != worker_.get_id())
      << "CallbackExecutor::drain() called on the callback thread would wait "
         "for its own running callback forever";
  common::MutexLock lock(&mu_);
  // Explicit predicate loop so the guarded reads stay in this scope.
  while (!(queue_.empty() && !running_)) drained_cv_.wait(lock);
}

std::uint64_t CallbackExecutor::executed() const {
  common::MutexLock lock(&mu_);
  return executed_;
}

std::size_t CallbackExecutor::pending() const {
  common::MutexLock lock(&mu_);
  return queue_.size() + (running_ ? 1 : 0);
}

void CallbackExecutor::loop() {
#ifdef __linux__
  // A woken SCHED_BATCH thread never preempts the poster (see the header
  // for what that costs on an oversubscribed host); on failure the thread
  // keeps the default policy, which is just as correct.
  sched_param param{};
  param.sched_priority = 0;
  (void)pthread_setschedparam(pthread_self(), SCHED_BATCH, &param);
#endif
  common::MutexLock lock(&mu_);
  std::vector<Task> batch;
  for (;;) {
    if (queue_.empty()) {
      drained_cv_.notify_all();
      if (stop_) return;  // queue drained before exit, nothing dropped
      while (!(stop_ || !queue_.empty())) cv_.wait(lock);
      continue;
    }
    // Swap the whole backlog out: one lock per pass, FIFO preserved, and
    // both vectors keep their capacity, so the steady state allocates
    // nothing. A callback that posts lands in queue_ for the next pass.
    batch.swap(queue_);
    running_ = true;
    lock.Unlock();
    for (Task& task : batch) task();
    const std::uint64_t ran = batch.size();
    batch.clear();
    lock.Lock();
    running_ = false;
    executed_ += ran;
  }
}

}  // namespace gfaas::concurrent
