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
//   * No allocation in the steady state: each queued callback is a
//     Task holding its callable in place (up to Task::kInlineBytes —
//     room for the Gateway's result closure; only a larger callable
//     goes to the heap), and the queue and the consumer's batch are two
//     vectors of Tasks swapped whole each pass, both keeping their
//     capacity. Once both have grown to the largest backlog seen,
//     post() allocates nothing.
//   * drain() blocks until everything posted so far has finished,
//     including callbacks posted by callbacks.
//
// Lifetime: a queued Task owns its callable and everything it captured,
// so a posted callback never depends on its poster staying alive.
// Destruction runs every callback already posted, then joins the thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace gfaas::concurrent {

// One queued callback: a move-only, type-erased `void()` callable stored
// in place when it fits kInlineBytes and moves without throwing, on the
// heap otherwise. An empty Task (default-constructed, moved-from, or made
// from a null function pointer or empty std::function) converts to false.
class Task {
 public:
  static constexpr std::size_t kInlineBytes = 128;
  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  Task() = default;
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Task>>>
  Task(F&& fn) {  // NOLINT(google-explicit-constructor): post(lambda)
    if constexpr (std::is_constructible_v<bool, const Fn&>) {
      if (!static_cast<bool>(fn)) return;
    }
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
    }
    ops_ = &kOps<Fn>;
  }
  Task(Task&& other) noexcept { take(other); }
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->call(storage_); }

 private:
  struct Ops {
    void (*call)(void* storage);
    // Move-constructs into `to` and destroys the source.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* storage);
  };
  template <typename Fn>
  static Fn& target(void* storage) {
    if constexpr (kFitsInline<Fn>) {
      return *std::launder(static_cast<Fn*>(storage));
    } else {
      return **std::launder(static_cast<Fn**>(storage));
    }
  }
  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* storage) { target<Fn>(storage)(); },
      [](void* from, void* to) {
        if constexpr (kFitsInline<Fn>) {
          Fn& fn = target<Fn>(from);
          ::new (to) Fn(std::move(fn));
          fn.~Fn();
        } else {
          ::new (to) Fn*(*std::launder(static_cast<Fn**>(from)));
        }
      },
      [](void* storage) {
        if constexpr (kFitsInline<Fn>) {
          target<Fn>(storage).~Fn();
        } else {
          delete &target<Fn>(storage);
        }
      },
  };

  void take(Task& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(other.storage_, storage_);
    ops_ = std::exchange(other.ops_, nullptr);
  }
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(storage_);
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class CallbackExecutor {
 public:
  CallbackExecutor();
  ~CallbackExecutor();

  CallbackExecutor(const CallbackExecutor&) = delete;
  CallbackExecutor& operator=(const CallbackExecutor&) = delete;

  // Thread-safe; `task` runs on the callback thread, after everything
  // posted before it. It must not be empty.
  void post(Task task);

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
  std::vector<Task> queue_ GUARDED_BY(mu_);
  std::uint64_t executed_ GUARDED_BY(mu_) = 0;
  // A batch of callbacks is executing.
  bool running_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread worker_;
};

}  // namespace gfaas::concurrent
