// Clang Thread Safety Analysis support: annotation macros plus the
// annotated synchronization vocabulary the whole tree locks with.
//
// Every mutex in src/ is a common::Mutex and every thread-affine
// structure carries a common::ExecutorAffinity, so lock contracts are
// written once, next to the state they protect, and the compiler checks
// them on every build:
//
//   class Gateway {
//     ...
//     common::ExecutorAffinity serial_;
//     FlightTable flights_ GUARDED_BY(serial_); // worker thread only
//     void drain_pending() REQUIRES(serial_);
//   };
//
//   class KvStore {
//     ...
//     mutable common::Mutex mu_;
//     std::map<std::string, KeyValue> data_ GUARDED_BY(mu_);
//   };
//
// Under Clang, `-Wthread-safety -Werror` (enabled automatically by the
// top-level CMakeLists) turns a violated contract — a GUARDED_BY field
// touched without the lock, a REQUIRES function called lock-free, a
// scope that leaks a lock — into a compile error; the negative-compile
// suite (tests/negative_compile/) pins that behavior. Under GCC the
// attributes expand to nothing and the wrappers compile to the plain
// std primitives, so the contract costs nothing where it cannot be
// checked statically.
//
// The wrappers also carry a cheap runtime shadow of the contract
// (relaxed-atomic owner tracking) so the same violations die loudly at
// run time under every compiler: Mutex::AssertHeld() aborts when the
// calling thread does not hold the lock, and a bound ExecutorAffinity
// aborts when touched from a foreign thread (common_test death-tests
// both).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/log.h"

// ---------------------------------------------------------------------------
// Annotation macros (the standard Clang TSA vocabulary). No-ops unless
// the compiler implements the attributes.
// ---------------------------------------------------------------------------
#if defined(__clang__) && !defined(SWIG)
#define GFAAS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GFAAS_THREAD_ANNOTATION(x)  // no-op
#endif

// Marks a class as a lockable capability ("mutex", "executor", ...).
#define CAPABILITY(x) GFAAS_THREAD_ANNOTATION(capability(x))

// Marks an RAII class that acquires a capability at construction and
// releases it at destruction.
#define SCOPED_CAPABILITY GFAAS_THREAD_ANNOTATION(scoped_lockable)

// Field/variable may only be touched while holding the capability.
#define GUARDED_BY(x) GFAAS_THREAD_ANNOTATION(guarded_by(x))

// Pointer field: the *pointee* may only be touched while holding it.
#define PT_GUARDED_BY(x) GFAAS_THREAD_ANNOTATION(pt_guarded_by(x))

// Function requires the capability (exclusively / shared) on entry.
#define REQUIRES(...) \
  GFAAS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  GFAAS_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// Function acquires / releases the capability.
#define ACQUIRE(...) GFAAS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  GFAAS_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) GFAAS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  GFAAS_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

// Function acquires the capability iff it returns `b`.
#define TRY_ACQUIRE(b, ...) \
  GFAAS_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))

// Function must NOT be called while holding the capability (deadlock
// guard for non-reentrant locks).
#define EXCLUDES(...) GFAAS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Tells the analysis the capability is held here (checked dynamically).
#define ASSERT_CAPABILITY(x) GFAAS_THREAD_ANNOTATION(assert_capability(x))

// Function returns a reference to the capability guarding its result.
#define RETURN_CAPABILITY(x) GFAAS_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch: disables the analysis for one function. Use only where
// the contract is real but inexpressible (document why at each site).
#define NO_THREAD_SAFETY_ANALYSIS \
  GFAAS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace gfaas::common {

// ---------------------------------------------------------------------------
// Annotated std::mutex. lock()/unlock() carry the capability transfer
// for the analysis and maintain the runtime owner shadow (two relaxed
// stores per cycle — noise next to the lock itself, so the shadow stays
// on in every build type and AssertHeld() death-tests work everywhere).
// ---------------------------------------------------------------------------
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    mu_.lock();
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }

  void unlock() RELEASE() {
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
    mu_.unlock();
  }

  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    return true;
  }

  // Dies unless the calling thread holds the lock. Statically, tells the
  // analysis the capability is held from here on (the runtime check is
  // what makes that assumption safe to state).
  void AssertHeld() const ASSERT_CAPABILITY(this) {
    GFAAS_CHECK(held_by_current_thread())
        << "common::Mutex contract violated: calling thread does not hold "
           "the lock";
  }

  bool held_by_current_thread() const {
    return owner_.load(std::memory_order_relaxed) == std::this_thread::get_id();
  }

 private:
  friend class CondVar;
  std::mutex mu_;
  std::atomic<std::thread::id> owner_{};
};

// ---------------------------------------------------------------------------
// Scoped lock for Mutex, with mid-scope Unlock()/Lock() for the
// hold-release-around-callback pattern (RealTimeExecutor::worker_loop).
// ---------------------------------------------------------------------------
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->lock(); }

  ~MutexLock() RELEASE() {
    if (held_) mu_->unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Temporarily release / reacquire within the scope.
  void Unlock() RELEASE() {
    GFAAS_CHECK(held_);
    held_ = false;
    mu_->unlock();
  }
  void Lock() ACQUIRE() {
    GFAAS_CHECK(!held_);
    mu_->lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex* mu_;
  bool held_ = true;
};

// ---------------------------------------------------------------------------
// Condition variable over common::Mutex. wait() atomically releases and
// reacquires the lock internally; from the analysis' point of view the
// capability stays held across the call (matching std semantics: the
// predicate re-check after wakeup runs under the lock). The owner shadow
// is cleared for the blocked stretch and restored on wakeup.
// ---------------------------------------------------------------------------
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lock) {
    GFAAS_CHECK(lock.held_);
    Mutex* mu = lock.mu_;
    mu->owner_.store(std::thread::id{}, std::memory_order_relaxed);
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
    mu->owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }

  // Returns false on timeout (like std::cv_status::timeout).
  bool wait_until(MutexLock& lock,
                  std::chrono::steady_clock::time_point deadline) {
    GFAAS_CHECK(lock.held_);
    Mutex* mu = lock.mu_;
    mu->owner_.store(std::thread::id{}, std::memory_order_relaxed);
    std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    mu->owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    return status == std::cv_status::no_timeout;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// ---------------------------------------------------------------------------
// Thread-affinity capability for the single-threaded-by-contract
// structures (Gateway, SchedulerEngine, Autoscaler, ChaosInjector, the
// MPSC consumer side): state that is not mutex-protected because every
// touch happens on the executor's worker thread. Annotating that state
// GUARDED_BY(serial_) and asserting the capability at each entry point
// gives the same static discipline a mutex gets — a new code path that
// reaches the state without going through an asserted entry point fails
// to compile under Clang.
//
// Runtime shadow, opt-in: bind_current_thread() pins the capability to
// the calling thread and every later AssertHeld() dies on a foreign
// thread. Unbound (the default — simulation mode runs everything on one
// thread and needs no pin), AssertHeld() is statically meaningful but
// dynamically free.
// ---------------------------------------------------------------------------
class CAPABILITY("executor") ExecutorAffinity {
 public:
  ExecutorAffinity() = default;
  ExecutorAffinity(const ExecutorAffinity&) = delete;
  ExecutorAffinity& operator=(const ExecutorAffinity&) = delete;

  // Pins the capability to the calling thread (call once, from the
  // owning worker). Re-binding is allowed only from the bound thread.
  void bind_current_thread() {
    const std::thread::id self = std::this_thread::get_id();
    const std::thread::id prev = bound_.exchange(self, std::memory_order_relaxed);
    GFAAS_CHECK(prev == std::thread::id{} || prev == self)
        << "ExecutorAffinity re-bound from a foreign thread";
  }

  void AssertHeld() const ASSERT_CAPABILITY(this) {
    const std::thread::id bound = bound_.load(std::memory_order_relaxed);
    GFAAS_CHECK(bound == std::thread::id{} ||
                bound == std::this_thread::get_id())
        << "ExecutorAffinity contract violated: touched from a thread other "
           "than the bound worker";
  }

  bool bound() const {
    return bound_.load(std::memory_order_relaxed) != std::thread::id{};
  }

 private:
  std::atomic<std::thread::id> bound_{};
};

}  // namespace gfaas::common
