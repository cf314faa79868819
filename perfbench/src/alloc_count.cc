#include "alloc_count.h"

#include <pthread.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<int> g_phase{static_cast<int>(AllocPhase::kSetup)};
std::atomic<std::uint64_t> g_exited[kAllocPhases];

struct ThreadCounts {
  std::uint64_t n[kAllocPhases];
  bool registered;
};
// Trivially destructible and zero-initialised, so touching it from
// operator new never allocates or recurses.
thread_local ThreadCounts t_counts{{}, false};

void fold_into_total(void* counts) {
  const auto* c = static_cast<const ThreadCounts*>(counts);
  for (int i = 0; i < kAllocPhases; ++i) {
    g_exited[i].fetch_add(c->n[i], std::memory_order_relaxed);
  }
}

pthread_key_t g_exit_key;
// False until this translation unit's static initialisation ran; earlier
// allocations are still counted but their thread is not registered yet.
std::atomic<bool> g_key_ready{false};
const bool g_key_created = [] {
  const bool ok = pthread_key_create(&g_exit_key, fold_into_total) == 0;
  g_key_ready.store(ok, std::memory_order_release);
  return ok;
}();

inline void count_allocation() {
  ThreadCounts& c = t_counts;
  ++c.n[g_phase.load(std::memory_order_relaxed)];
  if (!c.registered && g_key_ready.load(std::memory_order_acquire)) {
    c.registered = true;
    pthread_setspecific(g_exit_key, &c);
  }
}

void* allocate(std::size_t size) {
  count_allocation();
  if (size == 0) size = 1;
  for (;;) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count_allocation();
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  for (;;) {
    if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
      return p;
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void set_alloc_phase(AllocPhase phase) {
  g_phase.store(static_cast<int>(phase), std::memory_order_relaxed);
}

std::uint64_t allocs_in(AllocPhase phase) {
  const int i = static_cast<int>(phase);
  return g_exited[i].load(std::memory_order_relaxed) + t_counts.n[i];
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate_aligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
