// Heap-allocation counter for the benchmark binary.
//
// alloc_count.cc replaces the global operator new/delete family of this
// executable only (the library layers are untouched). Every allocation is
// charged to the process-wide phase set with set_alloc_phase(). Counting
// is a plain per-thread increment (no atomic read-modify-write on the hot
// path); a thread's counts join the process total when the thread exits.
#pragma once

#include <cstdint>

namespace perfbench {

enum class AllocPhase : int {
  kSetup = 0,  // workload generation, cluster assembly
  kSubmit,     // request ingestion (arrival scheduling, engine submit)
  kComplete,   // every other event of a replay
  kOther,      // harness bookkeeping, checks, teardown
};
inline constexpr int kAllocPhases = 4;

void set_alloc_phase(AllocPhase phase);

// Allocations charged to `phase` by threads that have exited plus the
// calling thread. A thread that is still running contributes only once
// it exits, so read after joining the threads of interest.
std::uint64_t allocs_in(AllocPhase phase);

}  // namespace perfbench
