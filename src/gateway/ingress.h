// Concurrent ingestion front door: any number of client threads push
// {request, callback} cells into a lock-free bounded MPSC ring; the
// executor's worker thread drains the whole backlog in one pass into
// Gateway::submit_batch.
//
// Wakeup protocol (lost-wakeup-free, one executor post per burst): a
// producer publishes its cell, then atomically arms the drain flag; only
// the producer that flips it false->true posts a drain task. The drainer
// disarms FIRST, then drains — any cell published after the disarm
// re-arms and posts a fresh pass, so every published cell is covered by
// a drain that starts after its publish.
//
// Backpressure: a full ring fails try_submit() immediately (the cell
// stays with the caller — retry, park, or report upstream). Nothing on
// the producer path blocks or allocates, and the drain side reuses one
// batch buffer, so a pass allocates nothing once it has grown to the
// largest burst.
//
// Threading: try_submit() from any thread; everything else (the drain,
// the Gateway) stays on the executor worker thread. Counters are
// relaxed atomics, readable anywhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"
#include "concurrent/mpsc_queue.h"
#include "gateway/gateway.h"
#include "sim/simulator.h"

namespace gfaas::gateway {

class ConcurrentIngress {
 public:
  // `gateway` and `executor` must outlive the ingress and belong to the
  // same cluster; `capacity` (ring size, a power of two) bounds the
  // burst producers can run ahead of the drain.
  ConcurrentIngress(Gateway* gateway, sim::Executor* executor,
                    std::size_t capacity = 1024);

  ConcurrentIngress(const ConcurrentIngress&) = delete;
  ConcurrentIngress& operator=(const ConcurrentIngress&) = delete;

  // Producer-side enqueue, thread-safe and lock-free. Moves from `cell`
  // only on success; false means the ring is full and the caller keeps
  // the cell.
  bool try_submit(Submission& cell);

  // Registers a pull probe mirroring the ingress counters and backlog
  // into gauges each exporter tick. The producer path already keeps its
  // own relaxed atomics, so instrumentation costs it nothing — the
  // probe reads them from the exporter's thread.
  void set_telemetry(telemetry::Telemetry* telemetry);

  // --- counters (relaxed; exact once producers are quiescent) ---
  std::uint64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }
  std::uint64_t rejected() const { return rejected_.load(std::memory_order_relaxed); }
  // Cells handed to submit_batch so far (== accepted once drained).
  std::uint64_t drained() const { return drained_.load(std::memory_order_relaxed); }
  // Drain passes that found work — accepted/drains is the realized
  // batching factor the amortized admission path benefits from.
  std::uint64_t drains() const { return drains_.load(std::memory_order_relaxed); }
  std::uint64_t max_batch() const { return max_batch_.load(std::memory_order_relaxed); }
  std::size_t backlog() const { return queue_.approx_size(); }

 private:
  // Runs on the executor worker thread only: the ring's consumer side is
  // single-consumer by contract, and that contract is the capability.
  void drain() REQUIRES(consumer_serial_);

  Gateway* gateway_;
  sim::Executor* executor_;
  // Consumer-side affinity: try_pop()/drain() of the MPSC ring must all
  // happen on the one drainer thread (the producers' try_push side is
  // genuinely concurrent and stays annotation-free).
  common::ExecutorAffinity consumer_serial_;
  concurrent::BoundedMpscQueue<Submission> queue_;
  // The drain's batch buffer; submit_batch empties it and keeps its
  // capacity for the next pass.
  std::vector<Submission> batch_ GUARDED_BY(consumer_serial_);
  // True while a drain task is posted-but-not-yet-disarmed; gates the
  // one-post-per-burst wakeup.
  std::atomic<bool> drain_armed_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> drained_{0};
  std::atomic<std::uint64_t> drains_{0};
  std::atomic<std::uint64_t> max_batch_{0};
};

}  // namespace gfaas::gateway
