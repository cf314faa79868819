// A scheduled unit of work: one model-inference function invocation.
//
// Requests are what flow through the paper's Fig. 3 pipeline: Gateway ->
// global queue -> (policy) -> GPU local queue / direct dispatch -> GPU.
// `visits` is the out-of-order dispatch skip counter of Algorithm 1
// (lines 11-16): each time the scheduler passes over a request to promote
// a later cache-hit request, visits increments; once it exceeds the O3
// limit the request is placed unconditionally.
#pragma once

#include <cstdint>
#include <functional>

#include "common/id.h"
#include "common/time.h"

namespace gfaas::core {

struct CompletionRecord;

// Per-request completion notification (the Gateway resolving a serving
// callback). Fires exactly once, on success or on failure.
using CompletionHook = std::function<void(const CompletionRecord&)>;

struct Request {
  RequestId id;
  FunctionId function;
  ModelId model;
  std::int64_t batch = 32;
  SimTime arrival = 0;
  // O3 skip counter (Algorithm 1).
  int visits = 0;
  // --- sharded-serving metadata (src/shard) ---
  // Cross-shard steal hops taken so far: 0 = the request runs on the
  // shard its model hashed to; each work-steal rebalance that moves it
  // to another shard's engine increments it. Single-engine runs never
  // touch it, so steal-marker-carrying replays stay bit-identical to
  // the seed engine (the digest folds it into the flags byte, where a
  // zero adds nothing). Declared next to `visits` so the two share one
  // 8-byte word, keeping the engine's request-table slots small.
  std::int32_t steal_hops = 0;
  // --- serving-layer metadata (src/gateway) ---
  // Absolute completion deadline; kSimTimeMax = no SLO. The Gateway
  // stamps arrival + the request's latency SLO here at admission. The
  // scheduling policies never read it, so deadline-carrying replays stay
  // bit-identical to the seed engine.
  SimTime deadline = kSimTimeMax;
  // Submitting tenant (paper §VI). Invalid = anonymous. Only a Gateway
  // with a TenantManager attached reads it: there an anonymous or
  // unregistered tenant is shed, and an admitted request holds one of
  // its tenant's execution slots until its callback resolves.
  TenantId tenant;
  // Per-request completion hook: the only way a result reaches its
  // submitter. It stays inside the request in the engine's request-table
  // slot from submit through the global and local queues to execution
  // (the queues relink slots, never copy requests), and leaves with the
  // request on a steal to another engine. It fires once, on completion or
  // GPU death; cancelling the request drops it unfired.
  CompletionHook on_complete;
};

// The final record of one completed invocation, used for every
// latency/miss metric in the evaluation.
struct CompletionRecord {
  RequestId id;
  ModelId model;
  GpuId gpu;
  SimTime arrival = 0;
  SimTime dispatched = 0;
  SimTime completed = 0;
  bool cache_hit = false;
  // Scheduler forwarded it as a miss although the model was cached on
  // some other GPU at decision time (Fig. 5's metric).
  bool false_miss = false;
  // Whether it waited in a busy GPU's local queue.
  bool via_local_queue = false;
  // The GPU died while this request ran (SchedulerEngine::kill_gpu): the
  // record is the failure notification; `completed` stops at the kill
  // instant and the timing fields must not feed latency metrics.
  bool failed = false;
  // Deadline carried over from the request (kSimTimeMax = none).
  SimTime deadline = kSimTimeMax;
  // Steal marker carried over from the request: how many cross-shard
  // hops it took before completing (0 outside sharded mode).
  std::int32_t steal_hops = 0;

  SimTime latency() const { return completed - arrival; }
  // Whether the invocation finished within its deadline (vacuously true
  // without one; never true for failed requests).
  bool slo_met() const { return !failed && completed <= deadline; }
};

}  // namespace gfaas::core
