// Per-layer counters read from a fleet's public accessors after a run:
// core (policy cost, queue waits), cache, gpu and datastore, summed over
// the cells of one fleet (one SimCluster, or every shard's).
#pragma once

#include <algorithm>
#include <vector>

#include "cluster/engine.h"
#include "cluster/experiment.h"
#include "core/request.h"
#include "harness.h"
#include "stats.h"

namespace perfbench {

inline void record_layer_counters(const std::vector<gfaas::cluster::SimCluster*>& cells,
                                  const std::vector<gfaas::core::CompletionRecord>& records,
                                  const gfaas::cluster::SchedulerEngine& top_engine,
                                  double revisions_before, RunResult& out) {
  const double n = static_cast<double>(records.size());
  gfaas::SimTime makespan = 0;
  std::vector<double> waits;
  waits.reserve(records.size());
  double misses = 0, via_local = 0, exec_s = 0;
  for (const gfaas::core::CompletionRecord& r : records) {
    makespan = std::max(makespan, r.completed);
    waits.push_back(gfaas::sim_to_seconds(r.dispatched - r.arrival));
    if (!r.cache_hit) misses += 1;
    if (r.via_local_queue) via_local += 1;
    exec_s += gfaas::sim_to_seconds(r.completed - r.dispatched);
  }
  const TailSummary wait = summarize(std::move(waits));
  out.set("core.wait_p50_s", wait.p50);
  out.set("core.wait_p99_s", wait.tail);
  out.set("core.local_queue_share", via_local / n);
  out.set("cache.miss_ratio", misses / n);
  out.set("gpu.exec_s_mean", exec_s / n);

  double policy_calls = 0, policy_ns = 0, queue_len = 0, false_misses = 0, evictions = 0,
         loads = 0, util = 0, gpus = 0, revisions = -revisions_before, keys = 0;
  for (gfaas::cluster::SimCluster* cell : cells) {
    const gfaas::cluster::SchedulerEngine& engine = cell->engine();
    policy_calls += static_cast<double>(engine.policy_invocations());
    policy_ns += static_cast<double>(engine.policy_wall_ns());
    queue_len += static_cast<double>(engine.policy_queue_len_sum());
    false_misses += static_cast<double>(engine.false_misses());
    for (std::size_t g = 0; g < cell->gpu_count(); ++g) {
      evictions += static_cast<double>(cell->gpu(g).counters().evictions);
      loads += static_cast<double>(cell->gpu(g).counters().loads);
      util += cell->gpu(g).sm_utilization(makespan);
      gpus += 1;
    }
    revisions += static_cast<double>(cell->datastore().revision());
    keys += static_cast<double>(cell->datastore().size());
  }
  out.set("core.policy_ns", policy_calls > 0 ? policy_ns / policy_calls : 0.0);
  out.set("core.policy_calls_per_req", policy_calls / n);
  out.set("core.queue_len_mean", policy_calls > 0 ? queue_len / policy_calls : 0.0);
  out.set("cache.false_miss_ratio", false_misses / n);
  out.set("cache.evictions_per_kreq", evictions * 1000 / n);
  out.set("cache.top_duplicates", top_engine.average_top_duplicates(makespan));
  out.set("gpu.model_loads_per_kreq", loads * 1000 / n);
  out.set("gpu.sm_utilization", util / gpus);
  out.set("datastore.revisions_per_req", revisions / n);
  out.set("datastore.keys", keys);
}

}  // namespace perfbench
