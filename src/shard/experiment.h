// Sharded experiment runner: partitions a fleet config into N per-shard
// ClusterConfigs along whole-node lines, replays a workload through a
// ShardedCluster, and aggregates its ExperimentResult with the same
// cluster::aggregate_result as cluster::run_experiment, shards in order,
// so a 1-shard sharded run reproduces the direct run's hexfloat output
// and completion digest byte-for-byte (bench_seed_digest --sharded=1).
#pragma once

#include <vector>

#include "cluster/config.h"
#include "cluster/experiment.h"
#include "shard/sharded_cluster.h"
#include "trace/workload.h"

namespace gfaas::shard {

// Splits `base` into `shards` partitions along whole-node lines: shard s
// gets nodes/shards nodes (the first nodes%shards shards get one extra),
// carrying its slice of node_specs and every scalar knob unchanged. Dies
// unless 1 <= shards <= base.nodes.
std::vector<cluster::ClusterConfig> partition_config(
    const cluster::ClusterConfig& base, std::size_t shards);

// The replay runner's routing set-up, applied before the replay:
// replicates every model whose share of `workload` exceeds
// 1/(options.hot_model_spread x shards) (ShardedOptions::hot_model_spread),
// then runs options.calibration_rounds of offline ring-weight
// calibration on the routed workload. No-op with one shard.
void prepare_routing(ShardedCluster& sharded, const trace::Workload& workload,
                     const ShardedOptions& options);

struct ShardedExperimentResult {
  cluster::ExperimentResult result;
  ShardedReplayStats stats;
};

// Runs `workload` through a `shards`-way ShardedCluster built from
// partition_config(config, shards), set up by prepare_routing. The
// completion stream (shard-major) lands in `completions_out` when
// non-null; duplicate tracking of the workload's top model is wired to
// the shard that model routes to.
ShardedExperimentResult run_sharded_experiment(
    const cluster::ClusterConfig& config, std::size_t shards,
    const trace::Workload& workload, ShardedOptions options = {},
    std::vector<core::CompletionRecord>* completions_out = nullptr);

}  // namespace gfaas::shard
