#include "shard/experiment.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/log.h"

namespace gfaas::shard {

std::vector<cluster::ClusterConfig> partition_config(
    const cluster::ClusterConfig& base, std::size_t shards) {
  GFAAS_CHECK(shards >= 1);
  GFAAS_CHECK(shards <= static_cast<std::size_t>(base.nodes))
      << "cannot split " << base.nodes << " nodes into " << shards
      << " shards (partitions are whole nodes)";
  const auto nodes = static_cast<std::size_t>(base.nodes);
  std::vector<cluster::ClusterConfig> configs;
  configs.reserve(shards);
  std::size_t node_cursor = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t share = nodes / shards + (s < nodes % shards ? 1 : 0);
    cluster::ClusterConfig config = base;
    config.nodes = static_cast<int>(share);
    if (base.node_specs.size() > 1) {
      GFAAS_CHECK(base.node_specs.size() == nodes);
      config.node_specs.assign(
          base.node_specs.begin() + static_cast<std::ptrdiff_t>(node_cursor),
          base.node_specs.begin() +
              static_cast<std::ptrdiff_t>(node_cursor + share));
    }
    node_cursor += share;
    configs.push_back(std::move(config));
  }
  return configs;
}

void prepare_routing(ShardedCluster& sharded, const trace::Workload& workload,
                     const ShardedOptions& options) {
  const std::size_t shards = sharded.shard_count();
  // Hot-model spreading: affinity routing caps any one model's service
  // rate at one shard's capacity, so a model whose replay traffic share
  // exceeds its fair slice is replicated over enough ring successors to
  // bring every replica's slice back under it (with headroom, see
  // ShardedOptions::hot_model_spread). The replay runner knows the whole
  // workload upfront; an online deployment would feed observed rates
  // through the same set_replication hook.
  if (shards > 1 && options.hot_model_spread > 0) {
    std::unordered_map<std::int64_t, std::size_t> per_model;
    for (const core::Request& request : workload.requests) {
      ++per_model[request.model.value()];
    }
    const double total = static_cast<double>(workload.requests.size());
    for (const auto& [model, count] : per_model) {
      const double share = static_cast<double>(count) / total;
      const auto copies = static_cast<std::uint32_t>(std::ceil(
          share * static_cast<double>(shards) * options.hot_model_spread));
      if (copies > 1) sharded.router().set_replication(ModelId(model), copies);
    }
  }

  // Offline weight calibration: per-model hashing balances EXPECTED load,
  // but with a few hundred models the realized per-shard shares are
  // binomial — a 1.5-2x-fair hot shard is typical, and that overflow
  // becomes steady-state stealing. The replay is fully known, so iterate:
  // route everything, then damp each shard's ring weight toward the fair
  // share and re-route. sqrt damping keeps the model->shard churn per
  // round small (consistent hashing moves only arcs near the changed
  // weights), and a fixed round count keeps it deterministic.
  if (shards > 1 && options.calibration_rounds > 0) {
    const double fair = static_cast<double>(workload.requests.size()) /
                        static_cast<double>(shards);
    for (int round = 0; round < options.calibration_rounds; ++round) {
      std::vector<double> load(shards, 0.0);
      for (const core::Request& request : workload.requests) {
        load[sharded.route(request.model,
                           static_cast<std::uint64_t>(request.id.value()))] +=
            1.0;
      }
      std::vector<double> weights = sharded.router().weights();
      for (std::size_t s = 0; s < shards; ++s) {
        weights[s] *= std::sqrt(fair / std::max(load[s], 1.0));
        weights[s] = std::clamp(weights[s], 0.2, 5.0);
      }
      sharded.router().set_weights(weights);
    }
  }
}

ShardedExperimentResult run_sharded_experiment(
    const cluster::ClusterConfig& config, std::size_t shards,
    const trace::Workload& workload, ShardedOptions options,
    std::vector<core::CompletionRecord>* completions_out) {
  ShardedCluster sharded(partition_config(config, shards), workload.registry,
                         options);

  prepare_routing(sharded, workload, options);

  // The paper's duplicate metric follows the hottest model; with model-
  // affinity routing its traffic (and warm copies) live on its replica
  // shards — track its primary.
  sharded.engine(sharded.route(workload.top_model))
      .track_duplicates_of(workload.top_model);

  ShardedExperimentResult out;
  out.stats = sharded.replay(workload.requests);
  sharded.audit(workload.requests.size());
  std::vector<cluster::SimCluster*> cells;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    cells.push_back(&sharded.shard(s));
  }
  out.result = cluster::aggregate_result(
      cells, sharded.engine(sharded.route(workload.top_model)), workload,
      completions_out);
  return out;
}

}  // namespace gfaas::shard
