// Shared test support: deterministic builders for requests, model
// registries, workloads and clusters. Suites use these instead of each
// re-implementing `make_request` / registry helpers, so fixtures stay
// consistent across the scheduler, cache and cluster tests.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/experiment.h"
#include "trace/workload.h"

namespace gfaas::testkit {

// Canonical test request: the function id mirrors the request id.
core::Request make_request(std::int64_t id, std::int64_t model, SimTime arrival,
                           int batch = 32);

// A deterministic arrival sequence: `count` requests spaced `gap` apart
// starting at `start`, round-robining over `model_count` models. Request
// ids are dense [0, count).
std::vector<core::Request> make_request_sequence(std::int64_t count,
                                                 std::int64_t model_count,
                                                 SimTime start, SimTime gap,
                                                 int batch = 32);

// Registry holding the first `count` Table I models (squeezenet1.1,
// resnet18, resnet34, ...).
models::ModelRegistry head_registry(int count);

// Deterministic standard workload over a synthesized Azure trace.
// CHECK-fails on config errors so tests receive a value directly.
trace::Workload make_workload(std::size_t working_set, std::uint64_t seed,
                              std::int64_t window_minutes = 2);

// Fluent builder for cluster fixtures. Defaults to the smallest useful
// cluster (1 node x 2 GPUs, 3 registered models) rather than the paper's
// full 3x4 testbed, so unit tests stay fast; call nodes()/gpus_per_node()
// to scale up.
class ClusterBuilder {
 public:
  ClusterBuilder();

  ClusterBuilder& nodes(int n);
  ClusterBuilder& gpus_per_node(int n);
  ClusterBuilder& policy(core::PolicyName p);
  ClusterBuilder& o3_limit(int limit);
  ClusterBuilder& cache_policy(cache::PolicyKind kind);
  ClusterBuilder& models(int count);

  const cluster::ClusterConfig& config() const { return config_; }

  std::unique_ptr<cluster::SimCluster> build() const;

 private:
  cluster::ClusterConfig config_;
  int model_count_ = 3;
};

}  // namespace gfaas::testkit
