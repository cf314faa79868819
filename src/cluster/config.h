// Cluster and experiment configuration.
//
// Defaults reproduce the paper's testbed (§V-A3): 3 nodes × 4 GeForce RTX
// 2080, GPU Managers per node, a global Scheduler and Cache Manager, and
// per-node shared PCIe host links.
#pragma once

#include <vector>

#include "cache/policy.h"
#include "core/scheduler.h"
#include "gpu/gpu_spec.h"

namespace gfaas::cluster {

struct ClusterConfig {
  int nodes = 3;
  int gpus_per_node = 4;
  // One spec per node; a single entry applies to every node. Defaults to
  // the paper's RTX 2080.
  std::vector<gpu::GpuSpec> node_specs = {gpu::rtx2080()};
  // Whether the GPUs of a node share one host PCIe link (contention) or
  // have dedicated links.
  bool shared_pcie_per_node = true;

  core::PolicyName policy = core::PolicyName::kLalbO3;
  int o3_limit = 25;  // paper default (§IV-B)
  cache::PolicyKind cache_policy = cache::PolicyKind::kLru;

  int total_gpus() const { return nodes * gpus_per_node; }
  const gpu::GpuSpec& spec_for_node(int node) const {
    return node_specs.size() == 1 ? node_specs[0]
                                  : node_specs[static_cast<std::size_t>(node)];
  }
};

}  // namespace gfaas::cluster
