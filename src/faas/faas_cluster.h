// FaasCluster: the complete GPU-enabled FaaS deployment — Gateway on top,
// SimCluster (Scheduler + Cache Manager + GPU Managers + Datastore)
// underneath — implementing faas::GpuBackend so GPU-enabled functions
// registered through the Gateway are scheduled onto the virtual GPUs.
// This is the object the examples and integration tests program against:
// the same end-to-end path as the paper's Fig. 2.
#pragma once

#include <functional>
#include <memory>

#include "cluster/experiment.h"
#include "faas/gateway.h"

namespace gfaas::faas {

class FaasCluster final : public GpuBackend {
 public:
  FaasCluster(const cluster::ClusterConfig& config, const models::ModelRegistry& registry);

  Gateway& gateway() { return *gateway_; }
  cluster::SimCluster& sim_cluster() { return *cluster_; }
  sim::Simulator& simulator() { return cluster_->simulator(); }
  datastore::KvStore& datastore() { return cluster_->datastore(); }

  // GpuBackend: resolves the function's model by name, builds a
  // scheduler request, and completes the callback when inference is done.
  void submit(const FunctionSpec& spec, const Payload& input,
              std::function<void(StatusOr<InvocationResult>)> done) override;

  // Drives the simulation until all submitted work completes.
  void run_to_completion() { cluster_->simulator().run(); }

 private:
  std::unique_ptr<cluster::SimCluster> cluster_;
  std::unique_ptr<Gateway> gateway_;
  models::ModelRegistry registry_;
  std::int64_t next_request_ = 0;
};

}  // namespace gfaas::faas
