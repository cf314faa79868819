#include "cluster/realtime_cluster.h"

#include <memory>

namespace gfaas::cluster {

RealTimeCluster::RealTimeCluster(const ClusterConfig& config,
                                 const models::ModelRegistry& registry,
                                 double time_scale)
    : ElasticCluster(std::make_unique<RealTimeExecutor>(time_scale), config, registry) {}

}  // namespace gfaas::cluster
