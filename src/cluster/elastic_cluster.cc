#include "cluster/elastic_cluster.h"

#include <utility>

#include "common/log.h"

namespace gfaas::cluster {

ElasticCluster::ElasticCluster(std::unique_ptr<sim::Executor> executor,
                               const ClusterConfig& config,
                               const models::ModelRegistry& registry)
    : config_(config), executor_(std::move(executor)), registry_(registry) {
  GFAAS_CHECK(executor_ != nullptr);
  GFAAS_CHECK(config.nodes >= 1 && config.gpus_per_node >= 1);
  GFAAS_CHECK(config.node_specs.size() == 1 ||
              config.node_specs.size() == static_cast<std::size_t>(config.nodes))
      << "node_specs must have 1 entry or one per node";

  store_ = std::make_unique<datastore::KvStore>();
  cache_ = std::make_unique<cache::CacheManager>(config.cache_policy, store_.get());

  std::vector<GpuManager*> manager_ptrs;
  std::int64_t next_gpu = 0;
  for (int node = 0; node < config.nodes; ++node) {
    const gpu::GpuSpec& spec = config.spec_for_node(node);
    gpu::PcieLink* shared_link = nullptr;
    if (config.shared_pcie_per_node) {
      links_.push_back(
          std::make_unique<gpu::PcieLink>(spec.pcie_gbps, spec.pcie_latency));
      shared_link = links_.back().get();
    }
    std::vector<gpu::VirtualGpu*> node_gpus;
    for (int g = 0; g < config.gpus_per_node; ++g) {
      gpu::PcieLink* link = shared_link;
      if (link == nullptr) {
        links_.push_back(
            std::make_unique<gpu::PcieLink>(spec.pcie_gbps, spec.pcie_latency));
        link = links_.back().get();
      }
      const GpuId id(next_gpu++);
      gpus_.push_back(std::make_unique<gpu::VirtualGpu>(id, spec, link));
      cache_->add_gpu(id, gpus_.back()->memory_capacity());
      node_gpus.push_back(gpus_.back().get());
    }
    managers_.push_back(std::make_unique<GpuManager>(
        NodeId(node), executor_.get(), cache_.get(), &registry_, node_gpus));
    manager_ptrs.push_back(managers_.back().get());
  }

  engine_ = std::make_unique<SchedulerEngine>(
      executor_.get(), cache_.get(), &registry_, manager_ptrs,
      core::make_scheduler(config.policy, config.o3_limit));
}

ElasticCluster::~ElasticCluster() {
  // Stop the executor first: a wall-clock worker thread is joined and
  // every still-pending event is dropped before the components those
  // callbacks point into are destroyed.
  executor_.reset();
}

GpuId ElasticCluster::add_gpu(const gpu::GpuSpec& spec) {
  const GpuId id(static_cast<std::int64_t>(gpus_.size()));
  links_.push_back(std::make_unique<gpu::PcieLink>(spec.pcie_gbps, spec.pcie_latency));
  gpus_.push_back(std::make_unique<gpu::VirtualGpu>(id, spec, links_.back().get()));
  cache_->add_gpu(id, gpus_.back()->memory_capacity());
  managers_.push_back(std::make_unique<GpuManager>(
      NodeId(static_cast<std::int64_t>(managers_.size())), executor_.get(), cache_.get(),
      &registry_, std::vector<gpu::VirtualGpu*>{gpus_.back().get()}));
  engine_->add_node(managers_.back().get());
  return id;
}

std::vector<GpuId> ElasticCluster::domain_gpus(std::size_t domain) const {
  GFAAS_CHECK(domain < managers_.size()) << "unknown domain " << domain;
  return managers_[domain]->gpu_ids();
}

void ElasticCluster::kill_domain(std::size_t domain) {
  for (const GpuId gpu : domain_gpus(domain)) {
    if (engine_->is_registered(gpu)) engine_->kill_gpu(gpu);
  }
}

void ElasticCluster::degrade_domain(std::size_t domain, double factor) {
  for (const GpuId gpu : domain_gpus(domain)) {
    if (engine_->is_registered(gpu)) engine_->degrade_gpu(gpu, factor);
  }
}

}  // namespace gfaas::cluster
