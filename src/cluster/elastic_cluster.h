// The full component stack from Fig. 2 — Datastore, Cache Manager,
// per-node GPU Managers and the Scheduler engine — wired to one
// sim::Executor that it owns.
//
// Every consumer above the cluster (Autoscaler, Gateway, chaos, shards)
// programs against this class: it observes the SchedulerEngine and
// CacheManager, schedules work on executor(), and mutates GPU membership
// through the add/fence/remove verbs. Nothing in it names an executor
// implementation, so the same code drives both execution modes, which
// differ only in the executor their constructor picks:
//
//   * evaluation mode  — SimCluster on the discrete-event sim::Simulator
//     (bit-reproducible; what every paper figure runs on);
//   * deployment mode  — RealTimeCluster on cluster::RealTimeExecutor
//     (wall clock, optionally compressed via time_scale).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cache/cache_manager.h"
#include "cluster/config.h"
#include "cluster/engine.h"
#include "datastore/kv_store.h"
#include "gpu/gpu_spec.h"
#include "gpu/pcie.h"
#include "gpu/virtual_gpu.h"
#include "models/zoo.h"
#include "sim/simulator.h"

namespace gfaas::cluster {

class ElasticCluster {
 public:
  ElasticCluster(const ElasticCluster&) = delete;
  ElasticCluster& operator=(const ElasticCluster&) = delete;
  virtual ~ElasticCluster();

  // Time source and deferred-execution engine everything runs on.
  sim::Executor& executor() { return *executor_; }
  SchedulerEngine& engine() { return *engine_; }
  const SchedulerEngine& engine() const { return *engine_; }
  cache::CacheManager& cache() { return *cache_; }
  const cache::CacheManager& cache() const { return *cache_; }
  datastore::KvStore& datastore() { return *store_; }
  gpu::VirtualGpu& gpu(std::size_t index) { return *gpus_[index]; }
  std::size_t gpu_count() const { return gpus_.size(); }
  const ClusterConfig& config() const { return config_; }

  // --- dynamic GPU membership ---
  // Provisions one GPU as its own node (dedicated PCIe link and GPU
  // Manager) and joins it to the cache/engine. Ids are dense and never
  // reused; the VirtualGpu object stays owned (and addressable through
  // gpu()) after removal so post-run accounting can still read it.
  GpuId add_gpu(const gpu::GpuSpec& spec);
  void fence_gpu(GpuId gpu) { engine_->fence_gpu(gpu); }
  void unfence_gpu(GpuId gpu) { engine_->unfence_gpu(gpu); }
  void remove_gpu(GpuId gpu) { engine_->remove_gpu(gpu); }
  bool gpu_drained(GpuId gpu) const { return engine_->drained(gpu); }
  // Chaos verb (fault-injection harness): the GPU dies mid-run — the
  // in-flight request fails through its completion hook, local-queue
  // requests rejoin the global queue, and the GPU is retired.
  void kill_gpu(GpuId gpu) { engine_->kill_gpu(gpu); }

  // --- failure domains (src/chaos) ---
  // A domain is one node: its GPUs share the host PCIe link and the GPU
  // Manager, so correlated hardware faults (PSU, PCIe switch, host
  // kernel panic) take out the whole group at once. Autoscaler-added
  // GPUs are single-GPU nodes, i.e. each is its own domain. Domains are
  // never renumbered; a fully-killed domain simply has no registered
  // members left. Domain d is node d, so its members are read from
  // GPU Manager d.
  std::size_t domain_count() const { return managers_.size(); }
  std::vector<GpuId> domain_gpus(std::size_t domain) const;
  // Kills every still-registered GPU of the domain in one step (see
  // SchedulerEngine::kill_gpu for per-GPU semantics). Members already
  // removed or killed are skipped.
  void kill_domain(std::size_t domain);
  // Gray-degrades (factor > 1) or heals (factor = 1) every
  // still-registered GPU of the domain: executions stretch by `factor`
  // while the scheduler keeps seeing healthy estimates.
  void degrade_domain(std::size_t domain, double factor);

  // Runs (simulated) or waits (wall clock) until every scheduled event has
  // fired and no further work is outstanding.
  virtual void run_to_completion() = 0;

 protected:
  ElasticCluster(std::unique_ptr<sim::Executor> executor, const ClusterConfig& config,
                 const models::ModelRegistry& registry);

 private:
  ClusterConfig config_;
  std::unique_ptr<sim::Executor> executor_;
  std::unique_ptr<datastore::KvStore> store_;
  std::unique_ptr<cache::CacheManager> cache_;
  const models::ModelRegistry registry_;
  std::vector<std::unique_ptr<gpu::PcieLink>> links_;
  std::vector<std::unique_ptr<gpu::VirtualGpu>> gpus_;
  std::vector<std::unique_ptr<GpuManager>> managers_;  // node ordinal order
  std::unique_ptr<SchedulerEngine> engine_;
};

}  // namespace gfaas::cluster
