// Deployment-mode cluster: the ElasticCluster component stack (Datastore,
// Cache Manager, GPU Managers, Scheduler engine) on the wall-clock
// RealTimeExecutor instead of the discrete-event simulator.
//
// Threading contract (inherited from RealTimeExecutor): every component is
// single-threaded and runs exclusively on the executor's worker thread.
// External threads interact only through executor() — schedule_after() /
// post() are thread-safe — and synchronize with run_to_completion().
// Mutating the engine / cache / membership directly from an external
// thread while events are in flight is a data race; route such work
// through executor().post(). Construction happens before any event exists,
// so the constructor may run on any thread.
//
// `time_scale` compresses time: a delay of d simulated microseconds fires
// after d / time_scale wall microseconds, while now() (and therefore every
// latency/metric) stays in simulated units. time_scale = 1 is real-time
// deployment; large values replay hours of trace in seconds for
// integration testing (see autoscale::replay_with_autoscaler).
#pragma once

#include "cluster/config.h"
#include "cluster/elastic_cluster.h"
#include "cluster/realtime.h"

namespace gfaas::cluster {

class RealTimeCluster final : public ElasticCluster {
 public:
  RealTimeCluster(const ClusterConfig& config, const models::ModelRegistry& registry,
                  double time_scale = 1.0);

  RealTimeExecutor& realtime() { return static_cast<RealTimeExecutor&>(executor()); }

  // Blocks the calling thread until no events remain pending.
  void run_to_completion() override { realtime().drain(); }
};

}  // namespace gfaas::cluster
