// Integration tests: the Fig. 2 pipeline below the Gateway — Scheduler ->
// GPU Manager -> virtual GPU -> Cache Manager -> Datastore — on small
// simulated clusters.
#include <gtest/gtest.h>

#include "cluster/gpu_manager.h"
#include "datastore/keys.h"
#include "testing/builders.h"
#include "trace/workload.h"

namespace gfaas::cluster {
namespace {

using testkit::head_registry;
using testkit::make_request;

// vgg13 (3887MB), vgg16 (3907MB) and vgg19 (3947MB) as models 0-2: on an
// 8GB GPU (~7.75GiB) two fit and the third must evict one.
models::ModelRegistry vgg_registry() {
  models::ModelRegistry registry;
  const char* names[] = {"vgg13", "vgg16", "vgg19"};
  for (int i = 0; i < 3; ++i) {
    models::ModelProfile p = *models::find_model(names[i]);
    p.id = ModelId(i);
    GFAAS_CHECK(registry.register_model(p).ok());
  }
  return registry;
}

TEST(SimClusterTest, BuildsPaperTopology) {
  ClusterConfig config;  // 3 nodes x 4 GPUs
  SimCluster cluster(config, head_registry(3));
  EXPECT_EQ(cluster.gpu_count(), 12u);
  EXPECT_EQ(cluster.cache().gpu_count(), 12u);
  EXPECT_EQ(cluster.gpu(0).spec().name, "rtx2080");
}

TEST(SimClusterTest, RejectsBadNodeSpecCount) {
  ClusterConfig config;
  config.nodes = 3;
  config.node_specs = {gpu::rtx2080(), gpu::rtx2080()};  // 2 specs, 3 nodes
  EXPECT_DEATH(SimCluster(config, head_registry(1)), "node_specs");
}

TEST(SimClusterTest, SingleRequestFullLifecycle) {
  ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 1;
  SimCluster cluster(config, head_registry(1));
  const SimTime makespan = cluster.replay({make_request(0, 0, sec(1))});
  // arrival 1s + load 2.41s + infer 1.28s.
  EXPECT_NEAR(sim_to_seconds(makespan), 1 + 2.41 + 1.28, 0.05);
  const auto& record = cluster.engine().completions().at(0);
  EXPECT_FALSE(record.cache_hit);
  EXPECT_NEAR(sim_to_seconds(record.latency()), 3.69, 0.05);
  // Model resident after completion; the GPU is idle again.
  EXPECT_TRUE(cluster.cache().is_cached(GpuId(0), ModelId(0)));
  EXPECT_TRUE(cluster.engine().is_idle(GpuId(0)));
}

TEST(SimClusterTest, DatastoreHoldsOnlyTheCacheMirrorUnderGpuPrefix) {
  // GPU status lives in the engine's index; the only per-GPU keys in the
  // datastore are the Cache Manager's LRU lists.
  ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  SimCluster cluster(config, head_registry(3));
  std::vector<core::Request> requests;
  for (std::int64_t i = 0; i < 12; ++i) {
    requests.push_back(make_request(i, i % 3, msec(300) * i));
  }
  cluster.replay(requests);
  ASSERT_EQ(cluster.engine().completions().size(), requests.size());
  const auto keys = cluster.datastore().range("gpu/");
  ASSERT_FALSE(keys.empty());
  for (const datastore::KeyValue& kv : keys) {
    const std::size_t slash = kv.key.find('/', 4);
    ASSERT_NE(slash, std::string::npos) << kv.key;
    EXPECT_EQ(kv.key.substr(slash), "/lru") << kv.key;
  }
}

TEST(SimClusterTest, EvictionHappensWhenMemoryFull) {
  // One 8GB GPU; three ~3.9GB VGG models cannot co-reside: the LRU model
  // must be evicted (process killed) to make room.
  ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 1;
  SimCluster cluster(config, vgg_registry());
  cluster.replay({make_request(0, 0, 0), make_request(1, 1, sec(10)),
                  make_request(2, 2, sec(20))});
  // Two fit (7.8GB in ~7.75GiB capacity); the third evicts the LRU one.
  EXPECT_EQ(cluster.gpu(0).counters().evictions, 1);
  EXPECT_FALSE(cluster.cache().is_cached(GpuId(0), ModelId(0)));  // LRU victim
  EXPECT_TRUE(cluster.cache().is_cached(GpuId(0), ModelId(2)));
  EXPECT_EQ(cluster.cache().stats().evictions, 1);
}

TEST(SimClusterTest, ReplayIsDeterministic) {
  trace::WorkloadConfig wconfig;
  wconfig.working_set_size = 15;
  wconfig.window_minutes = 2;
  auto workload = trace::build_standard_workload(wconfig);
  ASSERT_TRUE(workload.ok());

  auto run_once = [&] {
    ClusterConfig config;
    config.policy = core::PolicyName::kLalbO3;
    return run_experiment(config, *workload);
  };
  const ExperimentResult a = run_once();
  const ExperimentResult b = run_once();
  EXPECT_DOUBLE_EQ(a.avg_latency_s, b.avg_latency_s);
  EXPECT_DOUBLE_EQ(a.miss_ratio, b.miss_ratio);
  EXPECT_DOUBLE_EQ(a.sm_utilization, b.sm_utilization);
  EXPECT_EQ(a.evictions, b.evictions);
}

TEST(SimClusterTest, AllRequestsCompleteUnderLoad) {
  trace::WorkloadConfig wconfig;
  wconfig.working_set_size = 25;
  wconfig.window_minutes = 2;
  auto workload = trace::build_standard_workload(wconfig);
  ASSERT_TRUE(workload.ok());
  for (core::PolicyName policy :
       {core::PolicyName::kLb, core::PolicyName::kLalb, core::PolicyName::kLalbO3}) {
    ClusterConfig config;
    config.policy = policy;
    const ExperimentResult result = run_experiment(config, *workload);
    EXPECT_EQ(result.requests, workload->requests.size());
    EXPECT_GT(result.avg_latency_s, 0);
    EXPECT_GE(result.miss_ratio, 0);
    EXPECT_LE(result.miss_ratio, 1);
    EXPECT_GT(result.sm_utilization, 0);
    EXPECT_LT(result.sm_utilization, 1);
  }
}

TEST(SimClusterTest, LalbBeatsLbOnSkewedWorkload) {
  trace::WorkloadConfig wconfig;
  wconfig.working_set_size = 15;
  wconfig.window_minutes = 3;
  auto workload = trace::build_standard_workload(wconfig);
  ASSERT_TRUE(workload.ok());

  ClusterConfig lb_config, lalb_config;
  lb_config.policy = core::PolicyName::kLb;
  lalb_config.policy = core::PolicyName::kLalb;
  const ExperimentResult lb = run_experiment(lb_config, *workload);
  const ExperimentResult lalb = run_experiment(lalb_config, *workload);
  EXPECT_LT(lalb.avg_latency_s, lb.avg_latency_s);
  EXPECT_LT(lalb.miss_ratio, lb.miss_ratio);
  EXPECT_GT(lalb.sm_utilization, lb.sm_utilization);
}

TEST(SimClusterTest, HeterogeneousSpecsApplyPerNode) {
  ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = 1;
  config.node_specs = {gpu::rtx2080(), gpu::a100_like()};
  SimCluster cluster(config, head_registry(2));
  EXPECT_EQ(cluster.gpu(0).spec().name, "rtx2080");
  EXPECT_EQ(cluster.gpu(1).spec().name, "a100-like");
  EXPECT_GT(cluster.gpu(1).memory_capacity(), cluster.gpu(0).memory_capacity());
}

// One GPU under a GpuManager driven directly on the simulator, wired the
// way realtime_test's FullSchedulingStackRunsOnWallClock wires it.
struct ManagedGpu {
  explicit ManagedGpu(models::ModelRegistry models = head_registry(2))
      : registry(std::move(models)) {
    cache.add_gpu(GpuId(0), device.memory_capacity());
  }

  sim::Simulator sim;
  datastore::KvStore store;
  cache::CacheManager cache{cache::PolicyKind::kLru, &store};
  models::ModelRegistry registry;
  gpu::PcieLink link{12.6, usec(20)};
  gpu::VirtualGpu device{GpuId(0), gpu::rtx2080(), &link};
  GpuManager manager{NodeId(0), &sim, &cache, &registry, {&device}};
};

TEST(GpuManagerTest, RejectsWorkOnBusyGpu) {
  // One request per GPU at a time (§III-C): a second execute() against
  // the busy device is refused and leaves the running request untouched.
  ManagedGpu m;
  std::vector<core::CompletionRecord> done;
  auto record = [&done](const core::CompletionRecord& r) { done.push_back(r); };
  const auto finish = m.manager.execute(make_request(0, 0, 0), GpuId(0),
                                        /*false_miss=*/false,
                                        /*via_local_queue=*/false, record);
  ASSERT_TRUE(finish.ok());
  EXPECT_EQ(m.device.phase(), gpu::GpuPhase::kLoading);
  const auto refused = m.manager.execute(make_request(1, 1, 0), GpuId(0), false,
                                         false, record);
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  m.sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, RequestId(0));
  EXPECT_EQ(done[0].completed, *finish);
  EXPECT_FALSE(m.device.is_busy());
}

// Aborts request 0 on the GPU at `abort_at`, then starts request 1 (same
// model) there at once. The aborted callback must never fire; the reused
// slot must complete request 1 exactly once, at the time execute()
// returned, and leave no event or pin behind.
void abort_then_reuse(SimTime abort_at, bool expect_hit) {
  ManagedGpu m;
  int aborted_calls = 0;
  std::vector<core::CompletionRecord> done;
  SimTime expected_finish = 0;
  ASSERT_TRUE(m.manager
                  .execute(make_request(0, 0, 0), GpuId(0), false, false,
                           [&](const core::CompletionRecord&) { ++aborted_calls; })
                  .ok());
  m.sim.schedule_at(abort_at, [&] {
    const auto aborted = m.manager.abort(GpuId(0));
    ASSERT_TRUE(aborted.ok());
    EXPECT_EQ(aborted->id, RequestId(0));
    EXPECT_TRUE(aborted->failed);
    EXPECT_EQ(aborted->completed, abort_at);
    EXPECT_EQ(m.sim.pending_events(), 0u);
    EXPECT_FALSE(m.manager.abort(GpuId(0)).ok());
    const auto finish = m.manager.execute(
        make_request(1, 0, abort_at), GpuId(0), false, false,
        [&](const core::CompletionRecord& r) { done.push_back(r); });
    ASSERT_TRUE(finish.ok());
    expected_finish = *finish;
  });
  m.sim.run();
  EXPECT_EQ(aborted_calls, 0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, RequestId(1));
  EXPECT_EQ(done[0].cache_hit, expect_hit);
  EXPECT_FALSE(done[0].failed);
  EXPECT_EQ(done[0].dispatched, abort_at);
  EXPECT_EQ(done[0].completed, expected_finish);
  if (expect_hit) {
    EXPECT_EQ(done[0].completed, abort_at + *m.registry.infer_time(ModelId(0), 32));
  }
  EXPECT_EQ(m.sim.pending_events(), 0u);
  EXPECT_FALSE(m.cache.state(GpuId(0)).any_pinned());
  EXPECT_FALSE(m.device.is_busy());
}

TEST(GpuManagerTest, SlotReusedAfterAbortMidLoad) {
  // squeezenet1.1 loads for 2.41s: abort at 1s, mid-upload. The
  // half-loaded process is evicted, so request 1 loads again.
  abort_then_reuse(sec(1), /*expect_hit=*/false);
}

TEST(GpuManagerTest, SlotReusedAfterAbortMidInference) {
  // Load ends near 2.41s and inference runs 1.28s: abort at 3s. The model
  // stays resident, so request 1 is a hit.
  abort_then_reuse(sec(3), /*expect_hit=*/true);
}

TEST(GpuManagerTest, UploadKeptForWaiterIsEvictedOnceUnpinned) {
  // A pin stands in for a parked waiter while the upload is aborted: the
  // entry stays resident but not loaded. Once the pin is released, a
  // miss that needs the room evicts it like any other entry.
  ManagedGpu m(vgg_registry());
  const GpuId gpu(0);
  std::vector<core::CompletionRecord> done;
  auto record = [&done](const core::CompletionRecord& r) { done.push_back(r); };
  ASSERT_TRUE(m.manager.execute(make_request(0, 0, 0), gpu, false, false, record).ok());
  m.sim.schedule_at(sec(1), [&] {  // vgg13 uploads for 3.98s
    ASSERT_TRUE(m.cache.pin(gpu, ModelId(0)).ok());
    ASSERT_TRUE(m.manager.abort(gpu).ok());
  });
  m.sim.run();
  const cache::GpuCacheState& state = m.cache.state(gpu);
  EXPECT_TRUE(state.contains(ModelId(0)));
  EXPECT_FALSE(state.loaded(ModelId(0)));
  EXPECT_EQ(m.device.counters().evictions, 0);
  ASSERT_TRUE(m.cache.unpin(gpu, ModelId(0)).ok());

  // Model 1 fits beside the kept entry; model 2 needs the room, and the
  // LRU victim is the unloaded model 0.
  ASSERT_TRUE(m.manager.execute(make_request(1, 1, sec(1)), gpu, false, false, record).ok());
  m.sim.run();
  ASSERT_TRUE(
      m.manager.execute(make_request(2, 2, m.sim.now()), gpu, false, false, record).ok());
  m.sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_FALSE(done[1].cache_hit);
  EXPECT_FALSE(state.contains(ModelId(0)));
  EXPECT_TRUE(state.loaded(ModelId(1)));
  EXPECT_TRUE(state.loaded(ModelId(2)));
  EXPECT_EQ(m.cache.stats().evictions, 1);
  EXPECT_EQ(m.device.counters().evictions, 1);
  m.cache.audit();
}

TEST(GpuManagerTest, MissEvictsExactlyPlannedVictims) {
  // 8GB GPU with two resident VGGs; a third large model must evict only
  // the LRU one, and the datastore LRU mirror must reflect every step.
  ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 1;
  SimCluster cluster(config, vgg_registry());
  cluster.replay({make_request(0, 0, 0), make_request(1, 1, sec(10))});
  auto lru = cluster.datastore().get(datastore::keys::gpu_lru(GpuId(0)));
  ASSERT_TRUE(lru.ok());
  EXPECT_EQ(lru->value, "0,1");  // model0 is LRU

  cluster.simulator().schedule_at(sec(20),
                                  [&] {
                                    cluster.engine().submit(make_request(2, 2, sec(20)));
                                  });
  cluster.simulator().run();
  EXPECT_EQ(cluster.gpu(0).counters().evictions, 1);
  lru = cluster.datastore().get(datastore::keys::gpu_lru(GpuId(0)));
  EXPECT_EQ(lru->value, "1,2");  // model0 evicted, model2 MRU
  EXPECT_EQ(cluster.cache().state(GpuId(0)).model_count(), 2u);
}

TEST(SchedulerEngineTest, FinishTimeEstimateIncludesLocalQueueWork) {
  // Two GPUs, LALB, serving inception.v3 (load 4.42s, infer 1.63s — the
  // catalog's widest load/infer gap). Warm it on one GPU, then send three
  // back-to-back requests: the first runs (hit), the next two wait in
  // the holder's local queue (waits of 1.63s and 3.26s both beat the
  // 4.42s re-upload), and the finish-time estimate must cover the
  // in-flight hit plus both queued hits.
  ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 2;
  config.policy = core::PolicyName::kLalb;
  models::ModelRegistry registry;
  models::ModelProfile inception = *models::find_model("inception.v3");
  inception.id = ModelId(0);
  ASSERT_TRUE(registry.register_model(inception).ok());
  SimCluster cluster(config, registry);
  auto& engine = cluster.engine();

  cluster.simulator().schedule_at(0, [&] { engine.submit(make_request(0, 0, 0)); });
  cluster.simulator().run();
  const GpuId hot = engine.completions().at(0).gpu;

  cluster.simulator().schedule_at(sec(10), [&] {
    engine.submit(make_request(1, 0, sec(10)));
  });
  cluster.simulator().schedule_at(sec(10) + usec(1), [&] {
    engine.submit(make_request(2, 0, sec(10)));
    engine.submit(make_request(3, 0, sec(10)));
  });
  cluster.simulator().schedule_at(sec(10) + usec(2), [&, hot] {
    // In-flight hit (~1.63s remaining) + 2 queued hits (1.63s each).
    const SimTime wait =
        engine.estimated_finish_time(hot) - cluster.simulator().now();
    EXPECT_NEAR(sim_to_seconds(wait), 3 * 1.63, 0.05);
    EXPECT_EQ(engine.local_queues().size(hot), 2u);
  });
  cluster.simulator().run();
  ASSERT_EQ(engine.completions().size(), 4u);
  // All three follow-ups were hits on the same GPU; two via local queue.
  int via_local = 0;
  for (const auto& record : engine.completions()) {
    if (record.via_local_queue) ++via_local;
    if (record.id.value() > 0) {
      EXPECT_TRUE(record.cache_hit);
      EXPECT_EQ(record.gpu, hot);
    }
  }
  EXPECT_EQ(via_local, 2);
}

TEST(SchedulerEngineTest, CancelMidLocalQueueRestoresAggregates) {
  // inception.v3 with a 20 s re-upload, so three hits park behind the warm
  // holder's running hit (waits of 1.63, 3.26 and 4.89 s). Cancelling the
  // middle one must leave the GPU exactly as if it had never been
  // submitted: same queue-ahead work, counts and pins, and the other two
  // still run in arrival order.
  struct Outcome {
    SimTime finish = 0;
    std::size_t local = 0;
    std::size_t total = 0;
    int pins = 0;
    std::vector<std::int64_t> local_order;
  };
  const auto run = [](bool submit_middle) {
    ClusterConfig config;
    config.nodes = 1;
    config.gpus_per_node = 2;
    config.policy = core::PolicyName::kLalb;
    models::ModelRegistry registry;
    models::ModelProfile inception = *models::find_model("inception.v3");
    inception.id = ModelId(0);
    inception.load_time = sec(20);
    EXPECT_TRUE(registry.register_model(inception).ok());
    SimCluster cluster(config, registry);
    SchedulerEngine& engine = cluster.engine();
    engine.submit(make_request(0, 0, 0));
    cluster.simulator().run();
    const GpuId hot = engine.completions().at(0).gpu;
    Outcome out;
    cluster.simulator().schedule_at(sec(30), [&] {
      for (std::int64_t id = 1; id <= 4; ++id) {
        if (id != 3 || submit_middle) engine.submit(make_request(id, 0, sec(30)));
      }
      if (submit_middle) {
        EXPECT_EQ(engine.local_queues().size(hot), 3u);
        EXPECT_TRUE(engine.cancel_request(RequestId(3)));
      }
      engine.audit();
      out.finish = engine.estimated_finish_time(hot);
      out.local = engine.local_queues().size(hot);
      out.total = engine.local_queues().total_pending();
      out.pins = cluster.cache().state(hot).pins(ModelId(0));
    });
    cluster.simulator().run();
    engine.audit();
    for (const auto& record : engine.completions()) {
      if (record.via_local_queue) out.local_order.push_back(record.id.value());
    }
    return out;
  };
  const Outcome cancelled = run(/*submit_middle=*/true);
  const Outcome control = run(/*submit_middle=*/false);
  EXPECT_EQ(cancelled.local, 2u);
  EXPECT_EQ(cancelled.pins, 3);  // the running hit + two parked
  EXPECT_EQ(cancelled.local_order, (std::vector<std::int64_t>{2, 4}));
  EXPECT_EQ(cancelled.finish, control.finish);
  EXPECT_EQ(cancelled.local, control.local);
  EXPECT_EQ(cancelled.total, control.total);
  EXPECT_EQ(cancelled.pins, control.pins);
  EXPECT_EQ(cancelled.local_order, control.local_order);
}

TEST(SchedulerEngineTest, IdleGpusSortedByDispatchFrequency) {
  ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 3;
  config.policy = core::PolicyName::kLalb;
  SimCluster cluster(config, head_registry(1));
  // Three sequential requests for the same model: all land on one GPU
  // (locality), making it the most frequently dispatched.
  cluster.replay({make_request(0, 0, 0), make_request(1, 0, sec(10)),
                  make_request(2, 0, sec(20))});
  const auto idle = cluster.engine().idle_gpus();
  ASSERT_EQ(idle.size(), 3u);
  const GpuId hot = cluster.engine().completions()[0].gpu;
  EXPECT_EQ(idle.front(), hot);  // most-used first
}

// Counts one request's completion-hook firings.
struct HookProbe {
  int fired = 0;
  bool failed = false;

  core::Request request(std::int64_t id, std::int64_t model) {
    core::Request req = make_request(id, model, 0);
    req.on_complete = [this](const core::CompletionRecord& record) {
      ++fired;
      failed = record.failed;
    };
    return req;
  }
};

TEST(SchedulerEngineTest, CompletionHookFiresOnceOnEveryExit) {
  const auto one_gpu = [] {
    return testkit::ClusterBuilder().gpus_per_node(1).build();
  };
  {  // Completion.
    auto cluster = one_gpu();
    HookProbe probe;
    cluster->engine().submit(probe.request(0, 0));
    cluster->simulator().run();
    EXPECT_EQ(probe.fired, 1);
    EXPECT_FALSE(probe.failed);
  }
  {  // GPU death while executing.
    auto cluster = one_gpu();
    HookProbe probe;
    cluster->engine().submit(probe.request(0, 0));
    ASSERT_TRUE(cluster->engine().request_executing(RequestId(0)));
    cluster->kill_gpu(GpuId(0));
    cluster->simulator().run();
    EXPECT_EQ(probe.fired, 1);
    EXPECT_TRUE(probe.failed);
  }
  {  // Cancelled while executing, and from the global queue.
    auto cluster = one_gpu();
    HookProbe running, waiting;
    cluster->engine().submit(running.request(0, 0));
    cluster->engine().submit(waiting.request(1, 1));
    ASSERT_NE(cluster->engine().global_queue().find(RequestId(1)), nullptr);
    EXPECT_TRUE(cluster->engine().cancel_request(RequestId(1)));
    EXPECT_TRUE(cluster->engine().cancel_request(RequestId(0)));
    cluster->simulator().run();
    EXPECT_EQ(running.fired, 0);
    EXPECT_EQ(waiting.fired, 0);
  }
  {  // Cancelled from a local queue: the recipe of
     // FinishTimeEstimateIncludesLocalQueueWork parks request 2 behind the
     // warm holder's running hit.
    ClusterConfig config;
    config.nodes = 1;
    config.gpus_per_node = 2;
    config.policy = core::PolicyName::kLalb;
    models::ModelRegistry registry;
    models::ModelProfile inception = *models::find_model("inception.v3");
    inception.id = ModelId(0);
    ASSERT_TRUE(registry.register_model(inception).ok());
    SimCluster cluster(config, registry);
    SchedulerEngine& engine = cluster.engine();
    HookProbe warm, hit, parked;
    engine.submit(warm.request(0, 0));
    cluster.simulator().run();
    cluster.simulator().schedule_at(sec(10), [&] {
      engine.submit(hit.request(1, 0));
      engine.submit(parked.request(2, 0));
      ASSERT_EQ(engine.global_queue().find(RequestId(2)), nullptr);
      ASSERT_TRUE(engine.request_waiting(RequestId(2)));
      EXPECT_TRUE(engine.cancel_request(RequestId(2)));
    });
    cluster.simulator().run();
    EXPECT_EQ(warm.fired, 1);
    EXPECT_EQ(hit.fired, 1);
    EXPECT_EQ(parked.fired, 0);
  }
  {  // Stolen from the global queue: the hook leaves with the request and
     // fires once, from the engine it was resubmitted to.
    auto victim = one_gpu();
    auto thief = one_gpu();
    HookProbe running, stolen;
    victim->engine().submit(running.request(0, 0));
    victim->engine().submit(stolen.request(1, 1));
    std::vector<core::Request> taken;
    victim->engine().steal_from_global(
        1, [](const core::Request&) { return true; }, taken);
    ASSERT_EQ(taken.size(), 1u);
    EXPECT_EQ(taken[0].id, RequestId(1));
    ASSERT_TRUE(taken[0].on_complete != nullptr);
    thief->engine().submit(std::move(taken[0]));
    victim->simulator().run();
    thief->simulator().run();
    EXPECT_EQ(running.fired, 1);
    EXPECT_EQ(stolen.fired, 1);
    EXPECT_EQ(victim->engine().completions().size(), 1u);
    EXPECT_EQ(thief->engine().completions().size(), 1u);
  }
}

TEST(SchedulerEngineDeathTest, DuplicateExecutingIdDies) {
  // Two idle GPUs: the first request dispatches at once and leaves the
  // global queue, so only the executing-entry check can catch the second.
  auto cluster = testkit::ClusterBuilder().gpus_per_node(2).build();
  cluster->engine().submit(make_request(7, 0, 0));
  ASSERT_TRUE(cluster->engine().request_executing(RequestId(7)));
  EXPECT_DEATH(cluster->engine().submit(make_request(7, 1, 0)),
               "duplicate in-flight request id 7");
}

}  // namespace
}  // namespace gfaas::cluster
