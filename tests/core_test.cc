// Tests for the scheduler core: queue data structures and the three
// scheduling policies (LB / LALB / LALB+O3) exercised on a real (small)
// simulated cluster so every decision path of Algorithms 1 & 2 is
// observable through completion records.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "cluster/engine.h"
#include "cluster/experiment.h"
#include "common/rng.h"
#include "core/queues.h"
#include "core/scheduler.h"
#include "gpu/gpu_spec.h"
#include "gpu/pcie.h"
#include "gpu/virtual_gpu.h"
#include "models/zoo.h"
#include "sim/simulator.h"
#include "testing/builders.h"
#include "testing/matchers.h"

namespace gfaas::core {
namespace {

using testkit::make_request;

// Request ids in the queue's arrival order.
std::vector<RequestId> ids_in_order(const GlobalQueue& q) {
  std::vector<RequestId> out;
  for (const Request& r : q) out.push_back(r.id);
  return out;
}

TEST(GlobalQueueTest, ArrivalOrderPreserved) {
  GlobalQueue q;
  q.push(make_request(1, 0, 10));
  q.push(make_request(2, 1, 20));
  q.push(make_request(3, 0, 30));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.head()->id, RequestId(1));
  EXPECT_EQ(ids_in_order(q),
            (std::vector<RequestId>{RequestId(1), RequestId(2), RequestId(3)}));
}

TEST(GlobalQueueTest, TakeRemovesAndMaintainsIndex) {
  GlobalQueue q;
  q.push(make_request(1, 5, 10));
  q.push(make_request(2, 5, 20));
  auto taken = q.take(RequestId(1));
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken->id, RequestId(1));
  ASSERT_TRUE(q.take(RequestId(2)).ok());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.take(RequestId(1)).status().code(), StatusCode::kNotFound);
}

TEST(GlobalQueueTest, VisitsTracking) {
  GlobalQueue q;
  q.push(make_request(1, 0, 10));
  for (int i = 1; i <= 7; ++i) EXPECT_EQ(q.bump_visits(RequestId(1)), i);
  EXPECT_EQ(q.find(RequestId(1))->visits, 7);
}

TEST(GlobalQueueTest, IndexInvariantsThroughInterleavedPushTake) {
  GlobalQueue q;
  q.push(make_request(1, 5, 10));
  q.push(make_request(2, 7, 20));
  q.push(make_request(3, 5, 30));
  ASSERT_TRUE(q.take(RequestId(1)).ok());
  q.push(make_request(4, 9, 40));
  ASSERT_TRUE(q.take(RequestId(4)).ok());
  q.push(make_request(5, 5, 50));

  // Arrival order is preserved across the holes.
  EXPECT_EQ(ids_in_order(q),
            (std::vector<RequestId>{RequestId(2), RequestId(3), RequestId(5)}));
}

TEST(GlobalQueueTest, IteratorMatchesSnapshotUnderRandomOps) {
  // Property check: const iteration must agree with a plain model of the
  // live ids in push order after every random operation.
  Rng rng(0xfeed5eed);
  GlobalQueue q;
  std::vector<std::int64_t> live;
  std::int64_t next_id = 1;
  for (int op = 0; op < 500; ++op) {
    const std::uint64_t dice = rng.next_below(10);
    if (dice < 5 || live.empty()) {
      const std::int64_t id = next_id++;
      q.push(make_request(id, rng.uniform_int(0, 6), op));
      live.push_back(id);
    } else if (dice < 8) {
      const std::size_t pick = rng.next_below(live.size());
      q.bump_visits(RequestId(live[pick]));
    } else {
      const std::size_t pick = rng.next_below(live.size());
      ASSERT_TRUE(q.take(RequestId(live[pick])).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }

    std::vector<RequestId> expected;
    for (std::int64_t id : live) expected.push_back(RequestId(id));
    ASSERT_EQ(ids_in_order(q), expected);
  }
  EXPECT_GT(q.size(), 0u);
}

TEST(LocalQueuesTest, FifoPerGpu) {
  RequestTable table;
  LocalQueues lq(table, 2);
  lq.push(GpuId(0), make_request(1, 0, 10));
  lq.push(GpuId(0), make_request(2, 0, 20));
  lq.push(GpuId(1), make_request(3, 1, 30));
  EXPECT_EQ(lq.size(GpuId(0)), 2u);
  EXPECT_EQ(lq.total_pending(), 3u);
  EXPECT_EQ(table[lq.head_slot(GpuId(0))].request.id, RequestId(1));
  auto popped = lq.pop_head(GpuId(0));
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->id, RequestId(1));
  EXPECT_EQ(table[lq.head_slot(GpuId(0))].request.id, RequestId(2));
  EXPECT_EQ(lq.size(GpuId(0)), 1u);
  EXPECT_FALSE(lq.pop_head(GpuId(1)).has_value() == false);
}

TEST(LocalQueuesTest, TotalPendingTracksEveryMutation) {
  // total_pending() is a maintained counter; it must equal the sum of the
  // per-GPU sizes through push, pop_head and a mid-queue unlink (a cancel,
  // hit or miss), over a table shared the way the engine shares it.
  Rng rng(0x10ca1);
  RequestTable table;
  LocalQueues lq(table, 4);
  std::int64_t next_id = 1;
  const auto sum_of_sizes = [&lq] {
    std::size_t total = 0;
    for (std::int64_t g = 0; g < 4; ++g) total += lq.size(GpuId(g));
    return total;
  };
  for (int op = 0; op < 400; ++op) {
    const GpuId gpu(static_cast<std::int64_t>(rng.next_below(4)));
    const std::uint64_t dice = rng.next_below(10);
    if (dice < 5) {
      lq.push(gpu, make_request(next_id++, 0, op));
    } else if (dice < 8) {
      lq.pop_head(gpu);
    } else {
      const auto id = rng.next_below(static_cast<std::uint64_t>(next_id));
      const auto slot = table.find(RequestId(1 + static_cast<std::int64_t>(id)));
      if (slot != RequestTable::kNone) {
        lq.unlink(slot);
        table.release(slot);
      }
    }
    ASSERT_EQ(lq.total_pending(), sum_of_sizes()) << "op " << op;
    ASSERT_EQ(table.size(), lq.total_pending()) << "op " << op;
  }
  EXPECT_GT(lq.total_pending(), 0u);
}

TEST(SchedulerFactoryTest, NamesAndKinds) {
  EXPECT_EQ(make_scheduler(PolicyName::kLb)->name(), "LB");
  EXPECT_EQ(make_scheduler(PolicyName::kLalb)->name(), "LALB");
  EXPECT_EQ(make_scheduler(PolicyName::kLalbO3, 25)->name(), "LALBO3");
  EXPECT_EQ(policy_display_name(PolicyName::kLalbO3), "LALBO3");
  auto lalb = make_scheduler(PolicyName::kLalb);
  EXPECT_EQ(static_cast<LalbScheduler*>(lalb.get())->o3_limit(), 0);
}

// --- policy behaviour on a live 2-GPU cluster ---

class PolicyBehaviourTest : public ::testing::Test {
 protected:
  // 1 node x 2 GPUs; models 0/1/2 from the catalog head (squeezenet1.1,
  // resnet18, resnet34): loads 2.41/2.52/2.60 s, infers 1.28/1.25/1.25 s.
  models::ModelRegistry small_registry() { return testkit::head_registry(3); }

  cluster::ClusterConfig config_for(PolicyName policy, int o3_limit = 25) {
    return testkit::ClusterBuilder()
        .policy(policy)
        .o3_limit(o3_limit)
        .config();
  }

  const CompletionRecord& completion_of(cluster::SimCluster& cluster,
                                        std::int64_t request_id) {
    return testkit::completion_of(cluster, request_id);
  }
};

TEST_F(PolicyBehaviourTest, FirstRequestIsAlwaysMiss) {
  for (PolicyName policy : {PolicyName::kLb, PolicyName::kLalb, PolicyName::kLalbO3}) {
    cluster::SimCluster cluster(config_for(policy), small_registry());
    cluster.replay({make_request(0, 0, 0)});
    const auto& record = completion_of(cluster, 0);
    EXPECT_FALSE(record.cache_hit);
    EXPECT_FALSE(record.false_miss);
    // Latency = load + inference (empty system).
    EXPECT_NEAR(sim_to_seconds(record.latency()), 2.41 + 1.28, 0.05);
  }
}

TEST_F(PolicyBehaviourTest, LalbReusesCachedModelOnIdleGpu) {
  cluster::SimCluster cluster(config_for(PolicyName::kLalb), small_registry());
  cluster.replay({make_request(0, 0, 0), make_request(1, 0, sec(10))});
  const auto& second = completion_of(cluster, 1);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.gpu, completion_of(cluster, 0).gpu);
  EXPECT_NEAR(sim_to_seconds(second.latency()), 1.28, 0.05);
}

TEST_F(PolicyBehaviourTest, LalbWaitsOnBusyHolderWhenCheaperThanLoad) {
  // Warm model0 on one GPU; then two back-to-back model0 requests. The
  // second arrives while the holder runs the first: waiting (~1.28s)
  // beats re-uploading (2.41s), so it must queue locally, not replicate.
  cluster::SimCluster cluster(config_for(PolicyName::kLalb), small_registry());
  cluster.replay({make_request(0, 0, 0), make_request(1, 0, sec(10)),
                  make_request(2, 0, sec(10) + msec(100))});
  const auto& third = completion_of(cluster, 2);
  EXPECT_TRUE(third.cache_hit);
  EXPECT_TRUE(third.via_local_queue);
  EXPECT_EQ(third.gpu, completion_of(cluster, 1).gpu);
}

TEST_F(PolicyBehaviourTest, LalbAllowsFalseMissWhenWaitExceedsLoad) {
  // Stack three model0 requests on the holder: the last one sees wait
  // ~2*1.28s + remaining > load 2.41s, so Algorithm 2 dispatches it to
  // the idle GPU as a (false) miss, replicating the model.
  cluster::SimCluster cluster(config_for(PolicyName::kLalb), small_registry());
  cluster.replay({make_request(0, 0, 0), make_request(1, 0, sec(10)),
                  make_request(2, 0, sec(10) + msec(50)),
                  make_request(3, 0, sec(10) + msec(100))});
  const auto& fourth = completion_of(cluster, 3);
  EXPECT_FALSE(fourth.cache_hit);
  EXPECT_TRUE(fourth.false_miss);
  EXPECT_NE(fourth.gpu, completion_of(cluster, 1).gpu);
}

TEST_F(PolicyBehaviourTest, LbNeverUsesLocalQueues) {
  cluster::SimCluster cluster(config_for(PolicyName::kLb), small_registry());
  std::vector<Request> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(make_request(i, i % 2, msec(100 * i)));
  }
  cluster.replay(requests);
  for (const auto& record : cluster.engine().completions()) {
    EXPECT_FALSE(record.via_local_queue);
  }
}

TEST_F(PolicyBehaviourTest, O3PromotesCachedRequestOverEarlierUncached) {
  // Single GPU holding model0. While it runs a blocker, two requests
  // queue: first reqC for the uncached model2, then reqD for the cached
  // model0. O3 promotes reqD past reqC (out-of-order hit); in-order LALB
  // serves reqC first and delays reqD behind model2's upload.
  cluster::ClusterConfig config = config_for(PolicyName::kLalbO3);
  config.gpus_per_node = 1;
  const SimTime burst = sec(30);
  std::vector<Request> requests = {
      make_request(0, 0, 0),              // warm model0
      make_request(1, 0, burst),          // blocker: hit, GPU busy ~1.28s
      make_request(2, 2, burst + usec(1)),  // reqC: uncached model2
      make_request(3, 0, burst + usec(2))};  // reqD: cached model0

  cluster::SimCluster o3(config, small_registry());
  o3.replay(requests);
  EXPECT_TRUE(completion_of(o3, 3).cache_hit);
  // The promotion: reqD dispatched before the earlier-arrived reqC.
  EXPECT_LT(completion_of(o3, 3).dispatched, completion_of(o3, 2).dispatched);

  cluster::ClusterConfig inorder_config = config;
  inorder_config.policy = PolicyName::kLalb;
  cluster::SimCluster inorder(inorder_config, small_registry());
  inorder.replay(requests);
  // In-order: reqC goes first, so reqD waits behind model2's load.
  EXPECT_GE(completion_of(inorder, 2).dispatched, completion_of(inorder, 3).arrival);
  EXPECT_LT(completion_of(inorder, 2).dispatched, completion_of(inorder, 3).dispatched);
  EXPECT_GT(completion_of(inorder, 3).latency(), completion_of(o3, 3).latency());
}

TEST_F(PolicyBehaviourTest, O3StarvationLimitForcesDispatch) {
  // Single GPU, limit 1. model1 request (uncached) is repeatedly bypassed
  // by model0 hits, but must be force-placed once skipped > limit times.
  cluster::ClusterConfig config = config_for(PolicyName::kLalbO3, /*o3_limit=*/1);
  config.gpus_per_node = 1;
  cluster::SimCluster cluster(config, small_registry());
  const SimTime burst = sec(30);
  std::vector<Request> requests = {
      make_request(0, 0, 0),       // warm model0
      make_request(9, 0, burst),   // blocker keeps the GPU busy
      // Queued while busy: [m1 (starving), m0, m0, m0].
      make_request(1, 1, burst + usec(1)), make_request(2, 0, burst + usec(2)),
      make_request(3, 0, burst + usec(3)), make_request(4, 0, burst + usec(4))};
  cluster.replay(requests);
  const auto& starving = completion_of(cluster, 1);
  const auto& last_hit = completion_of(cluster, 4);
  // The starving request is dispatched before the final model0 request:
  // it was bypassed at most (limit + 1) times.
  EXPECT_LT(starving.dispatched, last_hit.dispatched);
  EXPECT_FALSE(starving.cache_hit);
  // And at least one model0 request was promoted ahead of it.
  EXPECT_LT(completion_of(cluster, 2).dispatched, starving.dispatched);
}

TEST_F(PolicyBehaviourTest, LbDispatchesStrictlyInArrivalOrder) {
  cluster::SimCluster cluster(config_for(PolicyName::kLb), small_registry());
  const SimTime burst = sec(30);
  std::vector<Request> requests = {make_request(0, 0, 0),
                                   make_request(1, 1, burst),
                                   make_request(2, 0, burst + usec(1)),
                                   make_request(3, 2, burst + usec(2))};
  cluster.replay(requests);
  SimTime prev = -1;
  for (std::int64_t id = 1; id <= 3; ++id) {
    const SimTime d = completion_of(cluster, id).dispatched;
    EXPECT_GE(d, prev);
    prev = d;
  }
}


// --- reference: the snapshot-walk O3 policy ---

// LALB+O3 as it was before the successor walk and the holder bitsets:
// Algorithm 1 over an upfront copy of the idle order, revisiting every
// snapshot entry even after the global queue drains, with Algorithm 2
// over a holder list built by probing every GPU id in ascending order,
// one GPU at a time through the context's lookups. Kept here only as the
// oracle for the production walk.
class SnapshotWalkO3 final : public SchedulingPolicy {
 public:
  SnapshotWalkO3(int o3_limit, std::int64_t gpu_count)
      : o3_limit_(o3_limit), gpu_count_(gpu_count) {}
  std::string name() const override { return "SnapshotWalkO3"; }

  void schedule(SchedulingContext& ctx) override {
    std::vector<GpuId> idle_snapshot;
    for (GpuId g = ctx.first_idle_gpu(); g.valid();
         g = ctx.next_idle_gpu(ctx.dispatch_count(g), g)) {
      idle_snapshot.push_back(g);
    }
    const GlobalQueue& queue = ctx.global_queue();
    for (GpuId gpu_i : idle_snapshot) {
      if (!ctx.is_idle(gpu_i)) continue;
      if (!ctx.local_queues().empty(gpu_i)) {
        ctx.dispatch_from_local(gpu_i);
        continue;
      }
      bool dispatched = false;
      for (auto it = queue.begin(); it != queue.end();) {
        const auto next = std::next(it);
        if (ctx.cache().is_cached(gpu_i, it->model)) {
          ctx.dispatch_from_global(it->id, gpu_i, /*false_miss=*/false);
          dispatched = true;
          break;
        }
        if (it->visits > o3_limit_) {
          if (locality_load_balance(ctx, gpu_i, it->id) || !ctx.is_idle(gpu_i)) {
            dispatched = true;
            break;
          }
          it = next;
          continue;
        }
        ctx.mutable_global_queue().bump_visits(it->id);
        it = next;
      }
      if (dispatched) continue;
      for (auto it = queue.begin(); it != queue.end();) {
        const auto next = std::next(it);
        if (locality_load_balance(ctx, gpu_i, it->id)) break;
        if (!ctx.is_idle(gpu_i)) break;
        it = next;
      }
    }
  }

 private:
  static GpuId best_idle_holder(const SchedulingContext& ctx,
                                const std::vector<GpuId>& holders, GpuId exclude) {
    GpuId best;
    std::int64_t best_count = -1;
    for (GpuId gpu : holders) {
      if (gpu == exclude || !ctx.is_idle(gpu)) continue;
      if (ctx.dispatch_count(gpu) > best_count) {
        best_count = ctx.dispatch_count(gpu);
        best = gpu;
      }
    }
    return best;
  }

  bool locality_load_balance(SchedulingContext& ctx, GpuId gpu_i, RequestId request) {
    const ModelId model = ctx.global_queue().find(request)->model;
    std::vector<GpuId> holders;
    for (std::int64_t id = 0; id < gpu_count_; ++id) {
      const GpuId gpu(id);
      if (!ctx.cache().is_fenced(gpu) && ctx.cache().is_cached(gpu, model)) {
        holders.push_back(gpu);
      }
    }
    if (holders.empty()) {
      ctx.dispatch_from_global(request, gpu_i, /*false_miss=*/false);
      return true;
    }
    const GpuId idle_holder = best_idle_holder(ctx, holders, gpu_i);
    if (idle_holder.valid()) {
      ctx.dispatch_from_global(request, idle_holder, /*false_miss=*/false);
      return false;
    }
    GpuId best_gpu;
    SimTime best_wait = kSimTimeMax;
    for (GpuId gpu_j : holders) {
      if (ctx.is_idle(gpu_j)) continue;
      const SimTime wait = ctx.estimated_finish_time(gpu_j) - ctx.now();
      if (wait < best_wait) {
        best_wait = wait;
        best_gpu = gpu_j;
      }
    }
    if (best_gpu.valid() && best_wait < ctx.load_time(model)) {
      ctx.move_to_local(request, best_gpu);
      return false;
    }
    ctx.dispatch_from_global(request, gpu_i, /*false_miss=*/true);
    return true;
  }

  int o3_limit_;
  std::int64_t gpu_count_;
};

// Replays the workload on `nodes` x 8 RTX 2080 (sharing a per-node PCIe
// link, LRU caches) driven by `policy`.
std::vector<CompletionRecord> replay_on_gpus(std::int64_t nodes,
                                             std::unique_ptr<SchedulingPolicy> policy,
                                             const trace::Workload& workload) {
  sim::Simulator sim;
  cache::CacheManager cache(cache::PolicyKind::kLru);
  std::vector<std::unique_ptr<gpu::PcieLink>> links;
  std::vector<std::unique_ptr<gpu::VirtualGpu>> gpus;
  std::vector<std::unique_ptr<cluster::GpuManager>> managers;
  std::vector<cluster::GpuManager*> manager_ptrs;
  const gpu::GpuSpec spec = gpu::rtx2080();
  for (std::int64_t node = 0; node < nodes; ++node) {
    links.push_back(std::make_unique<gpu::PcieLink>(spec.pcie_gbps, spec.pcie_latency));
    std::vector<gpu::VirtualGpu*> node_gpus;
    for (std::int64_t g = 0; g < 8; ++g) {
      const GpuId id(node * 8 + g);
      gpus.push_back(std::make_unique<gpu::VirtualGpu>(id, spec, links.back().get()));
      cache.add_gpu(id, gpus.back()->memory_capacity());
      node_gpus.push_back(gpus.back().get());
    }
    managers.push_back(std::make_unique<cluster::GpuManager>(
        NodeId(node), &sim, &cache, &workload.registry, node_gpus));
    manager_ptrs.push_back(managers.back().get());
  }
  cluster::SchedulerEngine engine(&sim, &cache, &workload.registry, manager_ptrs,
                                  std::move(policy));
  for (const Request& request : workload.requests) {
    sim.schedule_at(request.arrival, [&engine, request] { engine.submit(request); });
  }
  sim.run();
  EXPECT_EQ(engine.pending(), 0u);
  return engine.completions();
}

// Runs LALB+O3 and the snapshot-walk oracle on `nodes` x 8 GPUs and
// requires identical completion records. The load is ~1.4x the testbed's
// per-GPU rate over 1.5 models per GPU: the global queue backs up,
// requests age past the O3 limit, local queues fill and caches evict, so
// every branch of Algorithms 1 and 2 runs.
void expect_walks_match(std::int64_t nodes) {
  const std::int64_t gpus = nodes * 8;
  for (std::uint64_t seed : {1, 2, 3}) {
    trace::WorkloadConfig config;
    config.working_set_size = static_cast<std::size_t>(gpus * 3 / 2);
    config.window_minutes = 2;
    config.requests_per_minute = gpus * 75 / 2;
    config.seed = seed;
    auto workload = trace::build_standard_workload(config);
    ASSERT_TRUE(workload.ok()) << workload.status().to_string();

    const auto expected =
        replay_on_gpus(nodes, std::make_unique<SnapshotWalkO3>(25, gpus), *workload);
    const auto actual =
        replay_on_gpus(nodes, make_scheduler(PolicyName::kLalbO3, 25), *workload);
    ASSERT_EQ(actual.size(), workload->requests.size());
    ASSERT_EQ(actual.size(), expected.size());
    std::size_t local = 0, false_misses = 0, misses = 0;
    std::int64_t top_gpu = 0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
      const CompletionRecord& a = actual[i];
      const CompletionRecord& e = expected[i];
      ASSERT_EQ(a.id, e.id) << "seed " << seed << " record " << i;
      ASSERT_EQ(a.gpu, e.gpu) << "seed " << seed << " request " << a.id.value();
      ASSERT_EQ(a.dispatched, e.dispatched) << "seed " << seed;
      ASSERT_EQ(a.completed, e.completed) << "seed " << seed;
      ASSERT_EQ(a.cache_hit, e.cache_hit) << "seed " << seed;
      ASSERT_EQ(a.false_miss, e.false_miss) << "seed " << seed;
      ASSERT_EQ(a.via_local_queue, e.via_local_queue) << "seed " << seed;
      local += a.via_local_queue ? 1 : 0;
      false_misses += a.false_miss ? 1 : 0;
      misses += a.cache_hit ? 0 : 1;
      top_gpu = std::max(top_gpu, a.gpu.value());
    }
    EXPECT_GT(local, 0u) << "seed " << seed;
    EXPECT_GT(false_misses, 0u) << "seed " << seed;
    EXPECT_GT(misses, 0u) << "seed " << seed;
    EXPECT_EQ(top_gpu, gpus - 1) << "seed " << seed << ": the last GPU never ran";
  }
}

TEST(O3ReferenceTest, SuccessorWalkMatchesSnapshotWalkOn64Gpus) { expect_walks_match(8); }

// 136 GPUs span three bitset words, the last one partial.
TEST(O3ReferenceTest, SuccessorWalkMatchesSnapshotWalkOn136Gpus) {
  expect_walks_match(17);
}

}  // namespace
}  // namespace gfaas::core
