// Micro-benchmarks (google-benchmark) for the hot components of the
// scheduling path: event queue throughput, LRU policy ops, datastore
// put/get of the cache mirror's LRU key, global-queue model-index lookups,
// and one LALBO3 scheduling decision on a loaded cluster.
#include <benchmark/benchmark.h>

#include "cache/policy.h"
#include "cluster/experiment.h"
#include "common/rng.h"
#include "datastore/keys.h"
#include "datastore/kv_store.h"
#include "sim/simulator.h"
#include "tensor/model_builder.h"
#include "trace/workload.h"

using namespace gfaas;

static void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int counter = 0;
    for (int i = 0; i < n; ++i) {
      sim.schedule_at((i * 7919) % 100000, [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(10000);

static void BM_LruPolicyAccess(benchmark::State& state) {
  cache::LruPolicy lru;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) lru.on_insert(ModelId(i));
  Rng rng(1);
  for (auto _ : state) {
    lru.on_access(ModelId(static_cast<std::int64_t>(rng.next_below(n))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruPolicyAccess)->Arg(8)->Arg(64);

static void BM_KvStorePutGet(benchmark::State& state) {
  // The one key shape the serving path writes: the Cache Manager's
  // per-GPU LRU list.
  datastore::KvStore store;
  Rng rng(2);
  const std::string value = datastore::keys::encode_id_list({3, 17, 5, 29, 11});
  for (auto _ : state) {
    const std::string key =
        datastore::keys::gpu_lru(GpuId(static_cast<std::int64_t>(rng.next_below(32))));
    store.put(key, value);
    benchmark::DoNotOptimize(store.get(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvStorePutGet);

static void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(4);
  tensor::Conv2d conv(3, 8, 3, 1, 1, rng);
  tensor::Tensor input = tensor::Tensor::randn({1, 3, 32, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(input));
  }
}
BENCHMARK(BM_Conv2dForward);

static void BM_FullExperimentWS15(benchmark::State& state) {
  trace::WorkloadConfig wconfig;
  wconfig.working_set_size = 15;
  wconfig.window_minutes = 1;  // shortened window keeps iterations fast
  auto workload = trace::build_standard_workload(wconfig);
  for (auto _ : state) {
    cluster::ClusterConfig config;
    config.policy = core::PolicyName::kLalbO3;
    benchmark::DoNotOptimize(cluster::run_experiment(config, *workload));
  }
  state.SetItemsProcessed(state.iterations() * workload->requests.size());
}
BENCHMARK(BM_FullExperimentWS15)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
