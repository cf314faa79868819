// Image classification service: a multi-model serving scenario with REAL
// computation. Clients submit image batches through the Gateway with
// Zipf-skewed model popularity; the scheduler places each request on a
// virtual GPU (simulated load + inference time), and every completed
// request's result callback runs an actual forward pass through a
// scaled-down CNN on the synthetic CIFAR-like images it carried.
//
// This mirrors the paper's motivating workload: several models deployed
// as independent functions, invoked by concurrent clients with skewed
// popularity.
#include <cstdio>
#include <map>

#include "cluster/experiment.h"
#include "common/rng.h"
#include "gateway/gateway.h"
#include "models/zoo.h"
#include "tensor/dataset.h"
#include "tensor/model_builder.h"
#include "tensor/table1.h"

using namespace gfaas;

int main() {
  // Deploy four classifier models, each backed by a real CNN.
  const char* model_names[] = {"squeezenet1.1", "resnet18", "alexnet", "densenet121"};
  models::ModelRegistry registry;
  std::map<std::int64_t, tensor::ModulePtr> nets;
  for (const char* name : model_names) {
    const auto profile = models::find_model(name);
    if (!profile.ok() || !registry.register_model(*profile).ok()) {
      std::fprintf(stderr, "cannot deploy %s\n", name);
      return 1;
    }
    nets[profile->id.value()] = tensor::build_cnn(tensor::table1_cnns().at(name));
  }
  std::printf("deployed %zu classifier models\n", registry.size());

  cluster::ClusterConfig config;  // paper testbed: 3 nodes x 4 GPUs
  cluster::SimCluster cluster(config, registry);
  gateway::Gateway gateway(&cluster);

  // Clients with Zipf-skewed model popularity, one request every 500ms.
  tensor::SyntheticImageDataset dataset(tensor::DatasetKind::kCifar10Like, 42);
  Rng rng(7);
  ZipfDistribution popularity(4, 1.1);
  int served = 0;
  int correct_shape = 0;
  const int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    const ModelId model = registry.all()[popularity.sample(rng)].id;
    tensor::Batch batch = dataset.make_batch(2);
    cluster.simulator().schedule_at(msec(500) * i, [&, i, model,
                                                    images = std::move(batch.images)] {
      core::Request request;
      request.id = RequestId(i);
      request.model = model;
      request.batch = images.dim(0);
      gateway.submit(std::move(request), [&, images](const gateway::GatewayResult& result) {
        if (result.disposition != gateway::Disposition::kCompleted) return;
        ++served;
        const tensor::Tensor probs = nets.at(result.record.model.value())->forward(images);
        if (probs.dim(0) == 2 && probs.dim(1) == 10) ++correct_shape;
      });
    });
  }
  cluster.run_to_completion();

  std::printf("\n%-16s %12s %16s %10s\n", "model", "completed", "avg latency(ms)", "slo met");
  for (const auto& [model, stats] : gateway.model_stats()) {
    std::printf("%-16s %12lld %16.2f %9.0f%%\n",
                registry.get(ModelId(model))->name.c_str(),
                static_cast<long long>(stats.completed), stats.latency_s.mean() * 1e3,
                stats.slo_attainment() * 100.0);
  }
  std::printf("\n%d/%d responses had the expected [2, 10] probability shape\n",
              correct_shape, kRequests);
  return served == kRequests && correct_shape == kRequests ? 0 : 1;
}
