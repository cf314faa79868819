// Quickstart: deploy and invoke a GPU-enabled ML inference function on a
// gFaaS cluster in ~40 lines.
//
// What happens under the hood (paper Fig. 2): the Gateway parses the
// Dockerfile's GPU-enable flag and reroutes the function's model-serving
// calls to the GPU Manager; the Scheduler (LALB + out-of-order dispatch)
// places each invocation on one of 12 virtual RTX 2080 GPUs; the Cache
// Manager keeps the model resident so repeat invocations skip the upload.
#include <cstdio>

#include "faas/faas_cluster.h"
#include "models/zoo.h"

using namespace gfaas;

int main() {
  // A 3-node x 4-GPU cluster (the paper's testbed) with LALB+O3
  // scheduling; inference timings follow the Table I profiles.
  faas::FaasCluster faas(cluster::ClusterConfig{}, models::ModelRegistry::full_catalog());

  // Register a function. The Dockerfile is all a user writes: the
  // GPU-enable flag + which model to serve.
  faas::FunctionSpec spec;
  spec.name = "classify-image";
  spec.dockerfile =
      "FROM gfaas/pytorch-runtime\n"
      "ENV GPU_ENABLED=1\n"
      "ENV GFAAS_MODEL=resnet50\n";
  if (auto status = faas.gateway().register_function(spec); !status.ok()) {
    std::fprintf(stderr, "register failed: %s\n", status.to_string().c_str());
    return 1;
  }
  std::printf("registered function '%s' (GPU-enabled, model resnet50)\n",
              spec.name.c_str());

  // Invoke it three times. The first pays the model upload (cold, ~4s);
  // the rest hit the GPU cache (~1.3s).
  for (int i = 0; i < 3; ++i) {
    faas.gateway().invoke(
        "classify-image", {}, [i](StatusOr<faas::InvocationResult> result) {
          if (!result.ok()) {
            std::fprintf(stderr, "invoke failed: %s\n",
                         result.status().to_string().c_str());
            return;
          }
          std::printf("invocation %d: %.2fs on %s (%s)\n", i,
                      sim_to_seconds(result->latency), result->executed_on.c_str(),
                      i == 0 ? "cache miss: model uploaded" : "cache hit");
        });
    faas.run_to_completion();
  }
  return 0;
}
