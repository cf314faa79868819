// Quickstart: serve GPU inference requests through the gFaaS Gateway in
// ~40 lines.
//
// What happens under the hood (paper Fig. 2): the Gateway stamps each
// request's arrival and SLO deadline and admits it; the Scheduler (LALB +
// out-of-order dispatch) places it on one of 12 virtual RTX 2080 GPUs;
// the Cache Manager keeps the model resident so repeat invocations skip
// the upload.
#include <cstdio>

#include "cluster/experiment.h"
#include "gateway/gateway.h"
#include "models/zoo.h"

using namespace gfaas;

int main() {
  // A 3-node x 4-GPU cluster (the paper's testbed) with LALB+O3
  // scheduling; inference timings follow the Table I profiles.
  const models::ModelRegistry registry = models::ModelRegistry::full_catalog();
  cluster::SimCluster cluster(cluster::ClusterConfig{}, registry);
  gateway::Gateway gateway(&cluster);

  // A function is a model to serve: requests name it by model id.
  const auto resnet50 = models::find_model("resnet50");
  if (!resnet50.ok()) {
    std::fprintf(stderr, "lookup failed: %s\n", resnet50.status().to_string().c_str());
    return 1;
  }
  std::printf("serving model '%s' through the gateway\n", resnet50->name.c_str());

  // Invoke it three times. The first pays the model upload (cold, ~4s);
  // the rest hit the GPU cache (~1.3s).
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    cluster.simulator().schedule_after(0, [&, i] {
      core::Request request;
      request.id = RequestId(i);
      request.model = resnet50->id;
      gateway.submit(std::move(request), [&, i](const gateway::GatewayResult& result) {
        if (result.disposition != gateway::Disposition::kCompleted) {
          std::fprintf(stderr, "invocation %d: %s\n", i,
                       gateway::disposition_name(result.disposition));
          return;
        }
        ++completed;
        std::printf("invocation %d: %.2fs on gpu-%lld (%s)\n", i,
                    sim_to_seconds(result.record.latency()),
                    static_cast<long long>(result.record.gpu.value()),
                    result.record.cache_hit ? "cache hit" : "cache miss: model uploaded");
      });
    });
    cluster.run_to_completion();
  }
  return completed == 3 ? 0 : 1;
}
