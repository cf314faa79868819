#include "faas/faas_cluster.h"

#include <string>

namespace gfaas::faas {

FaasCluster::FaasCluster(const cluster::ClusterConfig& config,
                         const models::ModelRegistry& registry)
    : registry_(registry) {
  cluster_ = std::make_unique<cluster::SimCluster>(config, registry);
  gateway_ = std::make_unique<Gateway>(&cluster_->datastore(), &cluster_->simulator(),
                                       this);
}

void FaasCluster::submit(const FunctionSpec& spec, const Payload& input,
                         std::function<void(StatusOr<InvocationResult>)> done) {
  auto profile = registry_.get_by_name(spec.model_name);
  if (!profile.ok()) {
    done(profile.status());
    return;
  }
  core::Request request;
  request.id = RequestId(next_request_++);
  request.function = FunctionId(request.id.value());
  request.model = profile->id;
  request.batch = spec.batch_size > 0 ? spec.batch_size : 32;
  if (!input.shape.empty()) request.batch = input.shape.front();
  request.arrival = cluster_->simulator().now();
  request.on_complete = [done = std::move(done)](
                            const core::CompletionRecord& record) {
    // The hook also fires for requests whose GPU died mid-run
    // (SchedulerEngine::kill_gpu): report the failure instead of
    // fabricating a successful invocation.
    if (record.failed) {
      done(Status::Unavailable("gpu-" + std::to_string(record.gpu.value()) +
                               " died while executing request " +
                               std::to_string(record.id.value())));
      return;
    }
    InvocationResult result;
    result.latency = record.latency();
    result.executed_on = "gpu-" + std::to_string(record.gpu.value());
    result.output.content_type = "application/x-gfaas-inference";
    done(std::move(result));
  };
  cluster_->engine().submit(std::move(request));
}

}  // namespace gfaas::faas
