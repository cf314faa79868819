#include "testing/builders.h"

#include "common/log.h"
#include "models/zoo.h"

namespace gfaas::testkit {

core::Request make_request(std::int64_t id, std::int64_t model, SimTime arrival,
                           int batch) {
  core::Request r;
  r.id = RequestId(id);
  r.function = FunctionId(id);
  r.model = ModelId(model);
  r.batch = batch;
  r.arrival = arrival;
  return r;
}

std::vector<core::Request> make_request_sequence(std::int64_t count,
                                                 std::int64_t model_count,
                                                 SimTime start, SimTime gap,
                                                 int batch) {
  GFAAS_CHECK(model_count > 0) << "make_request_sequence needs >= 1 model";
  std::vector<core::Request> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    requests.push_back(make_request(i, i % model_count, start + gap * i, batch));
  }
  return requests;
}

models::ModelRegistry head_registry(int count) {
  const auto& catalog = models::table1_catalog();
  GFAAS_CHECK(count >= 0 && static_cast<std::size_t>(count) <= catalog.size())
      << "head_registry count out of catalog range: " << count;
  models::ModelRegistry registry;
  for (int i = 0; i < count; ++i) {
    const Status status =
        registry.register_model(catalog[static_cast<std::size_t>(i)]);
    GFAAS_CHECK(status.ok()) << "head_registry: " << status.to_string();
  }
  return registry;
}

trace::Workload make_workload(std::size_t working_set, std::uint64_t seed,
                              std::int64_t window_minutes) {
  trace::WorkloadConfig config;
  config.working_set_size = working_set;
  config.window_minutes = window_minutes;
  config.seed = seed;
  auto workload = trace::build_standard_workload(config, /*trace_seed=*/seed * 31 + 1);
  GFAAS_CHECK(workload.ok()) << "make_workload: " << workload.status().to_string();
  return *std::move(workload);
}

ClusterBuilder::ClusterBuilder() {
  config_.nodes = 1;
  config_.gpus_per_node = 2;
}

ClusterBuilder& ClusterBuilder::nodes(int n) {
  config_.nodes = n;
  return *this;
}

ClusterBuilder& ClusterBuilder::gpus_per_node(int n) {
  config_.gpus_per_node = n;
  return *this;
}

ClusterBuilder& ClusterBuilder::policy(core::PolicyName p) {
  config_.policy = p;
  return *this;
}

ClusterBuilder& ClusterBuilder::o3_limit(int limit) {
  config_.o3_limit = limit;
  return *this;
}

ClusterBuilder& ClusterBuilder::cache_policy(cache::PolicyKind kind) {
  config_.cache_policy = kind;
  return *this;
}

ClusterBuilder& ClusterBuilder::models(int count) {
  model_count_ = count;
  return *this;
}

std::unique_ptr<cluster::SimCluster> ClusterBuilder::build() const {
  return std::make_unique<cluster::SimCluster>(config_,
                                               head_registry(model_count_));
}

}  // namespace gfaas::testkit
