#include "models/zoo.h"

#include "common/log.h"

namespace gfaas::models {

namespace {

struct Row {
  const char* name;
  std::int64_t size_mb;
  double load_s;
  double infer_s;
};

// Table I of the paper, in row order.
constexpr Row kTable1[] = {
    {"squeezenet1.1", 1269, 2.41, 1.28},
    {"resnet18", 1313, 2.52, 1.25},
    {"resnet34", 1357, 2.60, 1.25},
    {"squeezenet1.0", 1435, 2.32, 1.33},
    {"alexnet", 1437, 2.81, 1.25},
    {"resnext50.32x4d", 1555, 2.64, 1.29},
    {"densenet121", 1601, 2.49, 1.28},
    {"densenet169", 1631, 2.56, 1.30},
    {"densenet201", 1665, 2.67, 1.40},
    {"resnet50", 1701, 2.67, 1.28},
    {"resnet101", 1757, 2.95, 1.30},
    {"resnet152", 1827, 3.10, 1.31},
    {"densenet161", 1919, 2.75, 1.32},
    {"inception.v3", 2157, 4.42, 1.63},
    {"resnext101.32x8d", 2191, 3.51, 1.33},
    {"vgg11", 2903, 3.94, 1.29},
    {"wideresnet502", 3611, 3.16, 1.31},
    {"wideresnet1012", 3831, 3.91, 1.32},
    {"vgg13", 3887, 3.98, 1.30},
    {"vgg16", 3907, 4.04, 1.27},
    {"vgg16.bn", 3907, 4.03, 1.26},
    {"vgg19", 3947, 4.07, 1.33},
};

std::vector<ModelProfile> build_catalog() {
  std::vector<ModelProfile> out;
  for (const Row& row : kTable1) {
    const ModelId id(static_cast<std::int64_t>(out.size()));
    out.push_back({id, row.name, MB(row.size_mb), seconds_to_sim(row.load_s),
                   seconds_to_sim(row.infer_s)});
  }
  return out;
}

Status not_registered(ModelId id) {
  return Status::NotFound("model id " + std::to_string(id.value()) + " not registered");
}

}  // namespace

const std::vector<ModelProfile>& table1_catalog() {
  static const std::vector<ModelProfile> catalog = build_catalog();
  return catalog;
}

StatusOr<ModelProfile> find_model(const std::string& name) {
  for (const auto& p : table1_catalog()) {
    if (p.name == name) return p;
  }
  return Status::NotFound("no catalog model named " + name);
}

Status ModelRegistry::register_model(const ModelProfile& profile) {
  if (!profile.id.valid()) {
    return Status::InvalidArgument("model id is invalid");
  }
  if (contains(profile.id)) {
    return Status::AlreadyExists("model id " + std::to_string(profile.id.value()) +
                                 " already registered");
  }
  const auto id = static_cast<std::size_t>(profile.id.value());
  if (id >= position_by_id_.size()) position_by_id_.resize(id + 1, kNone);
  position_by_id_[id] = profiles_.size();
  profiles_.push_back(profile);
  batch_models_.emplace_back(profile.infer_time_b32);
  return Status::Ok();
}

StatusOr<ModelProfile> ModelRegistry::get(ModelId id) const {
  if (const std::size_t i = position(id); i != kNone) return profiles_[i];
  return not_registered(id);
}

StatusOr<Bytes> ModelRegistry::occupation(ModelId id) const {
  if (const std::size_t i = position(id); i != kNone) return profiles_[i].occupation;
  return not_registered(id);
}

StatusOr<SimTime> ModelRegistry::load_time(ModelId id) const {
  if (const std::size_t i = position(id); i != kNone) return profiles_[i].load_time;
  return not_registered(id);
}

StatusOr<SimTime> ModelRegistry::infer_time(ModelId id, std::int64_t batch) const {
  if (const std::size_t i = position(id); i != kNone) {
    return batch_models_[i].predict(batch);
  }
  return not_registered(id);
}

ModelRegistry ModelRegistry::full_catalog() {
  ModelRegistry registry;
  for (const auto& p : table1_catalog()) {
    GFAAS_CHECK(registry.register_model(p).ok());
  }
  return registry;
}

}  // namespace gfaas::models
