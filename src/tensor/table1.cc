#include "tensor/table1.h"

#include <algorithm>
#include <chrono>

#include "common/log.h"
#include "tensor/dataset.h"

namespace gfaas::tensor {

const std::map<std::string, CnnConfig>& table1_cnns() {
  static const std::map<std::string, CnnConfig> table = [] {
    // Table I row order. Depth and width describe the scaled-down topology
    // only; in_channels and num_classes keep their defaults (3 and 10).
    std::map<std::string, CnnConfig> rows = {
        {"squeezenet1.1", {CnnFamily::kSqueezeNet, 2, 6}},
        {"resnet18", {CnnFamily::kResNet, 2, 8}},
        {"resnet34", {CnnFamily::kResNet, 3, 8}},
        {"squeezenet1.0", {CnnFamily::kSqueezeNet, 3, 6}},
        {"alexnet", {CnnFamily::kAlexNet, 2, 8}},
        {"resnext50.32x4d", {CnnFamily::kResNeXt, 2, 8}},
        {"densenet121", {CnnFamily::kDenseNet, 2, 6}},
        {"densenet169", {CnnFamily::kDenseNet, 3, 6}},
        {"densenet201", {CnnFamily::kDenseNet, 4, 6}},
        {"resnet50", {CnnFamily::kResNet, 3, 10}},
        {"resnet101", {CnnFamily::kResNet, 4, 10}},
        {"resnet152", {CnnFamily::kResNet, 5, 10}},
        {"densenet161", {CnnFamily::kDenseNet, 3, 8}},
        {"inception.v3", {CnnFamily::kInception, 2, 6}},
        {"resnext101.32x8d", {CnnFamily::kResNeXt, 4, 10}},
        {"vgg11", {CnnFamily::kVgg, 2, 8}},
        {"wideresnet502", {CnnFamily::kWideResNet, 3, 8}},
        {"wideresnet1012", {CnnFamily::kWideResNet, 4, 8}},
        {"vgg13", {CnnFamily::kVgg, 3, 8}},
        {"vgg16", {CnnFamily::kVgg, 3, 10}},
        {"vgg16.bn", {CnnFamily::kVgg, 3, 10}},
        {"vgg19", {CnnFamily::kVgg, 4, 10}},
    };
    for (auto& [name, config] : rows) {
      const auto profile = models::find_model(name);
      GFAAS_CHECK(profile.ok()) << profile.status().to_string();
      config.seed = 0xC0FFEE ^ static_cast<std::uint64_t>(profile->id.value());
    }
    return rows;
  }();
  return table;
}

StatusOr<ProfileResult> Profiler::profile(const models::ModelProfile& profile,
                                          int repeats) const {
  if (batches_.empty() || repeats < 1) {
    return Status::InvalidArgument("profiler needs batches and repeats >= 1");
  }
  const auto config = table1_cnns().find(profile.name);
  if (config == table1_cnns().end()) {
    return Status::NotFound("no runtime CNN for model " + profile.name);
  }
  const ModulePtr net = build_cnn(config->second);
  SyntheticImageDataset dataset(DatasetKind::kCifar10Like, /*seed=*/config->second.seed);

  ProfileResult result;
  result.model = profile.id;
  for (std::int64_t batch : batches_) {
    Batch data = dataset.make_batch(batch);
    // Contention on a shared host can only make a run slower, so the
    // fastest run is the closest to the model's own cost.
    SimTime fastest = kSimTimeMax;
    for (int r = 0; r < repeats; ++r) {
      const auto start = std::chrono::steady_clock::now();
      const Tensor out = net->forward(data.images);
      const auto end = std::chrono::steady_clock::now();
      GFAAS_CHECK(out.numel() > 0);
      fastest = std::min<SimTime>(
          fastest,
          std::chrono::duration_cast<std::chrono::microseconds>(end - start).count());
    }
    result.points.push_back(ProfilePoint{batch, fastest});
  }

  std::vector<double> xs, ys;
  for (const auto& pt : result.points) {
    xs.push_back(static_cast<double>(pt.batch));
    ys.push_back(static_cast<double>(pt.latency));
  }
  auto fit = models::fit_linear(xs, ys);
  if (!fit.ok()) return fit.status();
  result.fit = *fit;
  return result;
}

}  // namespace gfaas::tensor
