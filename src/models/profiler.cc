#include "models/profiler.h"

#include <algorithm>
#include <chrono>

#include "common/log.h"
#include "tensor/dataset.h"

namespace gfaas::models {

StatusOr<ProfileResult> Profiler::profile(const ModelProfile& profile,
                                          int repeats) const {
  if (batches_.empty() || repeats < 1) {
    return Status::InvalidArgument("profiler needs batches and repeats >= 1");
  }
  const tensor::ModulePtr net = tensor::build_cnn(profile.runtime_config);
  tensor::SyntheticImageDataset dataset(tensor::DatasetKind::kCifar10Like,
                                        /*seed=*/profile.runtime_config.seed);

  ProfileResult result;
  result.model = profile.id;
  for (std::int64_t batch : batches_) {
    tensor::Batch data = dataset.make_batch(batch);
    // Contention on a shared host can only make a run slower, so the
    // fastest run is the closest to the model's own cost.
    SimTime fastest = kSimTimeMax;
    for (int r = 0; r < repeats; ++r) {
      const auto start = std::chrono::steady_clock::now();
      const tensor::Tensor out = net->forward(data.images);
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
  auto fit = fit_linear(xs, ys);
  if (!fit.ok()) return fit.status();
  result.fit = *fit;
  return result;
}

}  // namespace gfaas::models
