#include "models/latency_model.h"

#include <cmath>

#include "common/log.h"
#include "models/zoo.h"

namespace gfaas::models {

StatusOr<LinearFit> fit_linear(const std::vector<double>& xs,
                               const std::vector<double>& ys) {
  if (xs.size() != ys.size()) {
    return Status::InvalidArgument("fit_linear: size mismatch");
  }
  if (xs.size() < 2) {
    return Status::InvalidArgument("fit_linear: need at least 2 points");
  }
  const double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  if (denom == 0) {
    return Status::InvalidArgument("fit_linear: degenerate x values");
  }
  LinearFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double r = ys[i] - fit.predict(xs[i]);
    ss_res += r * r;
  }
  fit.r_squared = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

BatchLatencyModel::BatchLatencyModel(SimTime infer_time_b32, double alpha) {
  GFAAS_CHECK(infer_time_b32 > 0);
  GFAAS_CHECK(alpha >= 0.0 && alpha <= 1.0);
  const double t32 = static_cast<double>(infer_time_b32);
  fit_.intercept = alpha * t32;
  fit_.slope = (1.0 - alpha) * t32 / 32.0;
  fit_.r_squared = 1.0;
}

StatusOr<BatchLatencyModel> BatchLatencyModel::fit(
    const std::vector<std::int64_t>& batches, const std::vector<SimTime>& latencies) {
  std::vector<double> xs, ys;
  xs.reserve(batches.size());
  ys.reserve(latencies.size());
  for (auto b : batches) xs.push_back(static_cast<double>(b));
  for (auto t : latencies) ys.push_back(static_cast<double>(t));
  auto fit = fit_linear(xs, ys);
  if (!fit.ok()) return fit.status();
  BatchLatencyModel model;
  model.fit_ = *fit;
  return model;
}

SimTime BatchLatencyModel::predict(std::int64_t batch) const {
  GFAAS_CHECK(batch >= 1);
  const double t = fit_.predict(static_cast<double>(batch));
  return t > 0.5 ? static_cast<SimTime>(t + 0.5) : SimTime{1};
}

StatusOr<LoadTimeModel> LoadTimeModel::fit(const std::vector<ModelProfile>& profiles) {
  std::vector<double> xs, ys;
  for (const auto& p : profiles) {
    xs.push_back(static_cast<double>(p.occupation));
    ys.push_back(static_cast<double>(p.load_time));
  }
  auto fit = fit_linear(xs, ys);
  if (!fit.ok()) return fit.status();
  if (fit->slope <= 0) {
    return Status::InvalidArgument("load time must grow with model size");
  }
  LoadTimeModel model;
  model.fit_ = *fit;
  return model;
}

SimTime LoadTimeModel::predict(Bytes size) const {
  const double t = fit_.predict(static_cast<double>(size));
  return t > 0 ? static_cast<SimTime>(t + 0.5) : SimTime{1};
}

SimTime LoadTimeModel::base_cost() const {
  return static_cast<SimTime>(std::max(0.0, fit_.intercept) + 0.5);
}

double LoadTimeModel::bandwidth_bps() const {
  GFAAS_CHECK(fit_.slope > 0);
  // slope is µs per byte; bandwidth = 1/slope bytes per µs = 1e6/slope B/s.
  return 1e6 / fit_.slope;
}

}  // namespace gfaas::models
