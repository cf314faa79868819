// Latency estimation for scheduling decisions.
//
// §IV-A of the paper: "The latencies of uploading the model and running
// the inference are collected by profiling each unique model ... The
// upload time depends on only the model size; the inference time depends
// on the model and the batch size which can be profiled using simple
// regression methods."
//
// This module provides (a) ordinary least-squares linear regression, (b) a
// per-model batch-size -> inference-time model anchored at the Table I
// batch-32 measurement, and (c) a size -> load-time model fitted across
// the catalog (base process-start cost + effective upload bandwidth).
#pragma once

#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/time.h"

namespace gfaas::models {

struct ModelProfile;

// Ordinary least squares fit of y = intercept + slope * x.
struct LinearFit {
  double intercept = 0;
  double slope = 0;
  double r_squared = 0;

  double predict(double x) const { return intercept + slope * x; }
};

StatusOr<LinearFit> fit_linear(const std::vector<double>& xs,
                               const std::vector<double>& ys);

// Inference latency vs batch size for one model.
//
// GPU inference cost decomposes into a batch-independent part (kernel
// launches, framework overhead) and a batch-proportional part. We anchor
// at the profiled batch-32 latency T32 and split it with base fraction
// `alpha`: t(b) = alpha*T32 + (1-alpha)*T32 * b/32. The default alpha=0.6
// reflects that Table I latencies vary little across models at batch 32
// (launch-dominated on these CNNs).
class BatchLatencyModel {
 public:
  explicit BatchLatencyModel(SimTime infer_time_b32, double alpha = 0.6);

  // Construction by regression over profiled (batch, latency) points.
  static StatusOr<BatchLatencyModel> fit(const std::vector<std::int64_t>& batches,
                                         const std::vector<SimTime>& latencies);

  // Rounded to whole µs and never below 1 µs: the cluster index reads
  // positive local-queue work as "a request is parked".
  SimTime predict(std::int64_t batch) const;
  const LinearFit& fit_params() const { return fit_; }

 private:
  BatchLatencyModel() = default;
  LinearFit fit_;  // x = batch size, y = latency in µs
};

// Load time vs model size, fitted across catalog profiles:
// t_load = base + size / bandwidth. bench_table1_models reports the fit;
// the scheduler reads each model's profiled load time instead.
class LoadTimeModel {
 public:
  // Fits across the given profiles (needs >= 2 distinct sizes).
  static StatusOr<LoadTimeModel> fit(const std::vector<ModelProfile>& profiles);

  SimTime predict(Bytes size) const;
  // Base cost (process start + context init), µs.
  SimTime base_cost() const;
  // Effective upload bandwidth implied by the fit, bytes/second.
  double bandwidth_bps() const;

 private:
  LinearFit fit_;  // x = size in bytes, y = load time in µs
};

}  // namespace gfaas::models
