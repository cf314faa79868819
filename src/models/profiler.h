// Runtime profiler: measures real forward-pass latency of the scaled-down
// CPU models across batch sizes and fits the same regression the paper's
// profiling procedure produces (§IV-A). Used by the real-time executor and
// by the heterogeneous-GPU ablation (per-GPU-type profiles).
#pragma once

#include <vector>

#include "common/status.h"
#include "models/latency_model.h"
#include "models/zoo.h"

namespace gfaas::models {

struct ProfilePoint {
  std::int64_t batch;
  SimTime latency;
};

struct ProfileResult {
  ModelId model;
  std::vector<ProfilePoint> points;
  LinearFit fit;  // latency (µs) vs batch size
};

class Profiler {
 public:
  // Batch sizes to sweep; defaults mirror a typical profiling run.
  explicit Profiler(std::vector<std::int64_t> batches = {1, 2, 4, 8})
      : batches_(std::move(batches)) {}

  // Builds the model's runtime topology and measures wall-clock forward
  // latency per batch size (fastest of `repeats` runs), then fits the
  // regression.
  StatusOr<ProfileResult> profile(const ModelProfile& profile, int repeats = 3) const;

 private:
  std::vector<std::int64_t> batches_;
};

}  // namespace gfaas::models
