// The paper's Table I models on the CPU engine: a scaled-down topology per
// catalog model, and a profiler that measures real forward-pass latency
// across batch sizes and fits the regression of the paper's profiling
// procedure (§IV-A). Only bench_table1_models, the image-classification
// example and tests use them; the scheduler reads models::ModelRegistry.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "models/latency_model.h"
#include "models/zoo.h"
#include "tensor/model_builder.h"

namespace gfaas::tensor {

// One config per Table I model, keyed by catalog name: the model's family
// at a CPU-sized depth and width, 3 input channels, 10 classes, seed
// 0xC0FFEE ^ catalog id.
const std::map<std::string, CnnConfig>& table1_cnns();

struct ProfilePoint {
  std::int64_t batch;
  SimTime latency;
};

struct ProfileResult {
  ModelId model;
  std::vector<ProfilePoint> points;
  models::LinearFit fit;  // latency (µs) vs batch size
};

class Profiler {
 public:
  // Batch sizes to sweep; defaults mirror a typical profiling run.
  explicit Profiler(std::vector<std::int64_t> batches = {1, 2, 4, 8})
      : batches_(std::move(batches)) {}

  // Builds the model's runtime topology (looked up by catalog name) and
  // measures wall-clock forward latency per batch size (fastest of
  // `repeats` runs), then fits the regression.
  StatusOr<ProfileResult> profile(const models::ModelProfile& profile,
                                  int repeats = 3) const;

 private:
  std::vector<std::int64_t> batches_;
};

}  // namespace gfaas::tensor
