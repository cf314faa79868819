// The paper's Table I model catalog and per-model profiles.
//
// Table I lists 22 production CNNs with (a) occupation size in GPU memory
// when inference runs at batch 32 — the size the Cache Manager uses for
// replacement decisions, (b) model loading time, and (c) inference latency
// at batch 32. The catalog below reproduces those numbers exactly; they
// parameterize the virtual GPU's load/inference timing so the scheduling
// experiments see the same cost structure the paper measured.
//
// Each profile also carries a scaled-down tensor::CnnConfig so the same
// model identity can be *really executed* on the CPU engine (the runtime
// profiler and the image-classification example do).
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/id.h"
#include "common/status.h"
#include "common/time.h"
#include "tensor/model_builder.h"

namespace gfaas::models {

struct ModelProfile {
  ModelId id;
  std::string name;
  tensor::CnnFamily family = tensor::CnnFamily::kResNet;
  // Peak occupation in GPU memory at batch 32 (Table I "Size (MB)").
  Bytes occupation = 0;
  // Model loading (host -> GPU upload + process init) time (Table I).
  SimTime load_time = 0;
  // Inference latency at batch 32 (Table I).
  SimTime infer_time_b32 = 0;
  // Scaled-down architecture for real CPU execution.
  tensor::CnnConfig runtime_config;
};

// The full Table I catalog (22 models), ids 0..21 in the paper's row order.
const std::vector<ModelProfile>& table1_catalog();

// Looks up a catalog entry by name ("resnet50", "vgg16.bn", ...).
StatusOr<ModelProfile> find_model(const std::string& name);

// Registry mapping ModelId -> profile; experiments register the subset of
// the catalog they use (e.g. the top-K working set).
class ModelRegistry {
 public:
  // Registers a profile; id must be unique.
  Status register_model(const ModelProfile& profile);

  StatusOr<ModelProfile> get(ModelId id) const;
  StatusOr<ModelProfile> get_by_name(const std::string& name) const;
  bool contains(ModelId id) const;
  std::size_t size() const { return profiles_.size(); }
  const std::vector<ModelProfile>& all() const { return profiles_; }

  // Convenience: registry preloaded with the whole Table I catalog.
  static ModelRegistry full_catalog();

 private:
  std::vector<ModelProfile> profiles_;  // indexed lookups scan; N <= 22
};

}  // namespace gfaas::models
