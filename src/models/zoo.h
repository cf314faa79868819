// The paper's Table I model catalog and the per-model table the
// scheduler reads.
//
// Table I lists 22 production CNNs with (a) occupation size in GPU memory
// when inference runs at batch 32 — the size the Cache Manager uses for
// replacement decisions, (b) model loading time, and (c) inference latency
// at batch 32. The catalog below reproduces those numbers exactly; they
// parameterize the virtual GPU's load/inference timing so the scheduling
// experiments see the same cost structure the paper measured.
//
// The scaled-down CNNs that really execute these models on the CPU are
// keyed by catalog name in tensor/table1.h; nothing here links the CNN
// runtime.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/id.h"
#include "common/status.h"
#include "common/time.h"
#include "models/latency_model.h"

namespace gfaas::models {

struct ModelProfile {
  ModelId id;
  std::string name;
  // Peak occupation in GPU memory at batch 32 (Table I "Size (MB)").
  Bytes occupation = 0;
  // Model loading (host -> GPU upload + process init) time (Table I).
  SimTime load_time = 0;
  // Inference latency at batch 32 (Table I).
  SimTime infer_time_b32 = 0;
};

// The full Table I catalog (22 models), ids 0..21 in the paper's row order.
const std::vector<ModelProfile>& table1_catalog();

// Looks up a catalog entry by name ("resnet50", "vgg16.bn", ...).
StatusOr<ModelProfile> find_model(const std::string& name);

// Registry mapping ModelId -> profile; experiments register the subset of
// the catalog they use (e.g. the top-K working set). It is the one table
// the serving path reads for a model's size and latencies (§IV-A); its
// lookups go through an index by id and copy no profile.
class ModelRegistry {
 public:
  // Registers a profile; id must be unique.
  Status register_model(const ModelProfile& profile);

  StatusOr<ModelProfile> get(ModelId id) const;
  bool contains(ModelId id) const { return position(id) != kNone; }
  std::size_t size() const { return profiles_.size(); }
  // Registration order.
  const std::vector<ModelProfile>& all() const { return profiles_; }

  // Table I occupation (GPU memory at batch 32).
  StatusOr<Bytes> occupation(ModelId id) const;
  // Profiled load time (Table I).
  StatusOr<SimTime> load_time(ModelId id) const;
  // Inference time at the batch size: BatchLatencyModel(infer_time_b32).
  StatusOr<SimTime> infer_time(ModelId id, std::int64_t batch) const;

  // Convenience: registry preloaded with the whole Table I catalog.
  static ModelRegistry full_catalog();

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  // The model's position in profiles_, or kNone when it is not registered.
  std::size_t position(ModelId id) const {
    const auto i = static_cast<std::size_t>(id.value());
    return id.valid() && i < position_by_id_.size() ? position_by_id_[i] : kNone;
  }

  std::vector<ModelProfile> profiles_;
  std::vector<BatchLatencyModel> batch_models_;  // parallel to profiles_
  // By id value, kNone for a hole; ids (catalog rows, ranks) stay dense.
  std::vector<std::size_t> position_by_id_;
};

}  // namespace gfaas::models
