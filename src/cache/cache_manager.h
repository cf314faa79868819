// Global Cache Manager (paper §III-D).
//
// Treats the models uploaded to each GPU's memory as cache items. Each
// GPU's memory is managed with a separate replacement list (scalability
// note in §VI); a global model -> GPUs index answers the Scheduler's
// "where is this model cached" query (also §VI). The index is one GPU
// bitset per model (common/gpu_bitset.h) plus a per-model holder count:
// the Scheduler intersects a model's holders with the idle GPUs word by
// word, a bit scan yields them in ascending id order, and
// cached_anywhere()/duplicate_count() read the count. Bitset storage
// grows only when a GPU id or a model id is first seen, never per
// insertion or eviction. On a miss the manager plans the victim list —
// enough models, in policy order, to make room for the incoming one — and
// the GPU Manager kills those processes. Models currently running a
// request are pinned and skipped by eviction planning.
//
// A GPU's entries are the one record of the models it holds and their
// bytes (the device keeps only timing); each turns loaded when the GPU
// Manager reports its upload finished (record_load). A dispatch looks its
// entry up once (acquire): a hit is counted, refreshed and pinned in that
// one lookup.
//
// State is mirrored into the Datastore (gpu/<id>/lru and
// model/<id>/locations) after every mutation, exactly the channel the
// paper routes through etcd.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/policy.h"
#include "common/bytes.h"
#include "common/gpu_bitset.h"
#include "common/id.h"
#include "common/status.h"
#include "datastore/kv_store.h"

namespace gfaas::cache {

struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;

  double miss_ratio() const {
    const std::int64_t total = hits + misses;
    return total > 0 ? static_cast<double>(misses) / static_cast<double>(total) : 0.0;
  }
};

// What a dispatch finds on its GPU (acquire): no entry, a loaded model,
// or an entry whose upload was aborted and must be redone.
enum class Residency { kMiss, kLoaded, kUnloaded };

// Cache bookkeeping for one GPU.
class GpuCacheState {
 public:
  GpuCacheState(GpuId gpu, Bytes capacity, PolicyKind policy);

  GpuId gpu() const { return gpu_; }
  Bytes capacity() const { return capacity_; }
  Bytes used() const { return used_; }
  Bytes free() const { return capacity_ - used_; }

  bool contains(ModelId model) const;
  std::size_t model_count() const { return resident_.size(); }
  // Replacement order, evict-first first.
  std::vector<ModelId> eviction_order() const { return policy_->eviction_order(); }

  Status insert(ModelId model, Bytes size);  // starts unloaded
  // A hit's one entry lookup: refreshes the replacement order, pins the
  // model and reports its loaded bit. kMiss (nothing changes) when the
  // model is not resident.
  Residency acquire(ModelId model);
  Status remove(ModelId model);
  Status mark_loaded(ModelId model);
  bool loaded(ModelId model) const;  // false when not resident

  // Pins nest; only resident models can be pinned. The count lives in the
  // model's resident entry, so pinning allocates nothing.
  void pin(ModelId model);
  void unpin(ModelId model);
  int pins(ModelId model) const;  // 0 when not resident
  bool pinned(ModelId model) const { return pins(model) > 0; }
  bool any_pinned() const { return pinned_models_ > 0; }

  // Resident models in ascending id order (drain/fence enumeration).
  std::vector<ModelId> models() const;

  // Victims (in policy order, skipping pinned models) whose removal frees
  // at least `needed` bytes beyond current free space. Fails if even
  // evicting everything unpinned would not fit.
  StatusOr<std::vector<ModelId>> plan_eviction(Bytes needed) const;

  Bytes size_of(ModelId model) const;

  // Fenced for drain: the GPU's entries are out of the location index.
  bool fenced() const { return fenced_; }
  void set_fenced(bool fenced) { fenced_ = fenced; }

  // CHECKs used bytes (<= capacity) and the pinned-model count against
  // the entries' sizes and pins.
  void audit() const;

 private:
  GpuId gpu_;
  Bytes capacity_;
  Bytes used_ = 0;
  bool fenced_ = false;
  std::unique_ptr<EvictionPolicy> policy_;
  struct Resident {
    Bytes size = 0;
    int pins = 0;
    bool loaded = false;
  };
  std::unordered_map<std::int64_t, Resident> resident_;  // by model id
  // Resident models with pins > 0.
  std::size_t pinned_models_ = 0;
};

class CacheManager {
 public:
  // `store` receives LRU-list / location mirrors; may be null in unit
  // tests that exercise the manager standalone.
  CacheManager(PolicyKind policy, datastore::KvStore* store = nullptr);

  // Registers a GPU's memory as a managed cache (called at cluster build,
  // or by the autoscaler when a cold-started GPU joins the fleet).
  void add_gpu(GpuId gpu, Bytes capacity);
  std::size_t gpu_count() const;

  // --- dynamic membership (elastic fleets, src/autoscale) ---
  // Fences a draining GPU: its entries leave the model -> GPUs location
  // index (so the Scheduler stops routing toward its cached models), while
  // the per-GPU state stays live for the in-flight request's pin/unpin and
  // hit bookkeeping. holders()/locations()/cached_anywhere()/
  // duplicate_count() never report fenced holders.
  void fence_gpu(GpuId gpu);
  // Reverses fence_gpu (aborted scale-down): entries rejoin the index.
  void unfence_gpu(GpuId gpu);
  // Retires a fenced GPU, evicting all resident models. No model may be
  // pinned (i.e. the GPU must have drained its in-flight work first).
  void remove_gpu(GpuId gpu);
  // False for a removed (or never added) GPU.
  bool is_fenced(GpuId gpu) const {
    return is_registered(gpu) && gpus_[static_cast<std::size_t>(gpu.value())]->fenced();
  }
  bool is_registered(GpuId gpu) const {
    const auto index = static_cast<std::size_t>(gpu.value());
    return gpu.valid() && index < gpus_.size() && gpus_[index] != nullptr;
  }

  // --- queries used by the Scheduler ---
  bool is_cached(GpuId gpu, ModelId model) const;
  // The unfenced GPUs that hold the model, as a bitset over GPU ids read
  // in place from the global model -> GPUs index (§VI): no copy, never a
  // GPU scan. Valid until the next insertion, eviction or membership
  // change.
  GpuBits holders(ModelId model) const {
    const auto m = static_cast<std::size_t>(model.value());
    return model.valid() && m < holder_counts_.size()
               ? GpuBits(holder_words_.data() + m * stride_, stride_)
               : GpuBits();
  }
  // The same holders as a list in ascending id order (tests, diagnostics).
  std::vector<GpuId> locations(ModelId model) const;
  // Whether the model is cached on ANY gpu (false-miss accounting). O(1).
  bool cached_anywhere(ModelId model) const { return duplicate_count(model) > 0; }

  // --- mutations driven by the GPU Manager ---
  // A dispatch's one lookup of the model on the GPU. On a hit it counts
  // the hit, refreshes the replacement order and pins the model for the
  // execution, and reports whether its upload finished. On a miss
  // (kMiss) nothing changes.
  Residency acquire(GpuId gpu, ModelId model);
  // Plans the victims needed to fit `size` on the GPU (may be empty).
  StatusOr<std::vector<ModelId>> plan_eviction(GpuId gpu, Bytes size) const;
  // Applies an eviction decided by plan_eviction.
  Status record_eviction(GpuId gpu, ModelId model);
  // Records a model whose upload starts now; it is resident (a hit for
  // the Scheduler) but not loaded until record_load.
  Status record_insertion(GpuId gpu, ModelId model, Bytes size);
  // Records that the model's upload finished.
  Status record_load(GpuId gpu, ModelId model);

  // Pins while a request is using the model (in queue or running) so the
  // model under execution can never be chosen as a victim.
  Status pin(GpuId gpu, ModelId model);
  Status unpin(GpuId gpu, ModelId model);

  const GpuCacheState& state(GpuId gpu) const;

  // Audits every GPU's state and CHECKs the location index against the
  // unfenced GPUs' resident sets.
  void audit() const;
  CacheStats& stats() { return stats_; }
  const CacheStats& stats() const { return stats_; }

  // Number of unfenced GPUs holding each model, for the duplicate-count
  // metric (Fig. 6 tracks the most popular model's duplicates). O(1).
  std::size_t duplicate_count(ModelId model) const {
    const auto m = static_cast<std::size_t>(model.value());
    return model.valid() && m < holder_counts_.size() ? holder_counts_[m] : 0;
  }

 private:
  GpuCacheState& mutable_state(GpuId gpu);
  // Checked holder-index maintenance (bit flip, count, datastore mirror);
  // every index mutation funnels through these two.
  void index_location(GpuId gpu, ModelId model);
  void deindex_location(GpuId gpu, ModelId model);
  void mirror_to_store(GpuId gpu);
  void mirror_locations(ModelId model);

  PolicyKind policy_;
  datastore::KvStore* store_;
  // Indexed by GpuId value; removed GPUs leave a null slot (ids are never
  // reused, matching ClusterStateIndex).
  std::vector<std::unique_ptr<GpuCacheState>> gpus_;
  // Global model -> holder-GPU index, maintained on insertion/eviction:
  // model m's bitset is words [m * stride_, (m + 1) * stride_), and
  // holder_counts_[m] its population. Model ids are dense from 0
  // (trace::Workload numbers them so); a model id past the end has no
  // holders. stride_ covers every GPU id ever added.
  std::size_t stride_ = 0;
  std::vector<std::uint64_t> holder_words_;
  std::vector<std::uint32_t> holder_counts_;
  CacheStats stats_;
};

}  // namespace gfaas::cache
