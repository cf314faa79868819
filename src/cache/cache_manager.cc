#include "cache/cache_manager.h"

#include <algorithm>

#include "common/log.h"
#include "datastore/keys.h"

namespace gfaas::cache {

GpuCacheState::GpuCacheState(GpuId gpu, Bytes capacity, PolicyKind policy)
    : gpu_(gpu), capacity_(capacity), policy_(make_policy(policy)) {
  GFAAS_CHECK(capacity > 0);
}

bool GpuCacheState::contains(ModelId model) const {
  return resident_.count(model.value()) > 0;
}

Status GpuCacheState::insert(ModelId model, Bytes size) {
  if (contains(model)) {
    return Status::AlreadyExists("model " + std::to_string(model.value()) +
                                 " already cached on gpu " +
                                 std::to_string(gpu_.value()));
  }
  if (size <= 0) return Status::InvalidArgument("model size must be positive");
  if (size > free()) {
    return Status::ResourceExhausted(
        "model " + std::to_string(model.value()) + " (" + format_bytes(size) +
        ") exceeds free space " + format_bytes(free()));
  }
  resident_[model.value()].size = size;
  used_ += size;
  policy_->on_insert(model);
  return Status::Ok();
}

Residency GpuCacheState::acquire(ModelId model) {
  auto it = resident_.find(model.value());
  if (it == resident_.end()) return Residency::kMiss;
  policy_->on_access(model);
  if (it->second.pins++ == 0) ++pinned_models_;
  return it->second.loaded ? Residency::kLoaded : Residency::kUnloaded;
}

Status GpuCacheState::remove(ModelId model) {
  auto it = resident_.find(model.value());
  if (it == resident_.end()) {
    return Status::NotFound("model " + std::to_string(model.value()) + " not cached");
  }
  if (it->second.pins > 0) {
    return Status::FailedPrecondition("model " + std::to_string(model.value()) +
                                      " is pinned");
  }
  used_ -= it->second.size;
  resident_.erase(it);
  policy_->on_remove(model);
  return Status::Ok();
}

void GpuCacheState::pin(ModelId model) {
  auto it = resident_.find(model.value());
  GFAAS_CHECK(it != resident_.end()) << "pin of uncached model " << model.value();
  if (it->second.pins++ == 0) ++pinned_models_;
}

void GpuCacheState::unpin(ModelId model) {
  auto it = resident_.find(model.value());
  GFAAS_CHECK(it != resident_.end() && it->second.pins > 0)
      << "unpin without pin for model " << model.value();
  if (--it->second.pins == 0) --pinned_models_;
}

Status GpuCacheState::mark_loaded(ModelId model) {
  auto it = resident_.find(model.value());
  if (it == resident_.end()) {
    return Status::NotFound("model " + std::to_string(model.value()) + " not cached");
  }
  it->second.loaded = true;
  return Status::Ok();
}

bool GpuCacheState::loaded(ModelId model) const {
  auto it = resident_.find(model.value());
  return it != resident_.end() && it->second.loaded;
}

int GpuCacheState::pins(ModelId model) const {
  auto it = resident_.find(model.value());
  return it == resident_.end() ? 0 : it->second.pins;
}

StatusOr<std::vector<ModelId>> GpuCacheState::plan_eviction(Bytes needed) const {
  if (needed <= free()) return std::vector<ModelId>{};
  Bytes reclaimable = free();
  std::vector<ModelId> victims;
  for (ModelId victim : policy_->eviction_order()) {
    if (pinned(victim)) continue;
    victims.push_back(victim);
    reclaimable += size_of(victim);
    if (reclaimable >= needed) return victims;
  }
  return Status::ResourceExhausted(
      "cannot free " + format_bytes(needed) + " on gpu " + std::to_string(gpu_.value()) +
      " (only " + format_bytes(reclaimable) + " reclaimable)");
}

Bytes GpuCacheState::size_of(ModelId model) const {
  auto it = resident_.find(model.value());
  return it == resident_.end() ? 0 : it->second.size;
}

std::vector<ModelId> GpuCacheState::models() const {
  std::vector<ModelId> out;
  out.reserve(resident_.size());
  for (const auto& [id, entry] : resident_) out.push_back(ModelId(id));
  std::sort(out.begin(), out.end());
  return out;
}

void GpuCacheState::audit() const {
  Bytes used = 0;
  std::size_t pinned = 0;
  for (const auto& [id, entry] : resident_) {
    GFAAS_CHECK(entry.size > 0 && entry.pins >= 0) << "bad entry for model " << id;
    used += entry.size;
    if (entry.pins > 0) ++pinned;
  }
  GFAAS_CHECK(used == used_ && used_ <= capacity_ && pinned == pinned_models_)
      << "gpu " << gpu_.value() << " records " << used_ << " of " << capacity_
      << " bytes and " << pinned_models_ << " pinned models; entries hold " << used
      << " bytes, " << pinned << " pinned";
}

CacheManager::CacheManager(PolicyKind policy, datastore::KvStore* store)
    : policy_(policy), store_(store) {}

void CacheManager::add_gpu(GpuId gpu, Bytes capacity) {
  GFAAS_CHECK(gpu.valid());
  const auto index = static_cast<std::size_t>(gpu.value());
  if (gpus_.size() <= index) gpus_.resize(index + 1);
  GFAAS_CHECK(gpus_[index] == nullptr) << "gpu " << gpu.value() << " already added";
  gpus_[index] = std::make_unique<GpuCacheState>(gpu, capacity, policy_);
  // Widen every model's bitset when the new id starts a word.
  const std::size_t stride = gpu_words_for(gpus_.size());
  if (stride == stride_) return;
  std::vector<std::uint64_t> words(holder_counts_.size() * stride, 0);
  for (std::size_t m = 0; m < holder_counts_.size(); ++m) {
    std::copy_n(holder_words_.begin() + static_cast<std::ptrdiff_t>(m * stride_), stride_,
                words.begin() + static_cast<std::ptrdiff_t>(m * stride));
  }
  holder_words_ = std::move(words);
  stride_ = stride;
}

std::size_t CacheManager::gpu_count() const {
  std::size_t count = 0;
  for (const auto& state : gpus_) {
    if (state != nullptr) ++count;
  }
  return count;
}

void CacheManager::index_location(GpuId gpu, ModelId model) {
  GFAAS_CHECK(model.valid()) << "invalid model id";
  const auto m = static_cast<std::size_t>(model.value());
  if (m >= holder_counts_.size()) {  // first sight of this model id
    holder_counts_.resize(m + 1, 0);
    holder_words_.resize(holder_counts_.size() * stride_, 0);
  }
  std::uint64_t& word = holder_words_[m * stride_ + gpu_word(gpu)];
  GFAAS_CHECK((word & gpu_mask(gpu)) == 0)
      << "location index out of sync for model " << model.value();
  word |= gpu_mask(gpu);
  ++holder_counts_[m];
  mirror_locations(model);
}

void CacheManager::deindex_location(GpuId gpu, ModelId model) {
  GFAAS_CHECK(holders(model).test(gpu))
      << "location index out of sync for model " << model.value();
  const auto m = static_cast<std::size_t>(model.value());
  holder_words_[m * stride_ + gpu_word(gpu)] &= ~gpu_mask(gpu);
  --holder_counts_[m];
  mirror_locations(model);
}

std::vector<GpuId> CacheManager::locations(ModelId model) const {
  std::vector<GpuId> out;
  out.reserve(duplicate_count(model));
  holders(model).for_each([&out](GpuId gpu) { out.push_back(gpu); });
  return out;
}

void CacheManager::fence_gpu(GpuId gpu) {
  GpuCacheState& st = mutable_state(gpu);
  GFAAS_CHECK(!st.fenced()) << "gpu " << gpu.value() << " already fenced";
  st.set_fenced(true);
  for (ModelId model : st.models()) deindex_location(gpu, model);
}

void CacheManager::unfence_gpu(GpuId gpu) {
  GpuCacheState& st = mutable_state(gpu);
  GFAAS_CHECK(st.fenced()) << "gpu " << gpu.value() << " is not fenced";
  st.set_fenced(false);
  for (ModelId model : st.models()) index_location(gpu, model);
}

void CacheManager::remove_gpu(GpuId gpu) {
  GFAAS_CHECK(is_fenced(gpu)) << "gpu " << gpu.value() << " must be fenced first";
  GpuCacheState& st = mutable_state(gpu);
  GFAAS_CHECK(!st.any_pinned()) << "gpu " << gpu.value() << " removed with pinned model";
  // Resident models are already absent from locations_ (fenced); drop the
  // per-GPU state wholesale. These are decommission drops, not cache
  // pressure, so stats().evictions is not touched.
  for (ModelId model : st.models()) GFAAS_CHECK(st.remove(model).ok());
  gpus_[static_cast<std::size_t>(gpu.value())] = nullptr;
  if (store_ != nullptr) {
    store_->put(datastore::keys::gpu_lru(gpu), "");
  }
}

const GpuCacheState& CacheManager::state(GpuId gpu) const {
  const auto index = static_cast<std::size_t>(gpu.value());
  GFAAS_CHECK(index < gpus_.size() && gpus_[index] != nullptr)
      << "unknown gpu " << gpu.value();
  return *gpus_[index];
}

GpuCacheState& CacheManager::mutable_state(GpuId gpu) {
  return const_cast<GpuCacheState&>(state(gpu));
}

bool CacheManager::is_cached(GpuId gpu, ModelId model) const {
  return state(gpu).contains(model);
}

Residency CacheManager::acquire(GpuId gpu, ModelId model) {
  const Residency found = mutable_state(gpu).acquire(model);
  if (found == Residency::kMiss) return found;
  ++stats_.hits;
  mirror_to_store(gpu);
  return found;
}

StatusOr<std::vector<ModelId>> CacheManager::plan_eviction(GpuId gpu, Bytes size) const {
  return state(gpu).plan_eviction(size);
}

Status CacheManager::record_eviction(GpuId gpu, ModelId model) {
  Status s = mutable_state(gpu).remove(model);
  if (!s.ok()) return s;
  ++stats_.evictions;
  mirror_to_store(gpu);
  // A fenced GPU's entries were already pulled from the location index.
  if (!is_fenced(gpu)) deindex_location(gpu, model);
  return Status::Ok();
}

Status CacheManager::record_insertion(GpuId gpu, ModelId model, Bytes size) {
  GFAAS_CHECK(!is_fenced(gpu))
      << "insertion on fenced gpu " << gpu.value() << " (drain dispatched new work?)";
  Status s = mutable_state(gpu).insert(model, size);
  if (!s.ok()) return s;
  ++stats_.misses;
  mirror_to_store(gpu);
  index_location(gpu, model);
  return Status::Ok();
}

Status CacheManager::record_load(GpuId gpu, ModelId model) {
  return mutable_state(gpu).mark_loaded(model);
}

Status CacheManager::pin(GpuId gpu, ModelId model) {
  GpuCacheState& st = mutable_state(gpu);
  if (!st.contains(model)) {
    return Status::NotFound("cannot pin uncached model " + std::to_string(model.value()));
  }
  st.pin(model);
  return Status::Ok();
}

Status CacheManager::unpin(GpuId gpu, ModelId model) {
  GpuCacheState& st = mutable_state(gpu);
  if (!st.contains(model)) {
    return Status::NotFound("cannot unpin uncached model " +
                            std::to_string(model.value()));
  }
  st.unpin(model);
  return Status::Ok();
}

void CacheManager::audit() const {
  GFAAS_CHECK(stride_ == gpu_words_for(gpus_.size()) &&
              holder_words_.size() == holder_counts_.size() * stride_)
      << "holder bitsets are " << stride_ << " words wide for " << gpus_.size()
      << " gpu ids";
  std::vector<std::uint64_t> expected(holder_words_.size(), 0);
  for (const auto& st : gpus_) {
    if (st == nullptr) continue;
    st->audit();
    if (st->fenced()) continue;
    for (ModelId model : st->models()) {
      const auto m = static_cast<std::size_t>(model.value());
      GFAAS_CHECK(m < holder_counts_.size())
          << "model " << model.value() << " is cached on gpu " << st->gpu().value()
          << " but has no holder bitset";
      expected[m * stride_ + gpu_word(st->gpu())] |= gpu_mask(st->gpu());
    }
  }
  GFAAS_CHECK(expected == holder_words_)
      << "holder bitsets out of sync with the per-gpu resident sets";
  for (std::size_t m = 0; m < holder_counts_.size(); ++m) {
    std::size_t bits = 0;
    for (std::size_t i = 0; i < stride_; ++i) {
      bits += static_cast<std::size_t>(__builtin_popcountll(expected[m * stride_ + i]));
    }
    GFAAS_CHECK(bits == holder_counts_[m])
        << "model " << m << " counts " << holder_counts_[m] << " holders of " << bits;
  }
}

void CacheManager::mirror_to_store(GpuId gpu) {
  if (store_ == nullptr) return;
  std::vector<std::int64_t> ids;
  for (ModelId m : state(gpu).eviction_order()) ids.push_back(m.value());
  store_->put(datastore::keys::gpu_lru(gpu), datastore::keys::encode_id_list(ids));
}

void CacheManager::mirror_locations(ModelId model) {
  if (store_ == nullptr) return;
  std::vector<std::int64_t> ids;
  ids.reserve(duplicate_count(model));
  holders(model).for_each([&ids](GpuId gpu) { ids.push_back(gpu.value()); });
  store_->put(datastore::keys::model_locations(model),
              datastore::keys::encode_id_list(ids));
}

}  // namespace gfaas::cache
