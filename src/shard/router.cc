#include "shard/router.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"

namespace gfaas::shard {
namespace {

// SplitMix64 finalizer: the ring-point / routing hash. Stateless, so the
// router consumes no RNG stream (determinism guard).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

ShardRouter::ShardRouter(std::size_t shards, RouterConfig config)
    : shard_count_(shards), config_(config) {
  GFAAS_CHECK(shards > 0);
  GFAAS_CHECK(config.virtual_nodes > 0);
  common::MutexLock lock(&mu_);
  weights_.assign(shards, 1.0);
  rebuild();
}

std::uint64_t ShardRouter::model_point(ModelId model) const {
  return mix(static_cast<std::uint64_t>(model.value()) ^ config_.seed);
}

std::size_t ShardRouter::successor(std::uint64_t point) const {
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(point, std::uint32_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  return it == ring_.end() ? 0 : static_cast<std::size_t>(it - ring_.begin());
}

void ShardRouter::place_replicas(std::int64_t model, Replicas& replicas) const {
  // The first `copies` DISTINCT shards clockwise from the model's point.
  // A weight change elsewhere on the ring never reorders this walk, so
  // replicas are as sticky as single-copy routing; fewer live shards than
  // copies degrades gracefully to all of them.
  replicas.shards.clear();
  if (ring_.empty()) return;
  std::size_t at = successor(model_point(ModelId(model)));
  for (std::size_t steps = 0;
       steps < ring_.size() && replicas.shards.size() < replicas.copies; ++steps) {
    const std::uint32_t shard = ring_[at].second;
    if (std::find(replicas.shards.begin(), replicas.shards.end(), shard) ==
        replicas.shards.end()) {
      replicas.shards.push_back(shard);
    }
    if (++at == ring_.size()) at = 0;
  }
}

const std::vector<std::uint32_t>* ShardRouter::replicas(ModelId model) const {
  if (replication_.empty()) return nullptr;
  const auto found = replication_.find(model.value());
  return found == replication_.end() ? nullptr : &found->second.shards;
}

std::size_t ShardRouter::route(ModelId model, std::uint64_t salt) const {
  common::MutexLock lock(&mu_);
  if (ring_.empty()) return 0;  // every shard weightless: degenerate pick
  const std::uint64_t point = model_point(model);
  if (const std::vector<std::uint32_t>* shards = replicas(model)) {
    return (*shards)[mix(salt ^ point) % shards->size()];
  }
  return ring_[successor(point)].second;
}

std::size_t ShardRouter::route_by_backlog(
    ModelId model, std::uint64_t salt,
    const std::vector<std::size_t>& backlog) const {
  GFAAS_CHECK(backlog.size() == shard_count_);
  common::MutexLock lock(&mu_);
  if (ring_.empty()) return 0;
  const std::uint64_t point = model_point(model);
  const std::vector<std::uint32_t>* shards = replicas(model);
  if (shards == nullptr) return ring_[successor(point)].second;
  const std::uint64_t hash = mix(salt ^ point);
  const std::uint32_t picked = (*shards)[hash % shards->size()];
  std::uint32_t lightest = picked;
  for (const std::uint32_t shard : *shards) {
    if (backlog[shard] < backlog[lightest]) lightest = shard;
  }
  if (lightest == picked) return picked;
  // backlog[picked] > backlog[lightest] >= 0, so the sum is positive.
  const std::size_t gap = backlog[picked] - backlog[lightest];
  const std::size_t sum = backlog[picked] + backlog[lightest];
  return mix(hash) % sum < gap ? lightest : picked;
}

void ShardRouter::set_replication(ModelId model, std::uint32_t copies) {
  common::MutexLock lock(&mu_);
  if (copies <= 1) {
    replication_.erase(model.value());
    return;
  }
  Replicas& replicas = replication_[model.value()];
  replicas.copies = std::min(copies, static_cast<std::uint32_t>(shard_count_));
  place_replicas(model.value(), replicas);
}

std::uint32_t ShardRouter::replication(ModelId model) const {
  common::MutexLock lock(&mu_);
  const auto found = replication_.find(model.value());
  return found == replication_.end() ? 1 : found->second.copies;
}

void ShardRouter::set_weight(std::size_t shard, double weight) {
  GFAAS_CHECK(shard < shard_count_);
  GFAAS_CHECK(weight >= 0.0);
  common::MutexLock lock(&mu_);
  if (weights_[shard] == weight) return;
  weights_[shard] = weight;
  rebuild();
}

void ShardRouter::set_weights(const std::vector<double>& weights) {
  GFAAS_CHECK(weights.size() == shard_count_);
  common::MutexLock lock(&mu_);
  weights_ = weights;
  rebuild();
}

std::vector<double> ShardRouter::weights() const {
  common::MutexLock lock(&mu_);
  return weights_;
}

std::vector<std::size_t> ShardRouter::ring_share() const {
  common::MutexLock lock(&mu_);
  std::vector<std::size_t> share(shard_count_, 0);
  for (const auto& [point, shard] : ring_) ++share[shard];
  return share;
}

void ShardRouter::rebuild() {
  ring_.clear();
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const auto points = static_cast<std::size_t>(
        std::llround(weights_[s] * config_.virtual_nodes));
    for (std::size_t k = 0; k < points; ++k) {
      // Point identity depends only on (shard, k, seed): growing a
      // shard's weight ADDS points, shrinking REMOVES its highest-k
      // points, and no other shard's points ever move — the consistent-
      // hashing property the rebalancing hooks rely on. The +1 domain-
      // separates ring points from model points: with a bare s, shard
      // 0's k-th point is mix(k ^ seed) — the model-point formula — so
      // every model id below virtual_nodes would land EXACTLY on a
      // shard-0 point and the whole working set would route there.
      const std::uint64_t point =
          mix(((static_cast<std::uint64_t>(s) + 1) << 32 | k) ^ config_.seed);
      ring_.emplace_back(point, static_cast<std::uint32_t>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
  for (auto& [model, replicas] : replication_) place_replicas(model, replicas);
}

}  // namespace gfaas::shard
