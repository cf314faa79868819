// Sets of GPU ids as 64-bit words: bit (id % 64) of word (id / 64) is the
// GPU with that id.
//
// The Scheduler's placement queries (paper §VI) are set intersections
// over GPU ids — a model's holders, the idle GPUs. As words, an
// intersection costs one AND per 64 GPUs, and a bit scan yields the
// members in ascending id order, the tie-break order LALB relies on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/id.h"

namespace gfaas {

constexpr std::size_t kGpusPerWord = 64;

// Words needed to hold ids [0, gpus).
constexpr std::size_t gpu_words_for(std::size_t gpus) {
  return (gpus + kGpusPerWord - 1) / kGpusPerWord;
}
inline std::size_t gpu_word(GpuId gpu) {
  return static_cast<std::size_t>(gpu.value()) / kGpusPerWord;
}
inline std::uint64_t gpu_mask(GpuId gpu) {
  return std::uint64_t{1} << (static_cast<std::size_t>(gpu.value()) % kGpusPerWord);
}
// The GPU of the lowest set bit of `w`, word `i` of a set (w != 0).
inline GpuId lowest_gpu(std::size_t i, std::uint64_t w) {
  return GpuId(static_cast<std::int64_t>(i * kGpusPerWord +
                                         static_cast<std::size_t>(__builtin_ctzll(w))));
}

// A read-only run of bitset words. Words past the end read as zero, so
// two sets of different widths combine word by word.
class GpuBits {
 public:
  GpuBits() = default;
  GpuBits(const std::uint64_t* words, std::size_t word_count)
      : words_(words), word_count_(word_count) {}

  std::size_t word_count() const { return word_count_; }
  std::uint64_t word(std::size_t i) const { return i < word_count_ ? words_[i] : 0; }
  bool test(GpuId gpu) const { return (word(gpu_word(gpu)) & gpu_mask(gpu)) != 0; }
  // Calls `visit(GpuId)` for each member in ascending id order.
  template <typename Visit>
  void for_each(Visit&& visit) const;

 private:
  const std::uint64_t* words_ = nullptr;
  std::size_t word_count_ = 0;
};

// Calls `visit(GpuId)` for every set bit of `word_at(0)` ..
// `word_at(word_count - 1)`, in ascending id order. `word_at` combines
// sets, e.g. `a.word(i) & b.word(i)`.
template <typename WordAt, typename Visit>
void for_each_gpu(std::size_t word_count, WordAt&& word_at, Visit&& visit) {
  for (std::size_t i = 0; i < word_count; ++i) {
    for (std::uint64_t w = word_at(i); w != 0; w &= w - 1) visit(lowest_gpu(i, w));
  }
}

template <typename Visit>
void GpuBits::for_each(Visit&& visit) const {
  for_each_gpu(word_count_, [this](std::size_t i) { return words_[i]; }, visit);
}

// Lowest GPU id set in `word_at(0)` .. `word_at(word_count - 1)`, invalid
// if none.
template <typename WordAt>
GpuId first_gpu(std::size_t word_count, WordAt&& word_at) {
  for (std::size_t i = 0; i < word_count; ++i) {
    const std::uint64_t w = word_at(i);
    if (w != 0) return lowest_gpu(i, w);
  }
  return GpuId();
}

// An owning GPU set. It allocates only when grow_to() widens it.
class GpuBitset {
 public:
  // Makes room for ids [0, gpus).
  void grow_to(std::size_t gpus) {
    if (gpu_words_for(gpus) > words_.size()) words_.resize(gpu_words_for(gpus));
  }
  void set(GpuId gpu) { words_[gpu_word(gpu)] |= gpu_mask(gpu); }
  void reset(GpuId gpu) { words_[gpu_word(gpu)] &= ~gpu_mask(gpu); }
  bool test(GpuId gpu) const { return bits().test(gpu); }
  std::size_t count() const {
    std::size_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }
  GpuBits bits() const { return GpuBits(words_.data(), words_.size()); }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace gfaas
