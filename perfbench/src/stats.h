// The benchmark's own arithmetic: percentile rule, capacity ladder search,
// request conservation and the completion digest. self_test() checks each
// of them on hand-made inputs; every run calls it before measuring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/request.h"

namespace perfbench {

// Nearest-rank quantile of ascending samples (q in [0, 1]); 0 when empty.
double quantile(const std::vector<double>& sorted, double q);

// Median of unsorted samples; 0 when empty.
double median(std::vector<double> values);

// The percentile rule: the highest of {0.5, 0.9, 0.99} that still has at
// least ten samples beyond it among `n`, or 0 when not even the median
// does (n < 20).
double supported_tail(std::size_t n);

// Quantiles a latency metric reports: the median and the highest
// percentile the sample supports (capped at 0.99), with the sample count.
struct TailSummary {
  std::size_t samples = 0;
  double p50 = 0;
  double tail_q = 0;  // the percentile actually reported as the tail
  double tail = 0;
};
TailSummary summarize(std::vector<double> samples);

// Index of the highest rung of an ascending ladder at which `holds` is
// true, assuming it holds up to some rung and fails above it; -1 when it
// fails already at rung 0. Evaluates `holds` O(log rungs) times.
int ladder_search(std::size_t rungs, const std::function<bool(std::size_t)>& holds);

// Every submitted request ends in exactly one of the four dispositions.
bool conserved(std::int64_t submitted, std::int64_t completed, std::int64_t shed,
               std::int64_t expired, std::int64_t failed);

// FNV-1a over every field of the completion stream that scheduling can
// move (the same fields bench_seed_digest hashes).
std::uint64_t completion_digest(const std::vector<gfaas::core::CompletionRecord>& records);

// Checks the functions above; returns one line per failure.
std::vector<std::string> self_test();

}  // namespace perfbench
