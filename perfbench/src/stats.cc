#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()) - 1e-9);
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double supported_tail(std::size_t n) {
  for (const double q : {0.99, 0.9, 0.5}) {
    // Samples strictly beyond the nearest-rank q quantile.
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
    if (n - std::min(rank, n) >= 10) return q;
  }
  return 0.0;
}

TailSummary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  TailSummary out;
  out.samples = samples.size();
  out.p50 = quantile(samples, 0.5);
  out.tail_q = supported_tail(samples.size());
  out.tail = quantile(samples, out.tail_q);
  return out;
}

int ladder_search(std::size_t rungs, const std::function<bool(std::size_t)>& holds) {
  // Invariant: every rung < lo holds, every rung >= hi fails.
  std::size_t lo = 0, hi = rungs;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (holds(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<int>(lo) - 1;
}

bool conserved(std::int64_t submitted, std::int64_t completed, std::int64_t shed,
               std::int64_t expired, std::int64_t failed) {
  return completed >= 0 && shed >= 0 && expired >= 0 && failed >= 0 &&
         submitted == completed + shed + expired + failed;
}

std::uint64_t completion_digest(
    const std::vector<gfaas::core::CompletionRecord>& records) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto add = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  };
  for (const auto& r : records) {
    add(static_cast<std::uint64_t>(r.id.value()));
    add(static_cast<std::uint64_t>(r.gpu.value()));
    add(static_cast<std::uint64_t>(r.arrival));
    add(static_cast<std::uint64_t>(r.dispatched));
    add(static_cast<std::uint64_t>(r.completed));
    add((r.cache_hit ? 1u : 0u) | (r.false_miss ? 2u : 0u) |
        (r.via_local_queue ? 4u : 0u) |
        (static_cast<std::uint64_t>(r.steal_hops) << 3));
  }
  return hash;
}

std::vector<std::string> self_test() {
  std::vector<std::string> failures;
  auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };

  // Percentile rule: the tail needs ten samples beyond it.
  expect(supported_tail(19) == 0.0, "19 samples support no percentile");
  expect(supported_tail(20) == 0.5, "20 samples support only the median");
  expect(supported_tail(99) == 0.5, "99 samples do not support p90");
  expect(supported_tail(100) == 0.9, "100 samples support p90");
  expect(supported_tail(999) == 0.9, "999 samples do not support p99");
  expect(supported_tail(1000) == 0.99, "1000 samples support p99");
  expect(supported_tail(1000000) == 0.99, "the tail is capped at p99");
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  std::reverse(ramp.begin(), ramp.end());
  const TailSummary s = summarize(ramp);
  expect(s.samples == 1000 && s.p50 == 500 && s.tail_q == 0.99 && s.tail == 990,
         "summarize(1..1000) gives p50 500, p99 990 over 1000 samples");
  const TailSummary small = summarize({3, 1, 2});
  expect(small.samples == 3 && small.p50 == 2 && small.tail_q == 0.0,
         "three samples report a median and no tail");
  expect(median({4, 1, 3, 2}) == 2.5 && median({5}) == 5 && median({}) == 0,
         "median of even, single and empty samples");

  // Ladder search: the highest holding rung below the first failure.
  for (int cut = -1; cut < 9; ++cut) {
    int calls = 0;
    const int got = ladder_search(9, [&](std::size_t i) {
      ++calls;
      return static_cast<int>(i) <= cut;
    });
    expect(got == cut, "ladder_search finds rung " + std::to_string(cut));
    expect(calls <= 4, "ladder_search on 9 rungs probes at most 4 of them");
  }
  expect(ladder_search(0, [](std::size_t) { return true; }) == -1,
         "an empty ladder has no capacity");

  // Conservation.
  expect(conserved(10, 7, 1, 1, 1), "7 + 1 + 1 + 1 conserves 10");
  expect(!conserved(10, 7, 1, 1, 0), "a lost request breaks conservation");
  expect(!conserved(10, 11, 0, 0, -1), "negative counts break conservation");

  // Digest: order- and field-sensitive.
  gfaas::core::CompletionRecord a;
  a.id = gfaas::RequestId(1);
  a.completed = 5;
  gfaas::core::CompletionRecord b = a;
  b.id = gfaas::RequestId(2);
  expect(completion_digest({a, b}) != completion_digest({b, a}),
         "digest depends on record order");
  gfaas::core::CompletionRecord c = a;
  c.cache_hit = true;
  expect(completion_digest({a}) != completion_digest({c}),
         "digest covers the hit flag");
  return failures;
}

}  // namespace perfbench
