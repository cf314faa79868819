#include "telemetry/trace_span.h"

#include <cmath>

#include "common/log.h"
#include "common/rng.h"

namespace gfaas::telemetry {

const char* span_event_name(SpanEvent event) {
  switch (event) {
    case SpanEvent::kSubmit:
      return "submit";
    case SpanEvent::kAdmit:
      return "admit";
    case SpanEvent::kQueue:
      return "queue";
    case SpanEvent::kShed:
      return "shed";
    case SpanEvent::kExpired:
      return "expired";
    case SpanEvent::kDispatch:
      return "dispatch";
    case SpanEvent::kModelLoad:
      return "model_load";
    case SpanEvent::kExecute:
      return "execute";
    case SpanEvent::kRetry:
      return "retry";
    case SpanEvent::kHedge:
      return "hedge";
    case SpanEvent::kComplete:
      return "complete";
    case SpanEvent::kFail:
      return "fail";
    case SpanEvent::kSteal:
      return "steal";
  }
  return "unknown";
}

namespace {

std::uint64_t sample_threshold_for(double rate) {
  if (rate >= 1.0) return ~0ULL;
  if (rate <= 0.0) return 0;
  // rate * 2^64, computed in long double to stay inside uint64 range.
  return static_cast<std::uint64_t>(
      std::ldexp(static_cast<long double>(rate), 64));
}

}  // namespace

SpanRecorder::SpanRecorder(SpanRecorderConfig config)
    : config_(config), sample_threshold_(sample_threshold_for(config.sample_rate)) {
  GFAAS_CHECK(config.capacity > 0);
  ring_.resize(config.capacity);
}

void SpanRecorder::append(std::int64_t request_id, SpanEvent event, SimTime at,
                          std::int32_t gpu, std::int64_t detail) {
  SpanRecord& slot = ring_[head_];
  if (size_ == ring_.size()) {
    ++overwritten_;
  } else {
    ++size_;
  }
  slot.request = request_id;
  slot.at = at;
  slot.event = event;
  slot.gpu = gpu;
  slot.shard = shard_;
  slot.detail = detail;
  head_ = (head_ + 1) % ring_.size();
  ++recorded_;
  if (sink_) sink_(slot);
}

std::vector<SpanRecord> SpanRecorder::snapshot() const {
  std::vector<SpanRecord> out;
  out.reserve(size_);
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

}  // namespace gfaas::telemetry
