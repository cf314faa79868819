// Per-request lifecycle spans: sampled, bounded, allocation-free.
//
// Every instrumented layer reports lifecycle events (submit -> admit/shed
// -> queue -> dispatch -> model-load -> execute -> retry/hedge ->
// complete) keyed by request id. A deterministic hash of the id decides
// once, identically at every layer, whether a request is sampled — no RNG
// stream is consumed, so enabling spans cannot perturb a seeded
// experiment, and the same ids are sampled on every run with the same
// seed. Sampled events land in a preallocated ring that overwrites the
// oldest record when full; an optional sink observes every sampled event
// as it is recorded.
//
// Threading: record() must be called from the executor worker thread (the
// same single-threaded discipline as the Gateway and engine state it
// instruments); snapshot() is for post-run or on-worker inspection.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/time.h"

namespace gfaas::telemetry {

enum class SpanEvent : std::uint8_t {
  kSubmit,     // request entered the gateway
  kAdmit,      // admission window granted, forwarded to the engine
  kQueue,      // parked in the gateway pending queue
  kShed,       // rejected by admission control
  kExpired,    // dropped from the pending queue past its deadline
  kDispatch,   // engine placed it on a GPU (detail: via-local-queue bit)
  kModelLoad,  // dispatch required a cold model load (detail: load time, µs)
  kExecute,    // execution finished on the GPU (detail: cache-hit bit)
  kRetry,      // gateway re-submitted after a GPU failure
  kHedge,      // gateway launched a duplicate against the straggler
  kComplete,   // resolved back to the client successfully
  kFail,       // resolved back to the client as failed
  kSteal,      // work-steal moved it to another shard (detail: target shard)
};

const char* span_event_name(SpanEvent event);

struct SpanRecord {
  std::int64_t request = 0;
  SimTime at = 0;
  SpanEvent event = SpanEvent::kSubmit;
  std::int32_t gpu = -1;     // -1 when no GPU is involved
  std::int32_t shard = -1;   // owning shard (the recorder's; -1 unsharded)
  std::int64_t detail = 0;   // event-specific payload (see SpanEvent)
};

struct SpanRecorderConfig {
  std::size_t capacity = 4096;     // ring size, preallocated
  double sample_rate = 1.0 / 64;   // fraction of request ids sampled
  std::uint64_t seed = 0x5DEECE66DULL;  // perturbs which ids are sampled
};

class SpanRecorder {
 public:
  explicit SpanRecorder(SpanRecorderConfig config = {});

  // Deterministic per-id sampling decision (pure function of id + seed).
  bool sampled(std::int64_t request_id) const {
    if (sample_threshold_ == ~0ULL) return true;
    SplitMix64 hash(static_cast<std::uint64_t>(request_id) ^ config_.seed);
    return hash.next() < sample_threshold_;
  }

  // Records one event if the id is sampled. Wait-free, allocation-free.
  // Inline, so an unsampled id (most of them) costs one hash and no call.
  void record(std::int64_t request_id, SpanEvent event, SimTime at,
              std::int32_t gpu = -1, std::int64_t detail = 0) {
    if (sampled(request_id)) append(request_id, event, at, gpu, detail);
  }

  // Shard-id label: every record stamped from here on carries `shard` as
  // its owning shard (a stolen request's trail therefore reads kSteal on
  // the donor shard, then kDispatch/kExecute on the thief's). Set at
  // wiring time, before any record().
  void set_shard(std::int32_t shard) { shard_ = shard; }
  std::int32_t shard() const { return shard_; }

  // Observes every sampled event at record time (e.g. streaming to a
  // log). The sink runs on the recording thread; keep it cheap.
  void set_sink(std::function<void(const SpanRecord&)> sink) {
    sink_ = std::move(sink);
  }

  // Ring contents, oldest first.
  std::vector<SpanRecord> snapshot() const;

  std::int64_t recorded() const { return recorded_; }
  std::int64_t overwritten() const { return overwritten_; }
  const SpanRecorderConfig& config() const { return config_; }

 private:
  void append(std::int64_t request_id, SpanEvent event, SimTime at,
              std::int32_t gpu, std::int64_t detail);

  SpanRecorderConfig config_;
  std::int32_t shard_ = -1;
  std::uint64_t sample_threshold_;  // ids hashing below this are sampled
  std::vector<SpanRecord> ring_;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;
  std::int64_t recorded_ = 0;
  std::int64_t overwritten_ = 0;
  std::function<void(const SpanRecord&)> sink_;
};

}  // namespace gfaas::telemetry
