#include "trace/clients.h"

#include <string>
#include <utility>

#include "common/log.h"

namespace gfaas::trace {

namespace {

core::Request make_client_request(std::int64_t id, std::size_t model,
                                  const ClientConfig& config) {
  core::Request request;
  request.id = RequestId(id);
  request.function = FunctionId(static_cast<std::int64_t>(model));
  request.model = ModelId(static_cast<std::int64_t>(model));
  request.batch = config.batch_size;
  // arrival and deadline are stamped by the serving layer at submission.
  return request;
}

}  // namespace

OpenLoopClient::OpenLoopClient(sim::Executor* executor, ClientSink sink,
                               ClientConfig config, std::vector<std::int64_t> rates)
    : executor_(executor),
      sink_(std::move(sink)),
      config_(config),
      rates_(std::move(rates)),
      popularity_(config.model_count, config.zipf_s),
      rng_(config.seed),
      next_id_(config.first_request_id) {
  GFAAS_CHECK(executor_ != nullptr && sink_ != nullptr);
  GFAAS_CHECK(config_.model_count >= 1 && config_.batch_size >= 1);
  for (const std::int64_t rate : rates_) GFAAS_CHECK(rate >= 0);
}

void OpenLoopClient::start() {
  start_time_ = executor_->now();
  if (!rates_.empty()) {
    executor_->schedule_after(0, [this] { generate_minute(0); });
  }
}

SimTime OpenLoopClient::horizon() const {
  GFAAS_CHECK(start_time_ >= 0) << "horizon() before start(): the schedule is "
                                   "anchored to the clock at start";
  return start_time_ + minutes(static_cast<std::int64_t>(rates_.size()));
}

void OpenLoopClient::generate_minute(std::size_t minute) {
  // Draw this minute's arrivals now, schedule them as offsets from the
  // minute boundary, and chain the next minute — nothing about later
  // minutes exists yet (open loop, lazily generated).
  const std::int64_t count = rates_[minute];
  for (std::int64_t i = 0; i < count; ++i) {
    const SimTime offset = static_cast<SimTime>(
        rng_.next_below(static_cast<std::uint64_t>(minutes(1))));
    core::Request request =
        make_client_request(next_id_++, popularity_.sample(rng_), config_);
    executor_->schedule_after(offset, [this, request]() mutable {
      ++submitted_;
      sink_(std::move(request), [this] { ++completed_; });
    });
  }
  if (minute + 1 < rates_.size()) {
    executor_->schedule_after(minutes(1),
                              [this, minute] { generate_minute(minute + 1); });
  }
}

ClosedLoopClient::ClosedLoopClient(sim::Executor* executor, ClientSink sink,
                                   ClientConfig config, std::size_t users,
                                   SimTime think_time, SimTime duration)
    : executor_(executor),
      sink_(std::move(sink)),
      config_(config),
      users_(users),
      think_time_(think_time),
      duration_(duration),
      popularity_(config.model_count, config.zipf_s),
      rng_(config.seed),
      next_id_(config.first_request_id) {
  GFAAS_CHECK(executor_ != nullptr && sink_ != nullptr);
  GFAAS_CHECK(users_ >= 1 && think_time_ >= 0 && duration_ > 0);
  GFAAS_CHECK(config_.model_count >= 1 && config_.batch_size >= 1);
}

void ClosedLoopClient::start() {
  start_time_ = executor_->now();
  for (std::size_t user = 0; user < users_; ++user) {
    executor_->schedule_after(0, [this] { user_submit(); });
  }
}

void ClosedLoopClient::user_submit() {
  // The user retires once the run window has elapsed; in-flight work
  // still completes through on_done().
  if (executor_->now() - start_time_ >= duration_) return;
  core::Request request =
      make_client_request(next_id_++, popularity_.sample(rng_), config_);
  ++submitted_;
  ++in_flight_;
  sink_(std::move(request), [this] { on_done(); });
}

void ClosedLoopClient::on_done() {
  GFAAS_CHECK(in_flight_ > 0);
  --in_flight_;
  ++completed_;
  executor_->schedule_after(think_time_, [this] { user_submit(); });
}

}  // namespace gfaas::trace
