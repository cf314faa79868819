#include "gateway/ingress.h"

#include <utility>

#include "common/log.h"
#include "telemetry/telemetry.h"

namespace gfaas::gateway {

ConcurrentIngress::ConcurrentIngress(Gateway* gateway, sim::Executor* executor,
                                     std::size_t capacity)
    : gateway_(gateway), executor_(executor), queue_(capacity) {
  GFAAS_CHECK(gateway_ != nullptr && executor_ != nullptr);
}

void ConcurrentIngress::set_telemetry(telemetry::Telemetry* telemetry) {
  if (telemetry == nullptr) return;
  telemetry->add_probe([this](telemetry::MetricRegistry& reg) {
    reg.gauge("ingress.accepted")->set(static_cast<double>(accepted()));
    reg.gauge("ingress.rejected")->set(static_cast<double>(rejected()));
    reg.gauge("ingress.drained")->set(static_cast<double>(drained()));
    reg.gauge("ingress.drains")->set(static_cast<double>(drains()));
    reg.gauge("ingress.max_batch")->set(static_cast<double>(max_batch()));
    reg.gauge("ingress.backlog")->set(static_cast<double>(backlog()));
  });
}

bool ConcurrentIngress::try_submit(Submission& cell) {
  GFAAS_CHECK(cell.done != nullptr);
  if (!queue_.try_push(cell)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  // Publish-then-arm. The seq_cst exchange orders this producer's
  // publish against the drainer's disarm: whoever flips the flag
  // false->true owns posting the (single) wakeup for the burst.
  if (!drain_armed_.exchange(true)) {
    executor_->post([this] {
      consumer_serial_.AssertHeld();  // posted work runs on the worker
      drain();
    });
  }
  return true;
}

void ConcurrentIngress::drain() {
  // Disarm BEFORE draining: a cell published after this store re-arms
  // and posts its own pass, so nothing published concurrently with the
  // sweep below can be stranded.
  drain_armed_.store(false);
  queue_.drain(batch_);
  if (batch_.empty()) return;  // raced with a later pass; nothing stranded
  drains_.fetch_add(1, std::memory_order_relaxed);
  drained_.fetch_add(batch_.size(), std::memory_order_relaxed);
  std::uint64_t prev = max_batch_.load(std::memory_order_relaxed);
  while (prev < batch_.size() &&
         !max_batch_.compare_exchange_weak(prev, batch_.size(),
                                           std::memory_order_relaxed)) {
  }
  gateway_->submit_batch(std::move(batch_));
}

}  // namespace gfaas::gateway
