#include "shard/sharded_cluster.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/log.h"
#include "telemetry/telemetry.h"

namespace gfaas::shard {
namespace {

// The steal trigger's mean term: a shard donates only above this multiple
// of the live shards' mean global-queue depth (StealConfig explains why).
// 1.0 to 1.3 were measured on bench_sharded_scale over 8 seeds; 1.2 put
// no row more than 5% behind the median trigger.
constexpr double kMeanFactor = 1.2;

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

ShardedCluster::ShardedCluster(std::vector<cluster::ClusterConfig> configs,
                               const models::ModelRegistry& registry,
                               ShardedOptions options)
    : options_(options), router_(configs.size(), options.router) {
  GFAAS_CHECK(!configs.empty());
  GFAAS_CHECK(options_.epoch >= 2) << "epoch must span >= 2 simulated ticks";
  shards_.reserve(configs.size());
  for (const cluster::ClusterConfig& config : configs) {
    shards_.push_back(std::make_unique<cluster::SimCluster>(config, registry));
  }
  telemetry_.resize(shards_.size());
  backlog_.assign(shards_.size(), 0);
  epoch_wall_ns_.assign(shards_.size(), 0);
  depth_.assign(shards_.size(), 0);
  schedulable_.assign(shards_.size(), 0);
  trigger_.assign(shards_.size(), 0);
  std::size_t model_ids = 0;
  for (const models::ModelProfile& profile : registry.all()) {
    model_ids = std::max(model_ids, static_cast<std::size_t>(profile.id.value()) + 1);
  }
  warm_memo_.assign(model_ids, -1);
  stolen_.reserve(std::max<std::size_t>(1, options_.steal.max_batch));
  orchestrator_serial_.AssertHeld();
  reset_stats();
  const auto threads = static_cast<std::size_t>(std::max(1, options_.threads));
  const std::size_t pool = std::min(threads, shards_.size());
  if (pool > 1) {
    workers_.reserve(pool);
    for (std::size_t w = 0; w < pool; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }
}

ShardedCluster::~ShardedCluster() {
  {
    common::MutexLock lock(&mu_);
    shutdown_ = true;
    work_cv_.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
}

std::size_t ShardedCluster::total_gpu_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->gpu_count();
  return total;
}

void ShardedCluster::set_telemetry(std::size_t index,
                                   telemetry::Telemetry* telemetry) {
  GFAAS_CHECK(index < shards_.size());
  ShardTelemetry& slot = telemetry_[index];
  slot.telemetry = telemetry;
  if (telemetry == nullptr) {
    slot.steals_out = nullptr;
    slot.steals_in = nullptr;
    shards_[index]->engine().set_telemetry(nullptr);
    return;
  }
  telemetry->set_shard(static_cast<std::int32_t>(index));
  slot.steals_out =
      telemetry->metrics().counter(telemetry->qualified("engine.steals.out"));
  slot.steals_in =
      telemetry->metrics().counter(telemetry->qualified("engine.steals.in"));
  shards_[index]->engine().set_telemetry(telemetry);
}

std::function<void()> ShardedCluster::membership_hook(std::size_t index) {
  GFAAS_CHECK(index < shards_.size());
  cluster::SchedulerEngine* engine = &shards_[index]->engine();
  ShardRouter* router = &router_;
  return [router, engine, index]() {
    router->set_weight(index,
                       static_cast<double>(engine->schedulable_gpu_count()));
  };
}

ShardedReplayStats ShardedCluster::replay(
    const std::vector<core::Request>& requests) {
  orchestrator_serial_.AssertHeld();
  reset_stats();

  std::size_t next = 0;
  SimTime epoch_start = 0;
  for (;;) {
    // The epoch covers [epoch_start, horizon): arrivals strictly before
    // the horizon are injected up front, then every shard runs its
    // events through horizon - 1. Events at exactly `horizon` wait for
    // the NEXT epoch — after its arrivals are injected — so a same-time
    // (arrival, completion) pair keeps the seed replay's ordering: the
    // arrival lane wins the tie, exactly as upfront-scheduled
    // submissions win it by sequence number.
    const SimTime horizon = epoch_start + options_.epoch;
    auto serial_start = std::chrono::steady_clock::now();
    inject_arrivals(requests, next, horizon);
    stats_.serial_ns += elapsed_ns(serial_start);

    run_shards_until(horizon - 1);
    ++stats_.epochs;

    serial_start = std::chrono::steady_clock::now();
    const std::size_t moved = steal_rebalance(horizon - 1);
    const bool done = next == requests.size() && drained(next, requests.size());
    std::size_t events_pending = 0;
    for (const auto& shard : shards_) {
      events_pending += shard->simulator().pending_events();
    }
    stats_.serial_ns += elapsed_ns(serial_start);
    if (done) break;
    // Stranded-work guard: arrivals are exhausted, no simulator holds a
    // future event, and the balancer moved nothing — the queued work
    // can never run (every holder of it is dead and there is no live
    // shard to evacuate to, or stealing is disabled). Loudly die rather
    // than spin empty epochs forever.
    GFAAS_CHECK(next < requests.size() || events_pending > 0 || moved > 0)
        << "sharded replay stranded: queued requests with no schedulable "
           "GPUs anywhere to steal to";
    epoch_start = horizon;
  }
  return stats_;
}

void ShardedCluster::reset_stats() {
  stats_ = ShardedReplayStats{};
  stats_.shard_work_ns.assign(shards_.size(), 0);
  stats_.stolen_from.assign(shards_.size(), 0);
  stats_.stolen_to.assign(shards_.size(), 0);
}

void ShardedCluster::inject_arrivals(const std::vector<core::Request>& requests,
                                     std::size_t& next, SimTime horizon) {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const cluster::SchedulerEngine& engine = shards_[s]->engine();
    backlog_[s] = engine.pending() - engine.in_flight();
  }
  while (next < requests.size() && requests[next].arrival < horizon) {
    const core::Request& src = requests[next];
    GFAAS_CHECK(next == 0 || requests[next - 1].arrival <= src.arrival)
        << "workload must be sorted by arrival";
    // Route at injection time (not upfront): membership re-weights from
    // autoscaler hooks apply to future arrivals immediately. The request
    // id salts replica choice for hot (replicated) models, weighed
    // against the barrier's backlogs plus this epoch's injections.
    const std::size_t target = router_.route_by_backlog(
        src.model, static_cast<std::uint64_t>(src.id.value()), backlog_);
    ++backlog_[target];
    cluster::SimCluster* cell = shards_[target].get();
    cluster::SchedulerEngine* engine = &cell->engine();
    // Capturing the request by address keeps the closure inside
    // std::function's inline buffer. It stays valid: every arrival
    // injected here runs before this epoch's run_shards_until returns.
    cell->simulator().schedule_arrival_at(
        src.arrival, [engine, req = &src]() { engine->submit(*req); });
    ++next;
  }
}

void ShardedCluster::run_one_shard(std::size_t index, SimTime deadline) {
  const auto start = std::chrono::steady_clock::now();
  shards_[index]->simulator().run_until(deadline);
  epoch_wall_ns_[index] = elapsed_ns(start);
}

void ShardedCluster::run_shards_until(SimTime deadline) {
  if (workers_.empty()) {
    for (std::size_t i = 0; i < shards_.size(); ++i) run_one_shard(i, deadline);
  } else {
    // Release the pool for one epoch and wait the barrier out. Shard i
    // is always driven by worker i % pool, so each shard's event loop
    // stays on one thread for the whole replay; the mutex hand-off here
    // orders every worker write before the stats fold below.
    common::MutexLock lock(&mu_);
    epoch_deadline_ = deadline;
    remaining_ = workers_.size();
    ++generation_;
    work_cv_.notify_all();
    while (remaining_ > 0) done_cv_.wait(lock);
  }
  std::uint64_t slowest = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::uint64_t wall = epoch_wall_ns_[i];
    stats_.shard_work_ns[i] += wall;
    stats_.total_work_ns += wall;
    slowest = std::max(slowest, wall);
  }
  stats_.critical_path_ns += slowest;
}

void ShardedCluster::worker_loop(std::size_t worker) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    SimTime deadline = 0;
    {
      common::MutexLock lock(&mu_);
      while (!shutdown_ && generation_ == seen_generation) work_cv_.wait(lock);
      if (shutdown_) return;
      seen_generation = generation_;
      deadline = epoch_deadline_;
    }
    for (std::size_t i = worker; i < shards_.size(); i += workers_.size()) {
      run_one_shard(i, deadline);
    }
    {
      common::MutexLock lock(&mu_);
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

std::size_t ShardedCluster::steal_rebalance(SimTime at) {
  orchestrator_serial_.AssertHeld();
  if (shards_.size() < 2 || !options_.steal.enabled) return 0;
  const std::size_t n = shards_.size();
  for (std::size_t i = 0; i < n; ++i) {
    cluster::SchedulerEngine& engine = shards_[i]->engine();
    depth_[i] = engine.global_queue().size();
    schedulable_[i] = engine.schedulable_gpu_count();
  }
  // The fleet-relative terms read the live shards only: a dead shard is
  // evacuated to depth 0 and is never a target, so counting it would pin
  // the lightest depth at 0 for the rest of the replay.
  std::size_t live = 0, lightest = 0, total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (schedulable_[i] == 0) continue;
    lightest = live == 0 ? depth_[i] : std::min(lightest, depth_[i]);
    total += depth_[i];
    ++live;
  }
  const double mean =
      live == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(live);
  // Per-shard trigger: min_queue and the two fleet-relative terms are
  // shared; the capacity floor scales with each shard's schedulable GPUs
  // so big shards don't donate dispatch jitter. base_trigger leaves the
  // mean term out; it sets the deep-overload bar below, which measures
  // how far a queue is past the lightest shard, not past the fleet.
  const std::size_t shared = std::max(
      options_.steal.min_queue,
      static_cast<std::size_t>(options_.steal.threshold * static_cast<double>(lightest)));
  const auto base_trigger = [&](std::size_t i) {
    return std::max(shared, static_cast<std::size_t>(options_.steal.min_queue_per_gpu *
                                                     static_cast<double>(schedulable_[i])));
  };
  const auto mean_term = static_cast<std::size_t>(kMeanFactor * mean);
  for (std::size_t i = 0; i < n; ++i) trigger_[i] = std::max(mean_term, base_trigger(i));
  const std::size_t chunk = std::max<std::size_t>(1, options_.steal.max_batch);

  std::size_t moved_total = 0;
  for (std::size_t donor = 0; donor < n; ++donor) {
    const bool dead = schedulable_[donor] == 0;
    std::size_t excess = 0;
    if (dead) {
      // Evacuation: nothing can ever run here again; move everything,
      // in max_batch chunks spread over the shallowest live shards.
      excess = depth_[donor];
    } else if (depth_[donor] > trigger_[donor]) {
      excess = std::min(chunk, depth_[donor] - trigger_[donor]);
    }
    // Selective first: steal only requests whose model is already warm
    // on some qualified target, so the moved work lands on its cached
    // copies and the cold tail keeps its home shard. Fall back to blind
    // stealing only once the donor is more than a whole chunk past its
    // trigger without the mean term (deep overload: eating a load beats
    // the queue wait) — and immediately for evacuations, where everything
    // must go.
    bool selective = !dead;
    const std::size_t deep = base_trigger(donor) + chunk;
    while (excess > 0) {
      // A live target qualifies only while it stays BELOW the steal
      // trigger: filling a shard past the trigger just mints the next
      // barrier's donor and the request ping-pongs back (observed as
      // steal_hops in the tens). Dead-shard evacuation relaxes the
      // trigger bound — the work must land somewhere live.
      auto qualifies = [&](std::size_t t) {
        return t != donor && schedulable_[t] != 0 &&
               (dead || depth_[t] < trigger_[t]);
      };
      bool any_target = false;
      for (std::size_t t = 0; t < n && !any_target; ++t) {
        any_target = qualifies(t);
      }
      if (!any_target) break;
      // Per-model answers of the selective filter, by model id (-1 = not
      // asked yet). The qualified targets are fixed for one
      // steal_from_global() call, so each model is resolved once per
      // call, not once per request.
      std::fill(warm_memo_.begin(), warm_memo_.end(), -1);
      auto eligible = [&](const core::Request& req) {
        if (!selective) return true;
        std::int8_t& warm = warm_memo_[static_cast<std::size_t>(req.model.value())];
        if (warm < 0) {
          warm = 0;
          for (std::size_t t = 0; t < n && warm == 0; ++t) {
            warm = qualifies(t) && shards_[t]->cache().cached_anywhere(req.model) ? 1 : 0;
          }
        }
        return warm == 1;
      };
      std::vector<core::Request>& batch = stolen_;
      shards_[donor]->engine().steal_from_global(std::min(excess, chunk), eligible,
                                                 batch);
      if (batch.empty()) {
        if (selective && depth_[donor] > deep) {
          selective = false;
          continue;
        }
        break;
      }
      ++stats_.steal_batches;
      std::int64_t moved = 0;
      for (core::Request& req : batch) {
        // Locality-aware target choice, per request: prefer the
        // shallowest qualified shard that already holds the request's
        // model warm (a blind steal turns exactly the overflow traffic
        // into cache misses); fall back to the shallowest overall when
        // no warm shard exists or every warm queue is max_batch deeper
        // than the shallowest. Ties go to the lowest id, and depths
        // update per request, so one barrier spreads a large batch
        // instead of dogpiling one thief — all deterministic.
        std::size_t shallowest = n, warm = n;
        for (std::size_t t = 0; t < n; ++t) {
          if (!qualifies(t)) continue;
          if (shallowest == n || depth_[t] < depth_[shallowest]) shallowest = t;
          if (shards_[t]->cache().cached_anywhere(req.model) &&
              (warm == n || depth_[t] < depth_[warm])) {
            warm = t;
          }
        }
        if (shallowest == n) {
          // Targets saturated mid-batch; the request goes back where it
          // was (uncounted) and this donor stops for the barrier.
          shards_[donor]->engine().submit(std::move(req));
          continue;
        }
        const std::size_t target =
            (warm != n && depth_[warm] < depth_[shallowest] + chunk) ? warm
                                                                     : shallowest;
        ++moved;
        ++stats_.steals;
        ++stats_.stolen_from[donor];
        ++stats_.stolen_to[target];
        if (dead) ++stats_.evacuations;
        if (telemetry_[donor].steals_out != nullptr) {
          telemetry_[donor].steals_out->add(1);
        }
        if (telemetry_[target].steals_in != nullptr) {
          telemetry_[target].steals_in->add(1);
        }
        ++req.steal_hops;
        if (telemetry_[donor].telemetry != nullptr) {
          telemetry_[donor].telemetry->spans().record(
              req.id.value(), telemetry::SpanEvent::kSteal, at, /*gpu=*/-1,
              static_cast<std::int64_t>(target));
        }
        shards_[target]->engine().submit(std::move(req));
        ++depth_[target];
        --depth_[donor];
      }
      if (moved == 0) break;
      excess -= std::min(excess, batch.size());
      moved_total += static_cast<std::size_t>(moved);
    }
  }
  return moved_total;
}

void ShardedCluster::audit(std::size_t submitted) const {
  orchestrator_serial_.AssertHeld();
  // Request id -> the shard holding it live.
  std::unordered_map<std::int64_t, std::size_t> live;
  std::size_t resolved = 0, pending = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const cluster::SchedulerEngine& engine = shards_[s]->engine();
    engine.audit();
    engine.for_each_request([&live, s](const core::Request& request) {
      const auto [it, fresh] = live.emplace(request.id.value(), s);
      GFAAS_CHECK(fresh) << "request " << request.id.value() << " live on shards "
                         << it->second << " and " << s;
    });
    resolved += engine.completions().size() + engine.failures().size();
    pending += engine.pending();
  }
  GFAAS_CHECK(submitted == resolved + pending)
      << submitted << " requests submitted, but the shards hold " << pending
      << " and resolved " << resolved;
}

bool ShardedCluster::drained(std::size_t requests_injected,
                             std::size_t total) const {
  if (requests_injected < total) return false;
  for (const auto& shard : shards_) {
    if (shard->simulator().pending_events() > 0) return false;
    if (shard->engine().pending() > 0) return false;
  }
  return true;
}

std::vector<core::CompletionRecord> ShardedCluster::completions() const {
  std::vector<core::CompletionRecord> all;
  for (const auto& shard : shards_) {
    const auto& records = shard->engine().completions();
    all.insert(all.end(), records.begin(), records.end());
  }
  return all;
}

std::vector<core::CompletionRecord> ShardedCluster::failures() const {
  std::vector<core::CompletionRecord> all;
  for (const auto& shard : shards_) {
    const auto& records = shard->engine().failures();
    all.insert(all.end(), records.begin(), records.end());
  }
  return all;
}

}  // namespace gfaas::shard
