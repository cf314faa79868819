// Simulated-fleet workloads: paper-testbed, fleet-256, fleet-sharded and
// gateway-replay.
//
// One input is replayed many times, each pass on a freshly generated input
// and a freshly assembled fleet; set-up and replay are timed apart.
// Because the replay is deterministic and single-threaded (the sharded
// tier runs its shards inline; gateway-replay's callback thread shares the
// pass's CPU), the host is the only thing that can make a pass slower, so
// wall-clock metrics take the fastest set-up and the fastest time of each
// slice of the pass over all passes; passes rotate over the CPUs so that
// some are on the least disturbed one. A clock probe before every pass
// converts the times to the reference clock (harness.h). Simulated
// outcomes come from the passes too and must be identical on every pass
// and equal to the library runner's on the same input.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "alloc_count.h"
#include "cluster/experiment.h"
#include "common/log.h"
#include "concurrent/callback_executor.h"
#include "gateway/gateway.h"
#include "gateway/ingress.h"
#include "harness.h"
#include "layer_counters.h"
#include "shard/experiment.h"
#include "stats.h"

namespace perfbench {
namespace {

using gfaas::core::CompletionRecord;
using gfaas::core::Request;

struct SimSpec {
  const char* name;
  int nodes;
  int gpus_per_node;
  std::int64_t rpm;
  std::int64_t window_minutes;
  std::size_t shards;  // 0: one SchedulerEngine
  // Requests enter through ConcurrentIngress -> Gateway (admission window
  // kAdmissionWindow, no deadlines) and resolve on a CallbackExecutor
  // thread, instead of straight into the engine.
  bool via_gateway;
};

// The paper testbed's input spans 30 minutes; fleet-256 carries the
// testbed's per-GPU load on 256 GPUs.
constexpr std::int64_t kTestbedWindowMinutes = 30;
constexpr std::int64_t kFleetRpm = kTestbedRpm * 256 / kTestbedGpus;

const SimSpec kSpecs[] = {
    {"paper-testbed", 3, 4, kTestbedRpm, kTestbedWindowMinutes, 0, false},
    {"fleet-256", 32, 8, kFleetRpm, 3, 0, false},
    {"fleet-sharded", 32, 8, kFleetRpm, 3, 4, false},
    {"gateway-replay", 3, 4, kTestbedRpm, kTestbedWindowMinutes, 0, true},
};

// capacity_rpm ladder, as multiples of the workload's own rate.
const double kCapacityLadder[] = {1.0,  1.05, 1.1,  1.15, 1.2,  1.25, 1.3,  1.35,
                                  1.4,  1.45, 1.5,  1.55, 1.6,  1.65, 1.7,  1.75,
                                  1.8,  1.85, 1.9,  1.95, 2.0,  2.1,  2.2,  2.3,
                                  2.4,  2.5,  2.6,  2.8,  3.0,  3.5,  4.0};

constexpr std::size_t kMinPasses = 3;
// Clock probes before each pass, on the pass's CPU.
constexpr int kProbesPerPass = 3;
// An untraced single-threaded single-engine pass is timed in this many
// slices of its arrival span (see Fleet::replay and the composite pass).
constexpr std::size_t kSlices = 128;
// A traced pass must spend at least this share of its wall time inside
// the timed calls, or its per-layer split does not describe the pass.
constexpr double kMinTraceCoverage = 0.9;

// Wall and process CPU seconds, read together.
struct Cost {
  double wall = 0;
  double cpu = 0;
  static Cost now() { return {wall_s(), process_cpu_s()}; }
  Cost operator-(const Cost& o) const { return {wall - o.wall, cpu - o.cpu}; }
};

// Wall-clock split of a traced single-engine pass.
struct TraceTimes {
  double schedule_ns = 0;  // arrival events scheduled upfront
  double submit_ns = 0;    // inside Fleet::submit (engine or ingress)
  double arrival_step_ns = 0;
  double complete_ns = 0;  // non-arrival Simulator::step calls
  std::int64_t submits = 0;
  std::int64_t completes = 0;
  std::vector<double> submit_samples_ns;  // last traced pass only

  void add(const TraceTimes& o) {
    schedule_ns += o.schedule_ns;
    submit_ns += o.submit_ns;
    arrival_step_ns += o.arrival_step_ns;
    complete_ns += o.complete_ns;
    submits += o.submits;
    completes += o.completes;
    submit_samples_ns = o.submit_samples_ns;
  }
};

// One freshly assembled fleet, replayed once.
class Fleet {
 public:
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  Fleet(const SimSpec& spec, const gfaas::trace::Workload& workload)
      : spec_(spec), workload_(workload) {
    const auto config = fleet(spec.nodes, spec.gpus_per_node);
    if (spec.shards == 0) {
      single_ = std::make_unique<gfaas::cluster::SimCluster>(config, workload.registry);
      single_->engine().track_duplicates_of(workload.top_model);
      if (spec.via_gateway) {
        fired_.assign(workload.requests.size(), 0);
        front_ = std::make_unique<FrontEnd>(single_.get());
      }
    } else {
      sharded_ = std::make_unique<gfaas::shard::ShardedCluster>(
          gfaas::shard::partition_config(config, spec.shards), workload.registry,
          sharded_options());
      prepare_sharded();
    }
    for (gfaas::cluster::SimCluster* cell : cells()) {
      revisions_before_ += cell->datastore().revision();
    }
  }

  // The benchmark's entry point for one request: the engine, or the
  // ingress ring in front of the gateway.
  void submit(Request request) {
    if (!front_) {
      single_->engine().submit(std::move(request));
      return;
    }
    const auto id = static_cast<std::size_t>(request.id.value());
    // Two words of capture: std::function keeps them inline.
    gfaas::gateway::Submission cell{
        std::move(request),
        [this, id](const gfaas::gateway::GatewayResult&) { ++fired_[id]; }};
    // Arrivals only reach the ring from simulator events, and the drain is
    // one of those events, so a full ring could never empty: fail loudly.
    GFAAS_CHECK(front_->ingress.try_submit(cell)) << "ingress ring full";
  }

  // Output checks of the gateway front end after a replay: every callback
  // fired exactly once, and the gateway conserved every request.
  void check_front_end(RunResult& out) const {
    if (!front_) return;
    std::size_t once = 0;
    for (std::uint8_t f : fired_) once += f == 1 ? 1 : 0;
    out.check(once == fired_.size(), std::to_string(fired_.size() - once) + " of " +
                                         std::to_string(fired_.size()) +
                                         " callbacks did not fire exactly once");
    const gfaas::gateway::GatewayCounters& c = front_->gateway.counters();
    out.check(conserved(c.submitted, c.completed, c.shed, c.expired, c.failed) &&
                  c.submitted == static_cast<std::int64_t>(fired_.size()),
              "gateway conservation: submitted " + std::to_string(c.submitted) +
                  " completed " + std::to_string(c.completed) + " shed " +
                  std::to_string(c.shed) + " expired " + std::to_string(c.expired) +
                  " failed " + std::to_string(c.failed));
    out.set("gateway.batch_mean", static_cast<double>(front_->ingress.accepted()) /
                                      static_cast<double>(front_->ingress.drains()));
    out.set("gateway.shed", static_cast<double>(c.shed));
    out.set("gateway.expired", static_cast<double>(c.expired));
  }

  // Shards run inline on the benchmark thread: with a 3-thread worker
  // pool on a shared 4-vCPU host the wall metrics spread 21-40% between
  // runs. Inline replays are bit-identical to pooled ones.
  static gfaas::shard::ShardedOptions sharded_options() { return {}; }

  // Replays the input once and returns the costs of its slices, in order;
  // the pass costs their sum. The single-engine replay follows the event
  // order of SimCluster::replay (every arrival scheduled upfront, then the
  // simulator runs to the end). Untraced, it runs in kSlices stretches of
  // the arrival span, each timed; traced, it steps one event at a time
  // under the clock and returns one slice. The sharded replay is one
  // library call and one slice.
  std::vector<Cost> replay(TraceTimes* trace) {
    if (sharded_) {
      set_alloc_phase(AllocPhase::kComplete);
      const Cost start = Cost::now();
      stats_ = sharded_->replay(workload_.requests);
      const Cost end = Cost::now();
      set_alloc_phase(AllocPhase::kOther);
      return {end - start};
    }
    gfaas::sim::Simulator& sim = single_->simulator();
    bool arrival = false;
    const std::function<void(Request)> arrive = [&](Request request) {
      arrival = true;
      set_alloc_phase(AllocPhase::kSubmit);
      if (trace == nullptr) {
        this->submit(std::move(request));
      } else {
        const double t0 = wall_s();
        this->submit(std::move(request));
        const double ns = (wall_s() - t0) * 1e9;
        trace->submit_ns += ns;
        trace->submit_samples_ns.push_back(ns);
        ++trace->submits;
      }
      set_alloc_phase(AllocPhase::kComplete);
    };
    set_alloc_phase(AllocPhase::kSubmit);
    const Cost start = Cost::now();
    for (const Request& request : workload_.requests) {
      sim.schedule_at(request.arrival, [&arrive, request]() { arrive(request); });
    }
    set_alloc_phase(AllocPhase::kComplete);
    std::vector<Cost> slices;
    if (trace == nullptr) {
      // The callback thread of gateway-replay runs whenever the scheduler
      // lets it, so a slice boundary would split its work differently in
      // every pass: that replay is timed whole.
      const auto count = static_cast<gfaas::SimTime>(front_ ? 1 : kSlices);
      const gfaas::SimTime last_arrival = workload_.requests.back().arrival;
      Cost mark = start;
      for (gfaas::SimTime k = 1; k <= count; ++k) {
        if (k < count) {
          sim.run_until(last_arrival / count * k);
        } else {
          sim.run();
          if (front_) front_->callbacks.drain();
        }
        const Cost now = Cost::now();
        slices.push_back(now - mark);
        mark = now;
      }
    } else {
      double t0 = wall_s();
      trace->schedule_ns += (t0 - start.wall) * 1e9;
      for (;;) {
        arrival = false;
        if (!sim.step()) break;
        const double t1 = wall_s();
        if (arrival) {
          trace->arrival_step_ns += (t1 - t0) * 1e9;
        } else {
          trace->complete_ns += (t1 - t0) * 1e9;
          ++trace->completes;
        }
        t0 = t1;
      }
      if (front_) {
        front_->callbacks.drain();
        trace->complete_ns += (wall_s() - t0) * 1e9;
      }
      slices.push_back(Cost::now() - start);
    }
    set_alloc_phase(AllocPhase::kOther);
    GFAAS_CHECK(single_->engine().pending() == 0)
        << single_->engine().pending() << " requests stranded";
    return slices;
  }

  std::vector<gfaas::cluster::SimCluster*> cells() {
    if (single_) return {single_.get()};
    std::vector<gfaas::cluster::SimCluster*> out;
    for (std::size_t s = 0; s < sharded_->shard_count(); ++s) {
      out.push_back(&sharded_->shard(s));
    }
    return out;
  }

  std::vector<CompletionRecord> records() const {
    return single_ ? single_->engine().completions() : sharded_->completions();
  }
  std::size_t failures() const {
    return single_ ? single_->engine().failures().size() : sharded_->failures().size();
  }
  const gfaas::shard::ShardedReplayStats& shard_stats() const { return stats_; }
  bool sharded() const { return sharded_ != nullptr; }
  std::int64_t revisions_before() const { return revisions_before_; }
  const gfaas::cluster::SchedulerEngine& top_engine() const {
    return single_ ? single_->engine()
                   : sharded_->engine(sharded_->route(workload_.top_model));
  }

 private:
  // The routing set-up shard::run_sharded_experiment applies before its
  // replay (hot-model replication, then ring-weight calibration), so the
  // benchmark's own replay matches the library runner's digest. A copy of
  // src/shard/experiment.cc lines 53-98, which the library does not expose
  // as a function of its own; the library-digest check catches drift.
  void prepare_sharded() {
    const std::size_t shards = spec_.shards;
    const gfaas::shard::ShardedOptions options = sharded_options();
    std::unordered_map<std::int64_t, std::size_t> per_model;
    for (const Request& request : workload_.requests) ++per_model[request.model.value()];
    const double total = static_cast<double>(workload_.requests.size());
    for (const auto& [model, count] : per_model) {
      const double share = static_cast<double>(count) / total;
      const auto copies = static_cast<std::uint32_t>(std::ceil(
          share * static_cast<double>(shards) * options.hot_model_spread));
      if (copies > 1) sharded_->router().set_replication(gfaas::ModelId(model), copies);
    }
    const double fair = total / static_cast<double>(shards);
    for (int round = 0; round < options.calibration_rounds; ++round) {
      std::vector<double> load(shards, 0.0);
      for (const Request& request : workload_.requests) {
        load[sharded_->route(request.model,
                             static_cast<std::uint64_t>(request.id.value()))] += 1.0;
      }
      std::vector<double> weights = sharded_->router().weights();
      for (std::size_t s = 0; s < shards; ++s) {
        weights[s] *= std::sqrt(fair / std::max(load[s], 1.0));
        weights[s] = std::clamp(weights[s], 0.2, 5.0);
      }
      sharded_->router().set_weights(weights);
    }
    sharded_->engine(sharded_->route(workload_.top_model))
        .track_duplicates_of(workload_.top_model);
  }

  // Serving front end of gateway-replay. Member order is teardown order
  // in reverse: the ingress goes first, the callback thread runs what is
  // left and joins, then the gateway.
  struct FrontEnd {
    explicit FrontEnd(gfaas::cluster::SimCluster* cluster)
        : gateway(cluster, serving_gateway_config()), ingress(&gateway, &cluster->executor()) {
      gateway.set_callback_executor(&callbacks);
    }
    gfaas::gateway::Gateway gateway;
    gfaas::concurrent::CallbackExecutor callbacks;
    gfaas::gateway::ConcurrentIngress ingress;
  };

  const SimSpec& spec_;
  const gfaas::trace::Workload& workload_;
  std::unique_ptr<gfaas::cluster::SimCluster> single_;
  std::unique_ptr<gfaas::shard::ShardedCluster> sharded_;
  gfaas::shard::ShardedReplayStats stats_;
  std::int64_t revisions_before_ = 0;
  std::vector<std::uint8_t> fired_;  // per request id, written by the callback thread
  std::unique_ptr<FrontEnd> front_;
};

std::vector<double> latencies_s(const std::vector<CompletionRecord>& records) {
  std::vector<double> out;
  out.reserve(records.size());
  for (const CompletionRecord& r : records) out.push_back(gfaas::sim_to_seconds(r.latency()));
  return out;
}

double within_limit_share(const std::vector<CompletionRecord>& records, std::size_t sent) {
  std::size_t met = 0;
  for (const CompletionRecord& r : records) {
    if (!r.failed && gfaas::sim_to_seconds(r.latency()) <= kSimLatencyLimitS) ++met;
  }
  return static_cast<double>(met) / static_cast<double>(sent);
}

// Simulated outcomes of one pass, end to end and per layer.
void record_sim_outcomes(Fleet& fleet, const std::vector<CompletionRecord>& records,
                         std::size_t sent, RunResult& out) {
  const TailSummary latency = summarize(latencies_s(records));
  out.set("sim_latency_p50_s", latency.p50);
  out.set("sim_latency_p99_s", latency.tail);
  out.check(latency.tail_q == 0.99, "too few completions for a sim p99");
  out.set("slo_attainment", within_limit_share(records, sent));
  out.notes.push_back("sim latency over " + std::to_string(latency.samples) +
                      " requests, tail percentile " + std::to_string(latency.tail_q));
  double events = 0;
  for (gfaas::cluster::SimCluster* cell : fleet.cells()) {
    events += static_cast<double>(cell->simulator().events_executed());
  }
  out.set("sim.events_per_req", events / static_cast<double>(records.size()));
  record_layer_counters(fleet.cells(), records, fleet.top_engine(),
                        static_cast<double>(fleet.revisions_before()), out);
}

// The library runner's completion stream on the same input.
std::vector<CompletionRecord> library_records(const SimSpec& spec,
                                              const gfaas::trace::Workload& workload) {
  std::vector<CompletionRecord> records;
  const auto config = fleet(spec.nodes, spec.gpus_per_node);
  if (spec.via_gateway) {
    // The same front end behind the runner's ingestion seam.
    gfaas::cluster::run_experiment(
        config, workload, &records, [](gfaas::cluster::ElasticCluster& cluster) {
          auto gateway =
              std::make_shared<gfaas::gateway::Gateway>(&cluster, serving_gateway_config());
          auto callbacks = std::make_shared<gfaas::concurrent::CallbackExecutor>();
          gateway->set_callback_executor(callbacks.get());
          auto ingress = std::make_shared<gfaas::gateway::ConcurrentIngress>(
              gateway.get(), &cluster.executor());
          return [gateway, callbacks, ingress](Request request) {
            gfaas::gateway::Submission cell{std::move(request),
                                            [](const gfaas::gateway::GatewayResult&) {}};
            GFAAS_CHECK(ingress->try_submit(cell)) << "ingress ring full";
          };
        });
  } else if (spec.shards == 0) {
    gfaas::cluster::run_experiment(config, workload, &records);
  } else {
    gfaas::shard::run_sharded_experiment(config, spec.shards, workload,
                                         Fleet::sharded_options(), &records);
  }
  return records;
}

// capacity_rpm: the highest ladder rate whose replay keeps the sim p99
// latency within the limit, found with the library runner.
double capacity_rpm(const SimSpec& spec, std::uint64_t seed, RunResult& out) {
  const std::size_t rungs = sizeof(kCapacityLadder) / sizeof(kCapacityLadder[0]);
  auto rate = [&spec](std::size_t i) {
    return static_cast<std::int64_t>(std::llround(kCapacityLadder[i] *
                                                  static_cast<double>(spec.rpm)));
  };
  const int best = ladder_search(rungs, [&](std::size_t i) {
    const gfaas::trace::Workload workload = build_input(seed, rate(i), spec.window_minutes);
    const std::vector<CompletionRecord> records = library_records(spec, workload);
    const TailSummary latency = summarize(latencies_s(records));
    out.notes.push_back("capacity ladder: " + std::to_string(rate(i)) + " req/min -> p" +
                        std::to_string(static_cast<int>(latency.tail_q * 100)) + " " +
                        std::to_string(latency.tail) + " sim s");
    return records.size() == workload.requests.size() &&
           latency.tail <= kSimLatencyLimitS;
  });
  out.check(best >= 0, "capacity ladder: the lowest rung already misses the limit");
  out.check(best + 1 < static_cast<int>(rungs),
            "capacity ladder: the highest rung still holds the limit");
  return best >= 0 ? static_cast<double>(rate(static_cast<std::size_t>(best))) : 0.0;
}

// The sharded replay is one library call, so the benchmark cannot time
// its pieces: the shard layer's split comes from the library's own
// ShardedReplayStats. Shards run inline, so a pass is their summed work
// plus the orchestrator's serial sections, which bench.trace_coverage
// compares against the measured wall time. No span is added to the pass.
void record_shard_stats(const gfaas::shard::ShardedReplayStats& st, double wall,
                        std::size_t n, RunResult& out) {
  double max_work = 0, sum_work = 0;
  for (std::uint64_t w : st.shard_work_ns) {
    max_work = std::max(max_work, static_cast<double>(w));
    sum_work += static_cast<double>(w);
  }
  const double shards = static_cast<double>(st.shard_work_ns.size());
  const double model_s = static_cast<double>(st.critical_path_ns + st.serial_ns) * 1e-9;
  out.set("shard.serial_s", static_cast<double>(st.serial_ns) * 1e-9);
  out.set("shard.critical_path_s", static_cast<double>(st.critical_path_ns) * 1e-9);
  out.set("shard.work_s", static_cast<double>(st.total_work_ns) * 1e-9);
  out.set("shard.imbalance", sum_work > 0 ? max_work / (sum_work / shards) : 0.0);
  out.set("shard.steals_per_kreq",
          static_cast<double>(st.steals) * 1000 / static_cast<double>(n));
  out.set("shard.epochs", static_cast<double>(st.epochs));
  out.set("shard.wall_over_model", wall / model_s);
  out.set("bench.trace_overhead", 0);
  out.set("bench.trace_coverage",
          static_cast<double>(st.total_work_ns + st.serial_ns) * 1e-9 / wall);
  out.set("cluster.submit_ns", 0);
  out.set("cluster.complete_ns", 0);
}

}  // namespace

RunResult run_sim_workload(const RunOptions& options) {
  const SimSpec* spec = nullptr;
  for (const SimSpec& s : kSpecs) {
    if (options.workload == s.name) spec = &s;
  }
  GFAAS_CHECK(spec != nullptr);
  RunResult out;

  // --- measured passes (traced runs alternate untraced and traced) ---
  // Every pass sets up afresh (input generation plus fleet assembly) and
  // times that too: one set-up takes tens of milliseconds and single ones
  // spread by up to 2x on a shared host, so setup_s is the fastest of the
  // run's set-ups, like the replay. The sharded replay cannot be traced
  // from outside (record_shard_stats), so its traced runs time untraced
  // passes only.
  const bool alternate = options.trace && spec->shards == 0;
  std::vector<double> setup, build, assembly, walls, traced_walls;
  std::vector<Cost> best;  // per slice: the lowest over untraced passes
  std::unique_ptr<gfaas::trace::Workload> workload;  // the last pass's input
  std::size_t n = 0;
  TraceTimes traced_sum;
  std::uint64_t digest = 0, allocs_submit = 0, allocs_complete = 0;
  double rss_mb = 0;  // one pass: later passes only reuse the heap
  double clock_hz = 0;  // the fastest clock probe of the run
  const double deadline = wall_s() + options.seconds;
  for (int pass = 0; walls.size() < kMinPasses || wall_s() < deadline; ++pass) {
    const bool traced = alternate && pass % 2 == 1;
    pin_to(rotation(alternate ? pass / 2 : pass));
    for (int probe = 0; probe < kProbesPerPass; ++probe) {
      clock_hz = std::max(clock_hz, probe_clock_hz());
    }
    const std::uint64_t submit0 = allocs_in(AllocPhase::kSubmit);
    const std::uint64_t complete0 = allocs_in(AllocPhase::kComplete);
    double wall = 0;
    std::vector<Cost> slices;
    std::uint64_t pass_digest = 0;
    set_alloc_phase(AllocPhase::kSetup);
    const double t0 = wall_s();
    auto input = std::make_unique<gfaas::trace::Workload>(
        build_input(options.seed, spec->rpm, spec->window_minutes));
    const double t1 = wall_s();
    n = input->requests.size();
    {
      Fleet fleet(*spec, *input);
      const double t2 = wall_s();
      set_alloc_phase(AllocPhase::kOther);
      setup.push_back(t2 - t0);
      build.push_back(t1 - t0);
      assembly.push_back(t2 - t1);
      TraceTimes times;
      slices = fleet.replay(traced ? &times : nullptr);
      for (const Cost& slice : slices) wall += slice.wall;
      const std::vector<CompletionRecord> records = fleet.records();
      pass_digest = completion_digest(records);
      out.attempted += static_cast<std::int64_t>(n);
      out.failed += static_cast<std::int64_t>(fleet.failures());
      if (pass == 0) {
        out.check(conserved(static_cast<std::int64_t>(n),
                            static_cast<std::int64_t>(records.size()), 0, 0,
                            static_cast<std::int64_t>(fleet.failures())),
                  "replay conservation: " + std::to_string(records.size()) +
                      " completed + " + std::to_string(fleet.failures()) +
                      " failed of " + std::to_string(n) + " submitted");
        record_sim_outcomes(fleet, records, n, out);
        fleet.check_front_end(out);
        if (fleet.sharded()) record_shard_stats(fleet.shard_stats(), wall, n, out);
      }
      if (traced) {
        traced_walls.push_back(wall);
        traced_sum.add(times);
      } else {
        walls.push_back(wall);
        if (best.empty()) best = slices;
        GFAAS_CHECK(best.size() == slices.size());
        for (std::size_t k = 0; k < slices.size(); ++k) {
          best[k].wall = std::min(best[k].wall, slices[k].wall);
          best[k].cpu = std::min(best[k].cpu, slices[k].cpu);
        }
      }
    }
    workload = std::move(input);
    const std::uint64_t pass_submit = allocs_in(AllocPhase::kSubmit) - submit0;
    const std::uint64_t pass_complete = allocs_in(AllocPhase::kComplete) - complete0;
    if (pass == 0) {
      rss_mb = peak_rss_mb();
      digest = pass_digest;
      allocs_submit = pass_submit;
      allocs_complete = pass_complete;
    } else {
      out.check(pass_digest == digest, std::string(traced ? "traced" : "untraced") +
                                           " pass " + std::to_string(pass) +
                                           " digest differs from pass 0");
      // The callback thread's queue allocates as batching happens to fall,
      // so only the single-threaded replays allocate exactly alike.
      if (!traced && !spec->via_gateway) {
        out.check(pass_submit == allocs_submit && pass_complete == allocs_complete,
                  "pass " + std::to_string(pass) + " allocated " +
                      std::to_string(pass_submit + pass_complete) + " times, pass 0 " +
                      std::to_string(allocs_submit + allocs_complete));
      }
    }
  }
  pin_to({});
  const double requests = static_cast<double>(n);

  // --- output check against the library runner ---
  out.check(completion_digest(library_records(*spec, *workload)) == digest,
            "completion digest differs from the library runner's");

  // The composite pass: every slice at its fastest. The replay is
  // deterministic, so each slice does the same work in every pass, and a
  // slice of a few milliseconds more often escapes a disturbance of the
  // host than a whole pass does.
  const double fastest = *std::min_element(walls.begin(), walls.end());
  Cost composite;
  for (const Cost& slice : best) {
    composite.wall += slice.wall;
    composite.cpu += slice.cpu;
  }
  // Every wall and CPU time below is at the reference clock.
  out.check(clock_hz > 0.2e9 && clock_hz < 20e9,
            "clock probe read " + std::to_string(clock_hz * 1e-9) + " GHz");
  const double scale = clock_hz / kReferenceClockHz;
  const double fastest_setup = *std::min_element(setup.begin(), setup.end());
  out.notes.push_back("clock probe: fastest " + std::to_string(clock_hz * 1e-9) +
                      " GHz, times below as measured");
  out.notes.push_back("set-up: fastest of " + std::to_string(setup.size()) + " set-ups " +
                      std::to_string(fastest_setup) + " s, median " +
                      std::to_string(median(setup)) + " s");
  out.notes.push_back(std::to_string(n) + " requests per pass, " +
                      std::to_string(walls.size()) + " untraced and " +
                      std::to_string(traced_walls.size()) + " traced passes, digest " +
                      std::to_string(digest) + "; fastest pass " +
                      std::to_string(fastest) + " s, composite of " +
                      std::to_string(best.size()) + " fastest slices " +
                      std::to_string(composite.wall) + " s wall, " +
                      std::to_string(composite.cpu) + " s CPU");
  out.set("setup_s", fastest_setup * scale);

  out.set("throughput_rps", requests / (composite.wall * scale));
  out.set("cpu_us_per_req", composite.cpu * scale / requests * 1e6);
  out.set("allocs_per_req", static_cast<double>(allocs_submit + allocs_complete) / requests);
  out.set("peak_rss_mb", rss_mb);
  out.set("capacity_rpm", options.trace ? 0.0 : capacity_rpm(*spec, options.seed, out));

  // --- per-layer ---
  out.set("trace.build_s", *std::min_element(build.begin(), build.end()) * scale);
  out.set("cluster.assembly_s", *std::min_element(assembly.begin(), assembly.end()) * scale);
  out.set("cluster.allocs_submit_per_req", static_cast<double>(allocs_submit) / requests);
  out.set("cluster.allocs_complete_per_req",
          static_cast<double>(allocs_complete) / requests);
  if (!spec->shards) {
    for (const char* name : {"shard.serial_s", "shard.critical_path_s", "shard.work_s",
                             "shard.imbalance", "shard.steals_per_kreq", "shard.epochs",
                             "shard.wall_over_model"}) {
      out.set(name, 0);
    }
  }
  if (!spec->via_gateway) {
    for (const char* name : {"gateway.batch_mean", "gateway.shed", "gateway.expired"}) {
      out.set(name, 0);
    }
  }
  out.set("concurrent.enqueue_ns_p50",
          spec->via_gateway ? summarize(traced_sum.submit_samples_ns).p50 * scale : 0.0);
  if (alternate) {
    const double traced_wall = std::accumulate(traced_walls.begin(), traced_walls.end(), 0.0);
    const double fastest_traced = *std::min_element(traced_walls.begin(), traced_walls.end());
    const double coverage =
        (traced_sum.schedule_ns + traced_sum.submit_ns + traced_sum.complete_ns) * 1e-9 /
        traced_wall;
    out.set("bench.trace_overhead", fastest_traced / fastest - 1.0);
    out.set("bench.trace_coverage", coverage);
    out.check(coverage >= kMinTraceCoverage,
              "traced passes spent only " + std::to_string(coverage) +
                  " of their wall time inside the timed calls");
    out.set("cluster.submit_ns",
            traced_sum.submit_ns * scale / static_cast<double>(traced_sum.submits));
    out.set("cluster.complete_ns",
            traced_sum.complete_ns * scale / static_cast<double>(traced_sum.completes));
    out.notes.push_back(
        "traced pass split: schedule " + std::to_string(traced_sum.schedule_ns * 1e-9) +
        " s, submit " + std::to_string(traced_sum.submit_ns * 1e-9) +
        " s, arrival steps " + std::to_string(traced_sum.arrival_step_ns * 1e-9) +
        " s, completion steps " + std::to_string(traced_sum.complete_ns * 1e-9) +
        " s, of " + std::to_string(traced_wall) + " s");
  }
  return out;
}

}  // namespace perfbench
