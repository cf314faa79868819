// Shared types of the benchmark's workloads: run options, the result a
// workload returns, the metric catalogue and the clocks it measures with.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/config.h"
#include "gateway/gateway.h"
#include "trace/workload.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (reported with --trace 0) and the per-layer
// metrics (reported with --trace 1). BENCHMARK.json lists the same names
// and units; perfbench/run.py refuses a result whose names differ.
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::string> errors;
  std::vector<std::string> notes;  // printed before the result line

  void set(const std::string& name, double value) { values.emplace_back(name, value); }
  // Records a failed output check; the run then exits non-zero.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

RunResult run_sim_workload(const RunOptions& options);

// --- shared input and fleet definitions ---

// The paper testbed's per-GPU load: 325 req/min on 12 GPUs (§V-A).
inline constexpr std::int64_t kTestbedRpm = 325;
inline constexpr int kTestbedGpus = 12;
inline constexpr std::size_t kWorkingSet = 35;
// A sim request meets its latency limit when it completes within this
// many simulated seconds of arrival (slo_attainment, capacity_rpm).
inline constexpr double kSimLatencyLimitS = 10.0;

// Inputs follow the paper's method (§V-A1): one calibrated trace (fixed
// synthesizer seed, the library default) whose per-minute invocations
// are placed at random offsets within each minute. The benchmark seed
// drives that placement.
inline constexpr std::uint64_t kTraceSeed = 42;
gfaas::trace::Workload build_input(std::uint64_t seed, std::int64_t rpm,
                                   std::int64_t window_minutes);
gfaas::cluster::ClusterConfig fleet(int nodes, int gpus_per_node);
// The gateway of gateway-replay: admission window 256 (the
// library default) and no deadlines, so nothing sheds or expires by design.
gfaas::gateway::GatewayConfig serving_gateway_config();

// --- clocks ---
double wall_s();          // steady clock
double process_cpu_s();   // all threads of the process
double peak_rss_mb();     // high-water resident set of the process
int host_cpus();

// Host speed. A shared host also slows down as a whole, by 10-25% for
// minutes at a stretch (neighbours on the same cores and caches), which no
// choice of passes inside one run can avoid. probe_clock_hz() times a fixed
// chain of dependent integer operations (benchmark code, no library call)
// and returns the clock it ran at, counting one cycle per operation. The
// benchmark keeps the fastest probe of a run and reports the wall and CPU
// times it takes itself at kReferenceClockHz: measured seconds x probe
// clock / reference.
inline constexpr double kReferenceClockHz = 3.0e9;
double probe_clock_hz();

// CPU placement. A shared host slows one vCPU at a time (a busy
// neighbour on its sibling thread), so passes rotate over the CPUs this
// process may use and the fastest pass comes from the quietest one.
// pin_to() restricts the calling thread and every thread it creates
// afterwards; an empty list restores the process's starting set.
std::vector<int> usable_cpus();
void pin_to(const std::vector<int>& cpus);
// The CPU for pass `k`: each usable CPU in turn.
std::vector<int> rotation(std::size_t k);

}  // namespace perfbench
