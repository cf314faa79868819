// Shared harness for the figure-reproduction benches: runs the paper's
// standard experiment grid (scheduler x working set on the 12-GPU
// cluster) and provides paper-reference comparison helpers.
#pragma once

#include <string>
#include <vector>

#include "cluster/experiment.h"
#include "trace/workload.h"

namespace gfaas::bench {

struct GridCell {
  std::size_t working_set;
  core::PolicyName policy;
  cluster::ExperimentResult result;
};

struct GridOptions {
  std::vector<std::size_t> working_sets = {15, 25, 35};
  std::vector<core::PolicyName> policies = {
      core::PolicyName::kLb, core::PolicyName::kLalb, core::PolicyName::kLalbO3};
  int o3_limit = 25;
  cache::PolicyKind cache_policy = cache::PolicyKind::kLru;
  std::uint64_t workload_seed = 7;
  std::uint64_t trace_seed = 42;
};

// Runs every (working set, policy) combination of the paper's §V setup.
std::vector<GridCell> run_grid(const GridOptions& options = {});

// Percentage reduction of a metric relative to the LB baseline in the
// same working set ((lb - value) / lb).
double reduction_vs_lb(const std::vector<GridCell>& grid, std::size_t working_set,
                       core::PolicyName policy,
                       double (*metric)(const cluster::ExperimentResult&));

// Common metric extractors.
double metric_latency(const cluster::ExperimentResult& r);
double metric_miss_ratio(const cluster::ExperimentResult& r);
double metric_false_miss(const cluster::ExperimentResult& r);
double metric_sm_util(const cluster::ExperimentResult& r);
double metric_duplicates(const cluster::ExperimentResult& r);

const cluster::ExperimentResult& cell(const std::vector<GridCell>& grid,
                                      std::size_t working_set,
                                      core::PolicyName policy);

std::string policy_label(core::PolicyName policy);

// Completion latencies of an engine run in seconds, ascending (feed to
// percentile()).
std::vector<double> sorted_latencies_s(const cluster::SchedulerEngine& engine);

// Nearest-index percentile of an ascending sample vector (q in [0, 1];
// 0 on empty input). The elastic-fleet benches share this so their
// latency columns cannot drift apart.
double percentile(const std::vector<double>& sorted, double q);

// Provenance members for a BENCH_*.json record, without braces: the
// build type, the CPUs this process may run on (what `nproc` prints) and
// the exact command line as a JSON array of argv strings.
std::string provenance_json(int argc, char** argv);

}  // namespace gfaas::bench
