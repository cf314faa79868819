#include "trace/workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/log.h"

namespace gfaas::trace {

namespace {

// Orders catalog indices so that consecutive working-set functions get
// well-spread model sizes: sort by occupation, then interleave
// small/large halves (paper: "ensure models with different sizes are
// distributed evenly in the workload").
std::vector<std::size_t> size_interleaved_catalog_order() {
  const auto& catalog = models::table1_catalog();
  std::vector<std::size_t> by_size(catalog.size());
  std::iota(by_size.begin(), by_size.end(), 0);
  std::sort(by_size.begin(), by_size.end(), [&](std::size_t a, std::size_t b) {
    return catalog[a].occupation < catalog[b].occupation;
  });
  std::vector<std::size_t> interleaved;
  interleaved.reserve(by_size.size());
  std::size_t lo = 0, hi = by_size.size();
  while (lo < hi) {
    interleaved.push_back(by_size[lo++]);
    if (lo < hi) interleaved.push_back(by_size[--hi]);
  }
  return interleaved;
}

// Draws `count` arrival offsets within one minute according to the
// configured process; offsets are unsorted (the builder sorts globally).
// `burst_starts` is the minute's shared burst schedule (bursty only) so
// all functions pile into the same windows.
std::vector<SimTime> draw_offsets(ArrivalProcess process, std::int64_t count,
                                  Rng& rng,
                                  const std::vector<SimTime>& burst_starts) {
  std::vector<SimTime> offsets;
  offsets.reserve(static_cast<std::size_t>(count));
  switch (process) {
    case ArrivalProcess::kUniform:
      for (std::int64_t i = 0; i < count; ++i) {
        offsets.push_back(rng.uniform_int(0, minutes(1) - 1));
      }
      break;
    case ArrivalProcess::kPoisson: {
      // Exponential gaps, rescaled so the batch spans the minute.
      std::vector<double> cumulative;
      double t = 0;
      for (std::int64_t i = 0; i < count; ++i) {
        t += rng.exponential(1.0);
        cumulative.push_back(t);
      }
      const double span = cumulative.empty() ? 1.0 : cumulative.back();
      for (double c : cumulative) {
        offsets.push_back(static_cast<SimTime>(c / span * (minutes(1) - 1)));
      }
      break;
    }
    case ArrivalProcess::kBursty: {
      for (std::int64_t i = 0; i < count; ++i) {
        const SimTime start = burst_starts[static_cast<std::size_t>(
            rng.next_below(burst_starts.size()))];
        offsets.push_back(start + rng.uniform_int(0, sec(2) - 1));
      }
      break;
    }
  }
  return offsets;
}

}  // namespace

std::string arrival_process_name(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kUniform: return "uniform";
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kBursty: return "bursty";
  }
  return "unknown";
}

StatusOr<Workload> build_workload(const AzureTrace& trace, const WorkloadConfig& config) {
  if (config.window_minutes <= 0) {
    return Status::InvalidArgument("window must cover at least one minute");
  }
  return build_rate_workload(
      trace, config,
      std::vector<std::int64_t>(static_cast<std::size_t>(config.window_minutes),
                                config.requests_per_minute));
}

StatusOr<Workload> build_rate_workload(const AzureTrace& trace,
                                       const WorkloadConfig& config,
                                       const std::vector<std::int64_t>& rates) {
  const auto window_minutes = static_cast<std::int64_t>(rates.size());
  if (config.working_set_size == 0) {
    return Status::InvalidArgument("working set must be non-empty");
  }
  if (rates.empty()) {
    return Status::InvalidArgument("rate envelope must cover at least one minute");
  }
  if (trace.rows.size() < config.working_set_size) {
    return Status::InvalidArgument("trace has fewer functions than working set");
  }
  if (trace.minutes < window_minutes) {
    return Status::InvalidArgument("trace shorter than requested window");
  }

  Rng rng(config.seed);
  const auto ranking = trace.rank_by_popularity(window_minutes);
  const auto catalog_order = size_interleaved_catalog_order();
  const auto& catalog = models::table1_catalog();

  Workload workload;
  // Each working-set function is a distinct cache item ("the workload's
  // working set (the total number of unique models)", §IV-B): model id =
  // function rank, profile drawn round-robin from the size-interleaved
  // catalog.
  std::vector<std::size_t> selected_rows;
  for (std::size_t rank = 0; rank < config.working_set_size; ++rank) {
    const std::size_t row = ranking[rank];
    selected_rows.push_back(row);
    const auto& base = catalog[catalog_order[rank % catalog_order.size()]];
    models::ModelProfile profile = base;
    profile.id = ModelId(static_cast<std::int64_t>(rank));
    if (rank >= catalog_order.size()) {
      profile.name = base.name + "#" + std::to_string(rank);
    }
    GFAAS_CHECK(workload.registry.register_model(profile).ok());
  }

  // Per-minute normalization to requests_per_minute over the working set.
  std::int64_t next_request_id = 0;
  std::int64_t top_count = 0;
  std::vector<std::int64_t> per_model_total(config.working_set_size, 0);
  for (std::int64_t minute = 0; minute < window_minutes; ++minute) {
    const std::int64_t minute_requests = rates[static_cast<std::size_t>(minute)];
    std::int64_t minute_total = 0;
    for (std::size_t row : selected_rows) {
      minute_total += trace.rows[row].per_minute[static_cast<std::size_t>(minute)];
    }
    if (minute_total == 0 || minute_requests <= 0) continue;

    // Largest-remainder apportionment of the minute's request budget
    // across the working set, proportional to the trace counts.
    std::vector<std::int64_t> quota(config.working_set_size, 0);
    std::vector<std::pair<double, std::size_t>> remainders;
    std::int64_t assigned = 0;
    for (std::size_t k = 0; k < config.working_set_size; ++k) {
      const double exact =
          static_cast<double>(
              trace.rows[selected_rows[k]].per_minute[static_cast<std::size_t>(minute)]) *
          static_cast<double>(minute_requests) / static_cast<double>(minute_total);
      quota[k] = static_cast<std::int64_t>(exact);
      assigned += quota[k];
      remainders.emplace_back(exact - static_cast<double>(quota[k]), k);
    }
    std::sort(remainders.rbegin(), remainders.rend());
    for (std::size_t i = 0; assigned < minute_requests; ++i, ++assigned) {
      ++quota[remainders[i % remainders.size()].second];
    }

    // Arrival offsets within the minute, per the configured process. The
    // minute's burst schedule (4 bursts of 2s) is shared by all functions
    // so bursty traffic genuinely concentrates.
    std::vector<SimTime> burst_starts;
    if (config.arrivals == ArrivalProcess::kBursty) {
      for (int b = 0; b < 4; ++b) {
        burst_starts.push_back(rng.uniform_int(0, minutes(1) - sec(2) - 1));
      }
    }
    for (std::size_t k = 0; k < config.working_set_size; ++k) {
      per_model_total[k] += quota[k];
      const std::vector<SimTime> offsets =
          draw_offsets(config.arrivals, quota[k], rng, burst_starts);
      for (std::int64_t i = 0; i < quota[k]; ++i) {
        core::Request req;
        req.id = RequestId(next_request_id++);
        req.function = FunctionId(static_cast<std::int64_t>(k));
        req.model = ModelId(static_cast<std::int64_t>(k));
        req.batch = config.batch_size;
        req.arrival = minutes(minute) + offsets[static_cast<std::size_t>(i)];
        workload.requests.push_back(std::move(req));
      }
    }
  }

  std::stable_sort(workload.requests.begin(), workload.requests.end(),
                   [](const core::Request& a, const core::Request& b) {
                     return a.arrival < b.arrival;
                   });
  // Reassign ids in arrival order so id order == arrival order.
  for (std::size_t i = 0; i < workload.requests.size(); ++i) {
    workload.requests[i].id = RequestId(static_cast<std::int64_t>(i));
  }

  for (std::size_t k = 0; k < config.working_set_size; ++k) {
    if (per_model_total[k] > top_count) {
      top_count = per_model_total[k];
      workload.top_model = ModelId(static_cast<std::int64_t>(k));
    }
  }
  workload.invocations_of_top_model = top_count;
  return workload;
}

StatusOr<Workload> build_standard_workload(const WorkloadConfig& config,
                                           std::uint64_t trace_seed) {
  SynthesizerConfig synth;
  synth.seed = trace_seed;
  synth.minutes = config.window_minutes;
  const AzureTrace trace = synthesize_azure_trace(synth);
  return build_workload(trace, config);
}

std::vector<std::int64_t> diurnal_rates(const DiurnalConfig& config) {
  GFAAS_CHECK(config.window_minutes > 0 && config.period_minutes > 0);
  GFAAS_CHECK(config.trough_rpm >= 0 && config.peak_rpm >= config.trough_rpm);
  Rng rng(config.seed);
  std::vector<std::int64_t> rates;
  rates.reserve(static_cast<std::size_t>(config.window_minutes));
  constexpr double kTwoPi = 6.283185307179586;
  for (std::int64_t m = 0; m < config.window_minutes; ++m) {
    const double phase =
        kTwoPi * static_cast<double>(m) / static_cast<double>(config.period_minutes);
    // Raised cosine: trough at minute 0, peak half a period later.
    double rate = static_cast<double>(config.trough_rpm) +
                  static_cast<double>(config.peak_rpm - config.trough_rpm) * 0.5 *
                      (1.0 - std::cos(phase));
    if (config.burst_probability > 0 &&
        rng.uniform() < config.burst_probability) {
      rate *= config.burst_multiplier;
    }
    rates.push_back(static_cast<std::int64_t>(rate + 0.5));
  }
  return rates;
}

StatusOr<Workload> build_diurnal_workload(const WorkloadConfig& config,
                                          const DiurnalConfig& diurnal,
                                          std::uint64_t trace_seed) {
  SynthesizerConfig synth;
  synth.seed = trace_seed;
  synth.minutes = diurnal.window_minutes;
  const AzureTrace trace = synthesize_azure_trace(synth);
  return build_rate_workload(trace, config, diurnal_rates(diurnal));
}

}  // namespace gfaas::trace
