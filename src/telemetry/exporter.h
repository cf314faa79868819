// Streaming time-series exporter.
//
// Ticks on either executor (the simulator or the wall-clock
// RealTimeExecutor — the same dual-mode discipline as the Autoscaler):
// each tick runs the registered probes, snapshots the registry, appends
// the row to an in-memory series, and optionally streams it as one JSONL
// line. Rows are stamped at NOMINAL tick times (the start row snapped
// down to an interval multiple, then + k*interval, and the finish() row
// at the next nominal tick) rather than the executor's actual now(), so
// a simulated run and a time-compressed realtime run of the same
// workload produce byte-comparable timestamps and row counts.
//
// Like the Autoscaler, the exporter keeps re-arming only while the
// nominal clock is inside the horizon, so a drained simulator run
// terminates. finish() emits one final row (and, when configured, the
// sampled span ring) after the workload completes; call it before
// tearing down the instrumented layers — probes read their state.
#pragma once

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "common/time.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace gfaas::telemetry {

// Minimal JSON string escaping (quote, backslash, newline) for labels and
// other free text written into JSON; metric names never need it.
std::string json_escape(const std::string& s);

struct TelemetryExporterConfig {
  SimTime interval = sec(5);
  // Stamped into every row/JSONL line (e.g. the bench run name).
  std::string label;
  // Live JSONL sink; null = in-memory series only.
  std::ostream* jsonl = nullptr;
  // Also write the sampled span ring to the JSONL sink at finish().
  bool export_spans = false;
};

class TelemetryExporter {
 public:
  TelemetryExporter(sim::Executor* executor, Telemetry* telemetry,
                    TelemetryExporterConfig config = {});
  ~TelemetryExporter();

  // Emits the t=now row and arms periodic ticks up to `horizon`
  // (inclusive). Must be called from the worker thread (or before the
  // realtime executor starts processing).
  void start(SimTime horizon);

  // Emits the final row at the next nominal tick boundary; stops
  // ticking. Idempotent. Worker thread only.
  void finish();

  const std::vector<MetricsSnapshot>& series() const { return series_; }
  const MetricsSnapshot& last() const;

  // Full series as CSV: time_s + run + the union of metric columns
  // (name-sorted); rows missing a metric leave the cell empty.
  std::string to_csv() const;

  // Final snapshot as "name=value" lines (bench failure diagnostics).
  void dump(std::FILE* out) const;

 private:
  void arm();
  void tick();
  void emit_row(SimTime nominal);
  void write_jsonl(const MetricsSnapshot& snapshot);
  void write_spans_jsonl();

  sim::Executor* executor_;
  Telemetry* telemetry_;
  TelemetryExporterConfig config_;
  SimTime horizon_ = 0;
  SimTime next_ = 0;  // next nominal tick time
  bool started_ = false;
  bool finished_ = false;
  std::uint64_t pending_tick_ = 0;
  bool tick_armed_ = false;
  std::vector<MetricsSnapshot> series_;
};

}  // namespace gfaas::telemetry
