#include "telemetry/exporter.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/log.h"
#include "telemetry/csv.h"

namespace gfaas::telemetry {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

TelemetryExporter::TelemetryExporter(sim::Executor* executor,
                                     Telemetry* telemetry,
                                     TelemetryExporterConfig config)
    : executor_(executor), telemetry_(telemetry), config_(std::move(config)) {
  GFAAS_CHECK(executor_ != nullptr && telemetry_ != nullptr);
  GFAAS_CHECK(config_.interval > 0);
}

TelemetryExporter::~TelemetryExporter() {
  if (tick_armed_) executor_->cancel(pending_tick_);
}

void TelemetryExporter::start(SimTime horizon) {
  GFAAS_CHECK(!started_) << "TelemetryExporter::start called twice";
  started_ = true;
  horizon_ = horizon;
  // Anchor the nominal grid at an interval multiple, not the raw now():
  // a wall-clock executor is already a few microseconds past zero by the
  // time start() runs, and without the snap every row would inherit that
  // jitter — breaking the sim/realtime byte-comparability contract.
  const SimTime at = (executor_->now() / config_.interval) * config_.interval;
  emit_row(at);
  next_ = at + config_.interval;
  arm();
}

void TelemetryExporter::finish() {
  if (!started_ || finished_) return;
  finished_ = true;
  if (tick_armed_) {
    executor_->cancel(pending_tick_);
    tick_armed_ = false;
  }
  // Final row lands on the next nominal boundary so sim and realtime
  // runs emit identical timestamps regardless of when the workload
  // actually drained.
  emit_row(next_);
  if (config_.export_spans && config_.jsonl != nullptr) write_spans_jsonl();
  if (config_.jsonl != nullptr) config_.jsonl->flush();
}

const MetricsSnapshot& TelemetryExporter::last() const {
  GFAAS_CHECK(!series_.empty()) << "no telemetry rows emitted yet";
  return series_.back();
}

void TelemetryExporter::arm() {
  if (next_ > horizon_) return;
  const SimTime delay = std::max<SimTime>(0, next_ - executor_->now());
  pending_tick_ = executor_->schedule_after(delay, [this] { tick(); });
  tick_armed_ = true;
}

void TelemetryExporter::tick() {
  tick_armed_ = false;
  if (finished_) return;
  emit_row(next_);
  next_ += config_.interval;
  arm();
}

void TelemetryExporter::emit_row(SimTime nominal) {
  MetricsSnapshot snap = telemetry_->snapshot_now(nominal);
  snap.label = config_.label;
  if (config_.jsonl != nullptr) write_jsonl(snap);
  series_.push_back(std::move(snap));
}

void TelemetryExporter::write_jsonl(const MetricsSnapshot& snapshot) {
  std::ostream& out = *config_.jsonl;
  char buf[64];
  out << "{\"run\":\"" << json_escape(snapshot.label) << "\",\"t_s\":";
  std::snprintf(buf, sizeof(buf), "%.6f", sim_to_seconds(snapshot.at));
  out << buf;
  for (const auto& [name, value] : snapshot.values) {
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    out << ",\"" << name << "\":" << buf;
  }
  out << "}\n";
}

void TelemetryExporter::write_spans_jsonl() {
  std::ostream& out = *config_.jsonl;
  char buf[64];
  for (const SpanRecord& span : telemetry_->spans().snapshot()) {
    out << "{\"run\":\"" << json_escape(config_.label) << "\",\"span\":\""
        << span_event_name(span.event) << "\",\"request\":" << span.request
        << ",\"t_s\":";
    std::snprintf(buf, sizeof(buf), "%.6f", sim_to_seconds(span.at));
    out << buf << ",\"gpu\":" << span.gpu << ",\"detail\":" << span.detail
        << "}\n";
  }
}

std::string TelemetryExporter::to_csv() const {
  // Union of metric names across all rows (runs can register metrics
  // lazily, e.g. per-model gauges appearing mid-run).
  std::set<std::string> names;
  for (const MetricsSnapshot& snap : series_) {
    for (const auto& [name, value] : snap.values) names.insert(name);
  }
  std::vector<std::string> columns;
  columns.reserve(names.size() + 2);
  columns.push_back("time_s");
  columns.push_back("run");
  columns.insert(columns.end(), names.begin(), names.end());
  CsvWriter csv(columns);
  for (const MetricsSnapshot& snap : series_) {
    std::vector<std::string> row;
    row.reserve(columns.size());
    row.push_back(CsvWriter::field(sim_to_seconds(snap.at)));
    row.push_back(snap.label);
    for (const std::string& name : names) {
      row.push_back(snap.has(name) ? CsvWriter::field(snap.value(name))
                                   : std::string());
    }
    csv.add_row(std::move(row));
  }
  return csv.str();
}

void TelemetryExporter::dump(std::FILE* out) const {
  if (series_.empty()) {
    std::fprintf(out, "telemetry: no rows emitted\n");
    return;
  }
  dump_snapshot(series_.back(), out);
}

}  // namespace gfaas::telemetry
