#pragma once

// Telemetry exporters:
//  * chrome_trace_json / write_chrome_trace — the recorder's spans in Chrome
//    trace-event format ("X" complete events); load the file directly in
//    chrome://tracing or https://ui.perfetto.dev.
//  * metrics_snapshot_json / write_metrics_snapshot — one flat JSON object
//    combining the MetricsRegistry (counters/gauges/series/histograms), the
//    per-step wall times (the "profile" view of the span histograms), and
//    the FlopCounter per-step FLOP attribution. This is the machine-readable
//    form of the paper's Table 3.
//  * step_breakdown_table — the human-readable Table-3-layout text table
//    (per-step wall / GFLOP / GFLOPS / optional %-of-peak).
//
// Every exporter reads one obs::Context, by default the calling thread's
// current one.

#include <ostream>
#include <string>
#include <vector>

#include "base/table.hpp"
#include "obs/context.hpp"

namespace dftfe::obs {

/// The paper's canonical per-step names (Sec. 6.3 / Table 3 order).
/// CholGS-CI and RR-D are "minor" steps: their wall time is reported but
/// their O(N^3) FLOPs are not charged to the totals, matching the paper.
struct CanonicalStep {
  const char* name;
  bool minor;
};
const std::vector<CanonicalStep>& canonical_steps();

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(const std::string& s);

/// The "profile" object of both JSON schemas (dftfe.metrics.v1,
/// dftfe.runreport.v1): per span name, {"seconds": histogram sum,
/// "count": histogram count}.
void append_profile_json(std::ostream& os,
                         const std::map<std::string, Histogram, std::less<>>& histograms);

std::string chrome_trace_json(const Context& ctx = Context::current());
/// Write the Chrome trace to `path`; returns false on I/O failure.
bool write_chrome_trace(const std::string& path, const Context& ctx = Context::current());

std::string metrics_snapshot_json(const Context& ctx = Context::current());
bool write_metrics_snapshot(const std::string& path, const Context& ctx = Context::current());

/// Table-3-layout breakdown of the canonical steps plus a "DH+EP+Others"
/// remainder row and a TOTAL row. `total_wall` is the measured wall time the
/// remainder is computed against; `peak_gflops > 0` adds a %-of-peak column.
TextTable step_breakdown_table(double total_wall, double peak_gflops = 0.0,
                               const Context& ctx = Context::current());

/// Per-lane breakdown of lane-tagged spans (CF-lane, CF-halo, Gram-lane,
/// DC-lane, Engine-apply): one row per span name, one wall-time column per
/// lane — the per-rank view of the Table-3 step breakdown. Built from the
/// recorder's events, so it needs DFTFE_ENABLE_TRACING=ON (the table is
/// empty otherwise).
TextTable lane_breakdown_table(const Context& ctx = Context::current());

}  // namespace dftfe::obs
