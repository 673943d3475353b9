#pragma once

// RunReport: the per-run flight recorder artifact.
//
// One versioned, schema-stable JSON document per solver run that unifies the
// telemetry currently scattered across exporters:
//   * a hierarchical span tree (from the TraceRecorder) with per-lane wall
//     attribution and self-vs-total seconds per node,
//   * a communication ledger — bytes on the wire per precision, message
//     counts, exposed vs overlapped halo wait, modeled wire seconds, pack
//     time, and the FP32-wire drift error-budget gauge,
//   * a memory ledger — Workspace allocation counters, named pool high-water
//     marks / lease counts, and per-lane engine working-set high-water marks,
//   * a convergence record — every time series the run appended: the scf.*
//     series (residual, Fermi level, band energy, Anderson depth, Chebyshev
//     degree) and the inner solves' (poisson.iterations,
//     invdft*.minres_iterations, relax.*), plus a numerical-health section,
//   * the bounded-memory span-duration / message-latency histograms, their
//     per-step wall "profile" view (sum/count per span name), and the raw
//     FlopCounter / counter / gauge dumps.
//
// The producers push everything into the current obs::Context's registry
// under the ledger vocabulary (comm.wire.*, comm.halo.*, comm.lane<k>.*,
// mem.*, scf.*); build_run_report() only *reads* the context, so obs stays
// at the bottom of the layer stack.
//
// Schema: "dftfe.runreport.v1". Versioning policy: fields are append-only
// within a major version — readers must ignore unknown keys; removing or
// renaming a field bumps the version string. Emission is a pure function of
// the RunReport struct with deterministic ordering (maps sorted, span
// children sorted by name, doubles in shortest round-trip %.17g form), so
// emit -> parse -> re-emit is byte-identical; tools/report_diff.py relies on
// this to diff reports structurally.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/context.hpp"

namespace dftfe::obs {

/// One aggregated node of the span tree: all events that shared the same
/// name-path from a root span, pooled over threads and lanes.
struct ReportSpan {
  std::string name;
  std::int64_t count = 0;  // number of completed events on this path
  double total_s = 0.0;    // inclusive wall (sum over events)
  double self_s = 0.0;     // total minus time inside child spans
  std::map<int, double> lane_s;  // inclusive wall attributed per lane
  std::vector<ReportSpan> children;  // sorted by name
};

struct CommLedger {
  struct WireLine {
    double bytes = 0.0;
    double messages = 0.0;
  };
  WireLine fp64;
  WireLine fp32;
  WireLine bf16;
  double exposed_wait_s = 0.0;  // halo wait the compute could not hide
  double modeled_s = 0.0;       // modeled wire time for the same traffic
  double pack_s = 0.0;          // demote/copy time into wire slots
  double fp32_drift_rms = 0.0;  // RMS relative demotion error (error budget)
  double bf16_drift_rms = 0.0;  // same, BF16 wire
  double drift_budget_used = 0.0;  // worst drift RMS / configured budget
  struct LaneLine {
    int lane = 0;
    double bytes = 0.0;
    double messages = 0.0;
    double exposed_wait_s = 0.0;
  };
  std::vector<LaneLine> lanes;  // sorted by lane
};

struct MemoryLedger {
  double allocations = 0.0;     // WorkspaceCounters::allocations
  double bytes_allocated = 0.0; // cumulative backing-buffer bytes
  double checkouts = 0.0;       // pool checkouts (pool hits + misses)
  struct PoolLine {
    double highwater_bytes = 0.0;
    double leases = 0.0;
  };
  std::map<std::string, PoolLine> pools;  // named Workspace pools
  struct LaneLine {
    int lane = 0;
    double highwater_bytes = 0.0;
  };
  std::vector<LaneLine> lanes;  // engine per-lane working-set high water
};

struct ConvergenceRecord {
  std::int64_t iterations = 0;
  bool converged = false;
  double residual_final = 0.0;
  std::map<std::string, std::vector<double>, std::less<>> series;  // every time series
  // Numerical-health section.
  double fp32_drift_rms = 0.0;
  std::int64_t trace_dropped = 0;
};

struct RunReport {
  std::string label;
  double wall_s = 0.0;
  std::int64_t nlanes = 0;
  std::vector<ReportSpan> spans;  // root spans, sorted by name
  CommLedger comm;
  MemoryLedger memory;
  ConvergenceRecord convergence;
  // Span histograms; the JSON "profile" section is emitted from them.
  std::map<std::string, Histogram, std::less<>> histograms;
  std::map<std::string, double, std::less<>> counters;
  std::map<std::string, double, std::less<>> gauges;
  double flops_total = 0.0;
  std::map<std::string, double> flop_steps;
};

/// Assemble a RunReport from a live context. `wall_s < 0` derives the wall
/// from the recorded span timestamps (falling back to the "Simulation-run"
/// span histogram when tracing is compiled out).
RunReport build_run_report(const std::string& label, double wall_s = -1.0,
                           const Context& ctx = Context::current());

/// Serialize (schema dftfe.runreport.v1, single line, deterministic order).
std::string run_report_json(const RunReport& report);

/// Serialize to `path` (a trailing newline is appended); false on I/O error.
bool write_run_report(const std::string& path, const RunReport& report);

/// Parse a dftfe.runreport.v1 document back into a RunReport. Returns false
/// on malformed JSON or a schema mismatch. Unknown keys are ignored
/// (append-only schema policy).
bool parse_run_report(const std::string& text, RunReport& out);

}  // namespace dftfe::obs
