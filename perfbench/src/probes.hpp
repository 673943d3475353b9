#pragma once

// Layer probes of the traced run. They run after the timed solve, on the
// job's converged state, and call the program's public functions from the
// outside: each call is repeated, recorded as a span, and reported as the
// median of its spans. Nothing here runs in an untraced run.

#include <cstdint>
#include <map>
#include <string>

#include "core/job.hpp"
#include "outcome.hpp"
#include "spans.hpp"

namespace perfbench {

/// Per-layer metrics by name, each with its unit.
using MetricMap = std::map<std::string, Metric>;

void set_metric(MetricMap& m, const std::string& name, double value, const std::string& unit);

struct ProbeTarget {
  dftfe::core::JobState& job;  // after a converged Gamma-point run()
  const dftfe::ks::ScfOptions& scf;
  const dftfe::dd::BackendOptions& backend;  // the job's execution backend
};

/// ks.*, fe.*, la.* (kernels), xc.* probes on any workload.
void probe_solver_layers(ProbeTarget& t, SpanRecorder& rec, std::int64_t parent,
                         MetricMap& out);
/// dd.* probes: threaded vs serial backends on the job's converged block.
void probe_dd(ProbeTarget& t, SpanRecorder& rec, std::int64_t parent, MetricMap& out);
/// svc.checkpoint_* probes on the job's save_scf_state(), written under dir.
void probe_checkpoint(ProbeTarget& t, const std::string& dir, SpanRecorder& rec,
                      std::int64_t parent, MetricMap& out);
/// la.fma_peak_gflops and la.triad_gbytes_s, plus ks.cf_pct_fma_peak when
/// ks.cf_nominal_gflops is already in `out`.
void probe_hardware(SpanRecorder& rec, std::int64_t parent, MetricMap& out);

}  // namespace perfbench
