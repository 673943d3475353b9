#pragma once

// Shared bench-harness utilities.
//
// "% of peak" methodology: the paper divides measured FLOP counts by the
// hardware's theoretical FP64 peak (Sec. 6.3). This machine exposes a single
// CPU core with no published peak, so the harness *calibrates* a peak as the
// best sustained GEMM throughput achieved by this library's own kernels on
// large matrices — every efficiency number is then "fraction of the best
// this machine + these kernels can do", the same normalization role the
// theoretical peak plays in the paper.
//
// Distributed scaling is emulated (one core, no network): compute times are
// measured for real on the full problem and divided across ranks (the
// paper's load balancing gives near-equal DoFs/rank); communication times
// come from the byte-accurate dd layer plus an explicit interconnect model.
// See DESIGN.md ("Hardware gates and substitutions").

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/table.hpp"
#include "base/timer.hpp"
#include "la/batched.hpp"
#include "la/blas.hpp"
#include "la/workspace_metrics.hpp"
#include "obs/export.hpp"
#include "obs/report.hpp"

namespace dftfe::bench {

/// Best sustained GEMM GFLOPS on this machine (cached across calls): the
/// maximum over the blocked large-GEMM and the strided-batched cell-GEMM
/// kernels, so no kernel can exceed "100% of peak".
inline double calibrated_peak_gflops() {
  static double peak = [] {
    double best = 0.0;
    {
      const index_t n = 512;
      la::MatrixD A(n, n), B(n, n), C(n, n);
      for (index_t i = 0; i < A.size(); ++i) {
        A.data()[i] = 0.3 + 1e-6 * i;
        B.data()[i] = 0.7 - 1e-6 * i;
      }
      for (int rep = 0; rep < 5; ++rep) {
        Timer t;
        la::gemm('N', 'N', 1.0, A, B, 0.0, C);
        best = std::max(best, 2.0 * n * n * n / t.seconds() / 1e9);
      }
    }
    {
      const index_t nd = 125, B = 64, batch = 24;
      la::MatrixD A(nd, nd);
      std::vector<double> X(nd * B * batch, 0.4), Y(nd * B * batch);
      for (index_t i = 0; i < A.size(); ++i) A.data()[i] = 1e-4 * (i % 89);
      for (int rep = 0; rep < 5; ++rep) {
        Timer t;
        la::gemm_strided_batched<double>('N', 'N', nd, B, nd, 1.0, A.data(), nd, 0, X.data(),
                                         nd, nd * B, 0.0, Y.data(), nd, nd * B, batch);
        best = std::max(best, 2.0 * nd * nd * B * batch / t.seconds() / 1e9);
      }
    }
    return best;
  }();
  return peak;
}

inline void print_preamble(const char* what) {
  std::printf("================================================================\n");
  std::printf("%s\n", what);
  std::printf("calibrated machine peak: %.2f GFLOPS (best large-GEMM throughput;\n"
              "see bench_common.hpp for the normalization methodology)\n",
              calibrated_peak_gflops());
  std::printf("================================================================\n");
}

inline std::string pct_of_peak(double gflops) {
  return TextTable::num(100.0 * gflops / calibrated_peak_gflops(), 1) + "%";
}

/// Write the current metrics snapshot (solver metrics + per-step wall times
/// + per-step FLOPs) as a machine-readable bench artifact, so every bench
/// run's numbers are trackable across commits. Call before clearing the
/// telemetry context.
///
/// Every artifact carries the host's calibrated GEMM peak and thread count
/// as `machine.*` gauges: tools/check_bench_regression.py uses the peak to
/// normalize wall times when the committed baseline was recorded on a
/// different machine than the CI runner comparing against it.
inline void write_bench_artifact(const std::string& path) {
  auto& m = obs::Context::current().metrics();
  m.gauge_set("machine.peak_gflops", calibrated_peak_gflops());
  m.gauge_set("machine.hw_threads",
              static_cast<double>(std::thread::hardware_concurrency()));
  if (obs::write_metrics_snapshot(path))
    std::printf("bench artifact: %s\n", path.c_str());
  else
    std::printf("bench artifact: FAILED to write %s\n", path.c_str());
}

/// The standard bench epilogue, shared by every artifact-producing bench:
/// publish the headline gauges as `<prefix>.<key>` (the names
/// tools/check_bench_regression.py compares against bench/baselines/), write
/// `BENCH_<name>.json`, then clear the current telemetry context so state
/// never leaks into a subsequent bench run in the same process (ctest smoke
/// runs, scripts that chain benches).
inline void emit_bench_artifact(const std::string& name, const std::string& prefix = "",
                                const std::vector<std::pair<std::string, double>>& gauges = {}) {
  auto& m = obs::Context::current().metrics();
  for (const auto& [key, value] : gauges)
    m.gauge_set(prefix.empty() ? key : prefix + "." + key, value);
  write_bench_artifact("BENCH_" + name + ".json");
  // RunReport flight-recorder twin of the flat snapshot: span tree + comm /
  // memory / convergence ledgers, diffable with tools/report_diff.py. Must
  // also be written before the context is cleared below.
  la::publish_workspace_metrics();
  const std::string report_path = "RUNREPORT_" + name + ".json";
  if (obs::write_run_report(report_path, obs::build_run_report(name)))
    std::printf("run report:     %s\n", report_path.c_str());
  obs::Context::current().clear();
}

}  // namespace dftfe::bench
