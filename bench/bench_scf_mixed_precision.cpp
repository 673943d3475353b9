// Whole-SCF mixed-precision comparison (Sec. 5.4.2), successor to the old
// per-kernel mixed-precision ablation: instead of timing CholGS-S / RR-P in
// isolation, this bench runs the *entire* Kohn-Sham SCF loop through the
// threaded ExecBackend under each wire format and gates the paper's claim —
// reduced-precision communication plus FP32 off-diagonal subspace blocks buy
// a measured end-to-end speedup at FP64-level accuracy — as numbers
// tools/check_bench_regression.py can enforce against a committed baseline.
//
// Variants (the product of the tentpole's two mixed-precision layers):
//   fp64  — FP64-everything: FP64 halo wire, FP64 full-precision Gram
//           (mixed_precision off). The accuracy and cost reference.
//   fp32  — the threaded default: FP32 halo wire + FP32 off-diagonal
//           CholGS-S/RR-P blocks with FP64 diagonal completion.
//   bf16  — BF16 halo wire (2 bytes/double) + the same FP32 subspace policy
//           (the gram wire stays FP32 under a BF16 halo).
//
// Section 1 — free wire, 1 and 4 lanes: isolates the *compute* effect of the
// FP32 subspace blocks (the wire is free, so the wire format is inert). The
// CholGS-S / RR-P attribution comes from the obs span histograms — the same
// ledger the RunReport carries.
//
// Section 2 (headline, gates the bench-regression CI tier) — 4 lanes,
// synchronous halo waits under an injected wire delay calibrated against
// this machine's own per-step filter compute: the sync schedule pays the
// modeled wire time on every recurrence step, so halving (FP32) or
// quartering (BF16) the wire bytes shows up as end-to-end SCF wall time.
// Gate: fp64 / fp32 wall >= 1.10x.
//
// Section 3 (the accuracy half of the gate) — energies of *unconverged*
// fixed-work runs differ at first order in the FP32 perturbation (~1e-6 Ha
// here), so the accuracy claim is gated where the paper makes it: at SCF
// convergence, where the energy is variationally stationary and wire/subspace
// rounding enters only at second order. A converged 4-lane FP32-wire
// mixed-precision solve must land on the converged FP64-everything energy to
// <= 1e-8 Ha.
//
// Every run's spans, comm ledger (typed wire bytes, drift gauges), and
// convergence series accumulate into RUNREPORT_scf_mixed_precision.json via
// emit_bench_artifact, diffable with tools/report_diff.py.
//
// Flags: --quick  fewer SCF iterations (the CI preset).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dd/backend.hpp"
#include "dd/engine.hpp"
#include "ks/hamiltonian.hpp"
#include "ks/scf.hpp"
#include "la/iterative.hpp"
#include "obs/context.hpp"
#include "xc/lda.hpp"

using namespace dftfe;

namespace {

struct Variant {
  const char* name;
  dd::Wire wire;
  bool mixed;
};

constexpr Variant kVariants[] = {
    {"fp64", dd::Wire::fp64, false},
    {"fp32", dd::Wire::fp32, true},
    {"bf16", dd::Wire::bf16, true},
};

struct ScfRun {
  double wall = 0.0;
  double dense_s = 0.0;  // CholGS-S + RR-P obs-span seconds of the kept rep
  ks::ScfResult res;
};

/// Span seconds of the dense subspace steps, read from the obs histogram
/// ledger (the RunReport carries the histogram sums, so the bench and the
/// flight recorder agree by construction).
double dense_span_seconds() {
  auto& m = obs::Context::current().metrics();
  return m.histogram("CholGS-S").sum + m.histogram("RR-P").sum;
}

/// Best-of-`reps` SCF wall (minimum filters scheduler jitter; every rep
/// computes identical results, so the kept ScfResult is rep-independent).
ScfRun run_scf(const fe::DofHandler& dofh, const ks::ScfOptions& opt,
               const std::vector<double>& vext, double nelec, int reps = 1) {
  ScfRun out;
  for (int rep = 0; rep < reps; ++rep) {
    obs::Context::current().trace().clear();
    const double dense0 = dense_span_seconds();
    ks::KohnShamDFT<double> dft(dofh, std::make_shared<xc::LdaPW92>(), {}, opt);
    dft.set_external_potential(vext, nelec);
    Timer t;
    auto res = dft.solve();
    const double wall = t.seconds();
    if (rep == 0 || wall < out.wall) {
      out.wall = wall;
      out.dense_s = dense_span_seconds() - dense0;
      out.res = std::move(res);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  bench::print_preamble(
      "Whole-SCF mixed precision (Sec. 5.4.2): FP64-everything vs FP32 wire +\n"
      "FP32 off-diagonal subspace blocks vs BF16 wire, on threaded lanes");

  // Same z-elongated workload as bench_scf_strong_scaling: the slab axis is
  // long, so 4 lanes see realistic interior-to-interface ratios.
  const double Lxy = 8.0, Lz = 96.0;
  const fe::Mesh mesh(fe::make_uniform_axis(Lxy, 8), fe::make_uniform_axis(Lxy, 8),
                      fe::make_uniform_axis(Lz, 96));
  const fe::DofHandler dofh(mesh, 2);
  std::vector<double> vext(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    double v = 0.0;
    for (int i = 0; i < 4; ++i) {
      const double dx = p[0] - Lxy / 2, dy = p[1] - Lxy / 2;
      const double dz = p[2] - (Lz / 2 + (i - 1.5) * 2.4);
      v -= 2.0 * std::exp(-(dx * dx + dy * dy + dz * dz) / 4.0);
    }
    vext[g] = v;
  }
  const double nelec = 12.0;

  ks::ScfOptions base;
  base.nstates = 16;
  base.temperature = 5e-3;
  base.cheb_degree = 24;
  base.block_size = 16;
  base.max_iterations = quick ? 3 : 5;
  base.first_iteration_cycles = 2;
  base.density_tol = 1e-14;  // unreachable on purpose: fixed-work benchmark
  base.include_hartree = false;
  // 16 states in 4-column tiles: 4x4 block grid, 12 of 16 blocks off-diagonal
  // — the FP32 subspace policy does real work (the default 64-column tile
  // would cover all 16 states with one FP64 diagonal block and be inert).
  base.mp_block = 4;
  base.backend.kind = dd::BackendKind::threaded;

  std::printf("workload: p=2, %lld dofs (8 x 8 x 96 cells), %d states, Chebyshev\n"
              "degree %d, %d SCF iterations (fixed), LDA XC, mp_block %d\n\n",
              static_cast<long long>(dofh.ndofs()), static_cast<int>(base.nstates),
              base.cheb_degree, base.max_iterations, static_cast<int>(base.mp_block));

  std::vector<std::pair<std::string, double>> gauges;

  // ---- Section 1: free wire, 1 and 4 lanes ----
  double e_ref = 0.0;  // FP64-everything single-lane total energy (fixed work)
  double dense64_s = 0.0, dense32_s = 0.0;  // 1-lane CholGS-S + RR-P seconds

  TextTable ft({"variant", "lanes", "SCF wall (s)", "CholGS-S + RR-P (s)", "|dE| (Ha)"});
  for (const int lanes : {1, 4}) {
    for (const Variant& var : kVariants) {
      ks::ScfOptions opt = base;
      opt.backend.nlanes = lanes;
      opt.backend.grid = {1, 1, lanes};  // pin z-slabs (wire calibration assumes them)
      opt.backend.wire = var.wire;
      opt.mixed_precision = var.mixed;
      const ScfRun r = run_scf(dofh, opt, vext, nelec);
      if (lanes == 1 && var.wire == dd::Wire::fp64) {
        e_ref = r.res.energy.total;
        dense64_s = r.dense_s;
      }
      if (lanes == 1 && var.wire == dd::Wire::fp32) dense32_s = r.dense_s;
      const double de = std::abs(r.res.energy.total - e_ref);
      ft.add(var.name, lanes, TextTable::num(r.wall, 3), TextTable::num(r.dense_s, 3),
             var.wire == dd::Wire::fp64 && lanes == 1 ? "reference"
                                                      : TextTable::sci(de, 2));
      gauges.emplace_back(std::string(var.name) + "_lanes" + std::to_string(lanes) +
                              "_wall_s",
                          r.wall);
    }
  }
  ft.print();
  std::printf("(free wire: the wire format is inert here; the fp32/bf16 rows isolate\n"
              "the FP32 off-diagonal CholGS-S / RR-P compute effect. |dE| on these\n"
              "unconverged fixed-work iterates is first-order in the rounding — the\n"
              "accuracy gate is the converged comparison of section 3)\n\n");

  // ---- Section 2: 4 lanes, sync halo waits, calibrated injected wire ----
  // Calibration probe: per-step filter compute at the SCF's own block size on
  // a free wire. The injected FP64-packet delay is 0.8x of that — inside the
  // lanes' interior compute, the regime where the sync schedule pays the full
  // modeled wire time on every recurrence step, so the byte reduction of the
  // FP32/BF16 formats converts to end-to-end wall time.
  dd::EngineOptions popt;
  popt.nlanes = 4;
  popt.grid = {1, 1, 4};
  popt.mode = dd::EngineMode::sync;
  double step_compute = 0.0;
  {
    ks::Hamiltonian<double> H(dofh);
    H.set_potential(std::vector<double>(dofh.ndofs(), -0.3));
    auto op = [&H](const std::vector<double>& x, std::vector<double>& y) { H.apply(x, y); };
    const double b = la::lanczos_upper_bound<double>(op, H.n(), 14);
    const double a0 = -1.3, a = a0 + 0.15 * (b - a0);
    la::Matrix<double> X(dofh.ndofs(), base.block_size);
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.17 * i);
    dd::RankEngine<double> probe(dofh, popt);
    probe.set_potential(H.potential());
    probe.filter_block(X, 0, X.cols(), base.cheb_degree, a, b, a0);
    const auto& stats = probe.last_step_stats();
    for (const auto& s : stats) step_compute += s.compute;
    step_compute /= static_cast<double>(stats.size());
  }
  const double delay = 0.8 * step_compute;
  const std::int64_t packet64 = dofh.naxis(0) * dofh.naxis(1) * base.block_size *
                                static_cast<std::int64_t>(sizeof(double));
  dd::CommModel net;
  net.latency_s = 2e-6;
  net.bandwidth_bytes_per_s =
      static_cast<double>(packet64) / std::max(delay - net.latency_s, 1e-6);
  std::printf("calibrated injected wire delay: %.2f ms per FP64 %d-col halo packet\n"
              "(FP32 packets take ~half, BF16 ~a quarter at the same bandwidth)\n",
              1e3 * delay, static_cast<int>(base.block_size));

  double wall[3] = {0.0, 0.0, 0.0};
  TextTable dt({"variant", "SCF wall (s)", "speedup vs fp64", "|dE| (Ha)"});
  for (int vi = 0; vi < 3; ++vi) {
    const Variant& var = kVariants[vi];
    ks::ScfOptions opt = base;
    opt.backend.nlanes = 4;
    opt.backend.grid = {1, 1, 4};
    opt.backend.mode = dd::EngineMode::sync;
    opt.backend.inject_wire_delay = true;
    opt.backend.model = net;
    opt.backend.wire = var.wire;
    opt.mixed_precision = var.mixed;
    const ScfRun r = run_scf(dofh, opt, vext, nelec, 2);
    wall[vi] = r.wall;
    const double de = std::abs(r.res.energy.total - e_ref);
    dt.add(var.name, TextTable::num(r.wall, 3),
           vi == 0 ? "1.00" : TextTable::num(wall[0] / r.wall, 2), TextTable::sci(de, 2));
  }
  dt.print();
  const double speedup = wall[0] / wall[1];
  const double bf16_speedup = wall[0] / wall[2];
  std::printf("measured end-to-end SCF speedup at 4 lanes (sync, injected wire):\n"
              "  fp32 wire + FP32 subspace blocks: %.2fx  (acceptance gate: >= 1.10x)\n"
              "  bf16 wire + FP32 subspace blocks: %.2fx\n\n",
              speedup, bf16_speedup);

  // ---- Section 3: accuracy at convergence ----
  // Both solves run to the same density tolerance; at the converged fixed
  // point the total energy is stationary, so the ~1e-7-relative FP32
  // wire/subspace rounding enters the energy only at second order.
  ks::ScfOptions conv = base;
  conv.max_iterations = 40;
  conv.density_tol = quick ? 1e-6 : 1e-7;
  conv.backend.nlanes = 1;
  conv.backend.wire = dd::Wire::fp64;  // FP64-everything reference...
  conv.mixed_precision = false;        // ...not the defaulted mixed policy
  const ScfRun c64 = run_scf(dofh, conv, vext, nelec);
  ks::ScfOptions conv32 = conv;
  conv32.backend.nlanes = 4;
  conv32.backend.grid = {1, 1, 4};
  conv32.backend.wire = dd::Wire::fp32;
  conv32.mixed_precision = true;
  const ScfRun c32 = run_scf(dofh, conv32, vext, nelec);
  const double energy_diff = std::abs(c32.res.energy.total - c64.res.energy.total);
  std::printf("converged accuracy gate (density_tol %.0e, %d + %d iterations):\n"
              "  |E_fp32_4lane - E_fp64_1lane| = %.3e Ha (gate: <= 1e-8; both %s)\n\n",
              conv.density_tol, c64.res.iterations, c32.res.iterations, energy_diff,
              c64.res.converged && c32.res.converged ? "converged" : "NOT CONVERGED");

  gauges.insert(gauges.end(),
                {{"lanes", 4.0},
                 {"injected_delay_s", delay},
                 {"fp64_sync_wall_s", wall[0]},
                 {"fp32_sync_wall_s", wall[1]},
                 {"bf16_sync_wall_s", wall[2]},
                 {"speedup", speedup},
                 {"bf16_speedup", bf16_speedup},
                 {"dense_fp64_s", dense64_s},
                 {"dense_fp32_s", dense32_s},
                 {"energy_diff_ha", energy_diff},
                 {"converged", c64.res.converged && c32.res.converged ? 1.0 : 0.0},
                 {"energy_agree", energy_diff <= 1e-8 ? 1.0 : 0.0}});
  bench::emit_bench_artifact("scf_mixed_precision", "scf_mixed", gauges);
  return 0;
}
