// End-to-end SCF strong scaling on the execution-backend stack (the PR-5
// tentpole): the *whole* Kohn-Sham SCF loop — Chebyshev filter, CholGS/RR
// Gram overlaps, density accumulation, Fermi search, Anderson mixing —
// runs through dd::ExecBackend, so this bench measures what the per-kernel
// opt-ins of earlier PRs could not: Amdahl's law over the full solve.
//
// Workload: an LDA-XC SCF in a z-elongated box (8 x 8 x 96 cells) with a
// chain of Gaussian wells — the slab decomposition axis is long, so each
// of the 4 lanes owns 24 cell layers and ~92% of its per-step compute is
// interior work the async schedule can hide wire time behind. The Hartree
// solve is left out on purpose: at paper scale the electrostatics step is
// a few percent of the runtime (Table 3 — ChFES dominates), while in a
// box this small its PCG would be grossly overweighted; the threaded
// Poisson stiffness path is covered by tests/test_backend.cpp and the CI
// engine-scf-equivalence leg instead. Fixed iteration count (density_tol
// unreachable) keeps the work identical across every run.
//
// Section 1: strong scaling with a free wire — serial backend vs threaded
// slab-rank lanes {1, 2, 4}. On a single-core host this measures the
// backend's threading overhead (lanes timeshare the core); on a multicore
// host it is a true strong-scaling curve up to the physical core count.
//
// Section 2 (headline, gates the bench-regression CI tier): an injected
// wire delay calibrated against this machine's own per-step filter compute,
// synchronous halo waits vs the overlapped schedule, at two scopes. First
// the Chebyshev filter alone on the 4-lane engine (gate: >= 1.15x), then
// the whole 4-lane SCF — the paper's Sec. 5.4.3 claim at application
// scope: overlap must buy >= 1.5x on the end-to-end SCF, not just on the
// filter kernel in isolation.
//
// Every threaded run must also land on the serial total energy to
// <= 1e-8 Ha (the equivalence gate, emitted as a gauge). The threaded
// backend defaults to the FP32 halo wire, so the gate is the mixed-
// precision drift budget rather than the old bitwise 1e-10; the FP64-wire
// bitwise path is pinned by tests/test_backend.cpp, and the wire formats
// are compared head-to-head by bench_scf_mixed_precision.
//
// Flags: --quick  fewer SCF iterations (the CI preset).

#include <algorithm>
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

struct ScfRun {
  double wall = 0.0;
  ks::ScfResult res;
};

/// Best-of-`reps` SCF wall (the minimum filters scheduler jitter; every rep
/// computes identical results, so the kept ScfResult is rep-independent).
ScfRun run_scf(const fe::DofHandler& dofh, const ks::ScfOptions& opt,
               const std::vector<double>& vext, double nelec, int reps = 1) {
  ScfRun out;
  for (int rep = 0; rep < reps; ++rep) {
    obs::Context::current().trace().clear();
    ks::KohnShamDFT<double> dft(dofh, std::make_shared<xc::LdaPW92>(), {}, opt);
    dft.set_external_potential(vext, nelec);
    Timer t;
    auto res = dft.solve();
    const double wall = t.seconds();
    if (rep == 0 || wall < out.wall) {
      out.wall = wall;
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
      "End-to-end SCF strong scaling on the ExecBackend stack\n"
      "(whole solve on N slab-rank lanes; comm = calibrated injected wire)");

  const double Lxy = 8.0, Lz = 96.0;
  const fe::Mesh mesh(fe::make_uniform_axis(Lxy, 8), fe::make_uniform_axis(Lxy, 8),
                      fe::make_uniform_axis(Lz, 96));
  const fe::DofHandler dofh(mesh, 2);
  // Chain of four Gaussian wells along the slab axis, 12 electrons.
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

  std::printf("workload: p=2, %lld dofs (8 x 8 x 96 cells), %d states, Chebyshev\n"
              "degree %d, %d SCF iterations (fixed), LDA XC, 4-well chain / %.0f e-\n\n",
              static_cast<long long>(dofh.ndofs()), static_cast<int>(base.nstates),
              base.cheb_degree, base.max_iterations, nelec);

  // ---- Section 1: strong scaling, free wire ----
  const ScfRun serial = run_scf(dofh, base, vext, nelec);
  const double e_ref = serial.res.energy.total;

  TextTable st({"backend", "lanes", "SCF wall (s)", "speedup", "efficiency", "|dE| (Ha)"});
  st.add("serial", 1, TextTable::num(serial.wall, 3), "1.00", "100.0%", "0");
  double energy_diff = 0.0;
  double wall_lanes[3] = {0.0, 0.0, 0.0};
  const int lane_counts[3] = {1, 2, 4};
  for (int li = 0; li < 3; ++li) {
    ks::ScfOptions opt = base;
    opt.backend.kind = dd::BackendKind::threaded;
    opt.backend.nlanes = lane_counts[li];
    opt.backend.grid = {1, 1, lane_counts[li]};  // pin z-slabs; bricks are
    opt.backend.mode = dd::EngineMode::async;    // bench_scf_brick_scaling's job
    const ScfRun r = run_scf(dofh, opt, vext, nelec);
    wall_lanes[li] = r.wall;
    const double de = std::abs(r.res.energy.total - e_ref);
    energy_diff = std::max(energy_diff, de);
    st.add("threaded", lane_counts[li], TextTable::num(r.wall, 3),
           TextTable::num(serial.wall / r.wall, 2),
           TextTable::num(100.0 * serial.wall / (r.wall * lane_counts[li]), 1) + "%",
           TextTable::num(de, 2));
    if (lane_counts[li] == 4) {
      // Per-lane wall-time view of the 4-lane solve (needs tracing ON;
      // empty otherwise). The trace recorder was cleared before this run.
      std::printf("per-lane breakdown of the 4-lane SCF:\n");
      obs::lane_breakdown_table().print();
    }
  }
  st.print();
  std::printf("(on a single-core host the threaded rows measure backend overhead —\n"
              "lanes timeshare the core; scaling tops out at the physical core count)\n\n");

  // ---- Section 2: sync vs async under a calibrated injected wire ----
  // Calibration probe: per-step filter compute at the SCF's own block size
  // on a free wire, measured on the real engine over this discretization.
  // The injected delay is 0.8x of that — just inside each lane's interior
  // compute (22 of 24 owned cell layers), the regime where the overlapped
  // schedule can hide the wire completely but the synchronous one pays it
  // on every recurrence step.
  dd::EngineOptions popt;
  popt.nlanes = 4;
  popt.grid = {1, 1, 4};
  popt.mode = dd::EngineMode::sync;
  ks::Hamiltonian<double> H(dofh);
  H.set_potential(std::vector<double>(dofh.ndofs(), -0.3));
  auto op = [&H](const std::vector<double>& x, std::vector<double>& y) { H.apply(x, y); };
  const double b = la::lanczos_upper_bound<double>(op, H.n(), 14);
  const double a0 = -1.3, a = a0 + 0.15 * (b - a0);
  la::Matrix<double> X0(dofh.ndofs(), base.block_size), X(dofh.ndofs(), base.block_size);
  for (index_t i = 0; i < X0.size(); ++i) X0.data()[i] = std::sin(0.17 * i);
  double step_compute = 0.0;
  {
    X = X0;
    dd::RankEngine<double> probe(dofh, popt);
    probe.set_potential(H.potential());
    probe.filter_block(X, 0, X.cols(), base.cheb_degree, a, b, a0);
    const auto& stats = probe.last_step_stats();
    for (const auto& s : stats) step_compute += s.compute;
    step_compute /= static_cast<double>(stats.size());
  }
  const double delay = 0.8 * step_compute;
  // Packet bytes under the wire format the SCF backend will actually use
  // (the threaded default is FP32): calibrating against FP64 packets would
  // halve the realized per-packet sleep and understate the sync/async gap.
  const std::int64_t bytes = dofh.naxis(0) * dofh.naxis(1) * base.block_size *
                             wire_value_bytes<double>(dd::BackendOptions{}.wire);
  dd::CommModel net;
  net.latency_s = 2e-6;
  net.bandwidth_bytes_per_s =
      static_cast<double>(bytes) / std::max(delay - net.latency_s, 1e-6);
  std::printf("calibrated injected wire delay: %.2f ms per %d-col halo packet\n\n",
              1e3 * delay, static_cast<int>(base.block_size));

  // Filter-level ablation: the same {1,1,4} engine on the calibrated wire,
  // one Chebyshev filter pass, sync then async (best of 3 each).
  double filter_sync = 0.0, filter_async = 0.0;
  {
    dd::EngineOptions fopt = popt;
    fopt.wire = dd::BackendOptions{}.wire;
    fopt.inject_wire_delay = true;
    fopt.model = net;
    dd::RankEngine<double> eng(dofh, fopt);
    eng.set_potential(H.potential());
    auto filter_wall = [&](dd::EngineMode mode) {
      eng.set_mode(mode);
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        X = X0;
        Timer t;
        eng.filter_block(X, 0, X.cols(), base.cheb_degree, a, b, a0);
        best = (rep == 0) ? t.seconds() : std::min(best, t.seconds());
      }
      return best;
    };
    filter_sync = filter_wall(dd::EngineMode::sync);
    filter_async = filter_wall(dd::EngineMode::async);
  }
  const double filter_speedup = filter_sync / filter_async;
  TextTable ft({"filter schedule", "wall (s)", "speedup"});
  ft.add("sync", TextTable::num(filter_sync, 4), "1.00");
  ft.add("async", TextTable::num(filter_async, 4), TextTable::num(filter_speedup, 2));
  ft.print();
  std::printf("measured filter-level async speedup at 4 lanes: %.2fx "
              "(acceptance gate: >= 1.15x)\n\n",
              filter_speedup);

  ks::ScfOptions dopt = base;
  dopt.backend.kind = dd::BackendKind::threaded;
  dopt.backend.nlanes = 4;
  dopt.backend.grid = {1, 1, 4};
  dopt.backend.inject_wire_delay = true;
  dopt.backend.model = net;

  dopt.backend.mode = dd::EngineMode::sync;
  const ScfRun sync = run_scf(dofh, dopt, vext, nelec, 2);
  dopt.backend.mode = dd::EngineMode::async;
  const ScfRun async = run_scf(dofh, dopt, vext, nelec, 2);
  energy_diff = std::max(energy_diff, std::abs(sync.res.energy.total - e_ref));
  energy_diff = std::max(energy_diff, std::abs(async.res.energy.total - e_ref));
  const double speedup = sync.wall / async.wall;

  TextTable dt({"schedule", "SCF wall (s)", "speedup"});
  dt.add("sync", TextTable::num(sync.wall, 3), "1.00");
  dt.add("async", TextTable::num(async.wall, 3), TextTable::num(speedup, 2));
  dt.print();
  std::printf("measured end-to-end async speedup at 4 lanes: %.2fx "
              "(acceptance gate: >= 1.5x)\n",
              speedup);
  std::printf("max |E_threaded - E_serial| over all runs: %.3e Ha "
              "(gate: <= 1e-8; FP32 default wire)\n\n",
              energy_diff);

  bench::emit_bench_artifact("scf_strong_scaling", "scf_strong",
                             {{"lanes", 4.0},
                              {"serial_wall_s", serial.wall},
                              {"lanes1_wall_s", wall_lanes[0]},
                              {"lanes2_wall_s", wall_lanes[1]},
                              {"lanes4_wall_s", wall_lanes[2]},
                              {"sync_wall_s", sync.wall},
                              {"async_wall_s", async.wall},
                              {"speedup", speedup},
                              {"filter_speedup", filter_speedup},
                              {"injected_delay_s", delay},
                              {"energy_diff_ha", energy_diff},
                              {"energy_agree", energy_diff <= 1e-8 ? 1.0 : 0.0}});
  return 0;
}
