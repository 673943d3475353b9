// Slab vs 3D-brick domain decomposition at 8 lanes, end to end (the brick
// tentpole's perf gate). On a cube the z-slab layout stops scaling: at 8
// lanes each slab is 1-2 cell layers thick, so nearly every dof sits on an
// interface plane and the halo traffic grows with the full cross-section
// area per cut. The surface-minimizing 2 x 2 x 2 brick grid cuts all three
// axes once: each lane's halo is three small faces (plus edge/corner slivers)
// instead of two full planes, and the interior fraction per lane stays high
// enough for the async schedule to hide the wire.
//
// Section 1 (byte-exact, free wire): one operator apply at 8 lanes on the
// slab {1,1,8} and brick {2,2,2} partitions of the same discretization;
// dd-layer byte accounting gives the exact halo traffic of each. The brick
// total must be *strictly lower* — this is the acceptance gauge
// scf_brick.halo_bytes_improved. Also prints the modeled Gram-reduction
// wall at 8 lanes: flat all-to-lane-0 vs the engine's stride-doubling tree
// (pipeline.hpp allreduce_flat_time / allreduce_tree_time).
//
// Section 2 (headline, gates the bench-regression CI tier): the whole
// Kohn-Sham SCF at 8 lanes under an injected wire delay calibrated against
// this machine's own per-step filter compute (the emulation convention of
// bench_scf_strong_scaling — one core, byte-accurate comm, modeled
// interconnect), in the slab-comm-bound regime: 1-2-layer slabs have no
// interior, so they pay the full-plane wire exposed on every recurrence
// step under either schedule, while the brick grid moves half the bytes in
// quarter-plane faces and overlaps them behind its 4^3-cell interiors.
// scf_brick.speedup8 = best slab wall / best brick wall, acceptance gate
// >= 1.5x. Every threaded run must land on the serial total energy to
// <= 1e-8 Ha (FP32 default wire, same budget as the slab benches).
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
#include "dd/pipeline.hpp"
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

/// Best-of-`reps` SCF wall (minimum filters scheduler jitter; every rep
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
      "SCF at 8 lanes: z-slab vs 3D-brick domain decomposition\n"
      "(byte-exact halo accounting + whole solve under a calibrated wire)");

  // Cube workload: the geometry where slabs are weakest and bricks pay off.
  // 12^3 cells, p=2 -> 25^3 dofs; {2,2,2} bricks own 6^3-cell sub-boxes
  // while {1,1,8} slabs are squeezed to 1-2 cell layers each.
  const double L = 12.0;
  const fe::Mesh mesh = fe::make_uniform_mesh(L, 12, false);
  const fe::DofHandler dofh(mesh, 2);
  // Tetrahedral cluster of Gaussian wells at the box center, 12 electrons.
  std::vector<double> vext(dofh.ndofs());
  const double c = L / 2;
  const double sites[4][3] = {
      {c - 1.2, c - 1.2, c - 1.2}, {c + 1.2, c + 1.2, c - 1.2},
      {c + 1.2, c - 1.2, c + 1.2}, {c - 1.2, c + 1.2, c + 1.2}};
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    double v = 0.0;
    for (const auto& s : sites) {
      const double dx = p[0] - s[0], dy = p[1] - s[1], dz = p[2] - s[2];
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

  const std::array<int, 3> slab_grid{1, 1, 8};
  const std::array<int, 3> brick_grid{2, 2, 8 / (2 * 2)};
  std::printf("workload: p=2, %lld dofs (12^3 cells), %d states, Chebyshev degree %d,\n"
              "%d SCF iterations (fixed), LDA XC, 4-well cluster / %.0f e-\n\n",
              static_cast<long long>(dofh.ndofs()), static_cast<int>(base.nstates),
              base.cheb_degree, base.max_iterations, nelec);

  // ---- Section 1: exact halo bytes per apply, slab vs brick at 8 lanes ----
  std::int64_t halo_bytes[2] = {0, 0};
  {
    ks::Hamiltonian<double> H(dofh);
    H.set_potential(std::vector<double>(dofh.ndofs(), -0.3));
    la::Matrix<double> X(dofh.ndofs(), base.block_size), Y;
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.17 * i);
    const std::array<int, 3> grids[2] = {slab_grid, brick_grid};
    TextTable bt({"partition", "grid", "halo bytes / apply", "messages"});
    for (int gi = 0; gi < 2; ++gi) {
      dd::EngineOptions eopt;
      eopt.grid = grids[gi];
      eopt.nlanes = 8;
      dd::RankEngine<double> eng(dofh, eopt);
      eng.set_potential(H.potential());
      eng.apply(X, Y);
      halo_bytes[gi] = eng.comm_stats().bytes;
      char gbuf[24];
      std::snprintf(gbuf, sizeof gbuf, "%dx%dx%d", grids[gi][0], grids[gi][1],
                    grids[gi][2]);
      bt.add(gi == 0 ? "z-slab" : "brick", gbuf,
             static_cast<long long>(halo_bytes[gi]),
             static_cast<long long>(eng.comm_stats().messages));
    }
    bt.print();
    std::printf("brick / slab halo bytes: %.3f (acceptance: strictly < 1)\n\n",
                static_cast<double>(halo_bytes[1]) / static_cast<double>(halo_bytes[0]));
  }

  // Modeled Gram combine at 8 lanes: one nstates^2 FP64 partial per hop.
  dd::CommModel gram_net;
  const double gram_msg =
      gram_net.time(static_cast<std::int64_t>(base.nstates) * base.nstates * 8, 1);
  const double flat_s = dd::allreduce_flat_time(gram_msg, 8);
  const double tree_s = dd::allreduce_tree_time(gram_msg, 8);
  std::printf("modeled Gram reduction at 8 lanes (%d^2 FP64 partials):\n"
              "  flat all-to-lane-0: %.1f us   stride-doubling tree: %.1f us (%.2fx)\n\n",
              static_cast<int>(base.nstates), 1e6 * flat_s, 1e6 * tree_s,
              flat_s / tree_s);

  // ---- Section 2: whole SCF at 8 lanes under a calibrated injected wire ----
  const ScfRun serial = run_scf(dofh, base, vext, nelec);
  const double e_ref = serial.res.energy.total;

  // Calibration probe: slab per-step filter compute on a free wire. At 8
  // lanes on this cube each slab is 1-2 cell layers — all boundary, no
  // interior — so the slab *cannot* hide wire time behind compute in either
  // schedule; it is the comm-bound corner the paper's 3D decomposition
  // targets. The injected delay makes that regime explicit: 4x a filter
  // step's compute per full-plane slab packet. The modeled bandwidth then
  // charges the brick's quarter-plane faces proportionally less
  // (byte-accurate ready stamps), and the brick's 4^3-cell interiors give
  // the async schedule something to hide the remainder behind.
  double step_compute = 0.0;
  {
    ks::Hamiltonian<double> H(dofh);
    H.set_potential(std::vector<double>(dofh.ndofs(), -0.3));
    auto op = [&H](const std::vector<double>& x, std::vector<double>& y) { H.apply(x, y); };
    const double b = la::lanczos_upper_bound<double>(op, H.n(), 14);
    const double a0 = -1.3, a = a0 + 0.15 * (b - a0);
    la::Matrix<double> X(dofh.ndofs(), base.block_size);
    for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.17 * i);
    dd::EngineOptions popt;
    popt.nlanes = 8;
    popt.grid = slab_grid;
    popt.mode = dd::EngineMode::sync;
    dd::RankEngine<double> probe(dofh, popt);
    probe.set_potential(H.potential());
    probe.filter_block(X, 0, X.cols(), base.cheb_degree, a, b, a0);
    const auto& stats = probe.last_step_stats();
    for (const auto& s : stats) step_compute += s.compute;
    step_compute /= static_cast<double>(stats.size());
  }
  const double delay = 4.0 * step_compute;
  const std::int64_t slab_packet = dofh.naxis(0) * dofh.naxis(1) * base.block_size *
                                   wire_value_bytes<double>(dd::BackendOptions{}.wire);
  dd::CommModel net;
  net.latency_s = 2e-6;
  net.bandwidth_bytes_per_s =
      static_cast<double>(slab_packet) / std::max(delay - net.latency_s, 1e-6);
  std::printf("calibrated injected wire delay: %.2f ms per full-plane slab packet\n",
              1e3 * delay);

  double energy_diff = 0.0;
  double walls[2][2] = {{0.0, 0.0}, {0.0, 0.0}};  // [slab|brick][sync|async]
  TextTable st({"partition", "schedule", "SCF wall (s)", "vs slab-sync", "|dE| (Ha)"});
  for (int gi = 0; gi < 2; ++gi) {
    for (int mi = 0; mi < 2; ++mi) {
      ks::ScfOptions opt = base;
      opt.backend.kind = dd::BackendKind::threaded;
      opt.backend.nlanes = 8;
      opt.backend.grid = gi == 0 ? slab_grid : brick_grid;
      opt.backend.mode = mi == 0 ? dd::EngineMode::sync : dd::EngineMode::async;
      opt.backend.inject_wire_delay = true;
      opt.backend.model = net;
      const ScfRun r = run_scf(dofh, opt, vext, nelec, quick ? 1 : 2);
      walls[gi][mi] = r.wall;
      const double de = std::abs(r.res.energy.total - e_ref);
      energy_diff = std::max(energy_diff, de);
      st.add(gi == 0 ? "z-slab" : "brick", mi == 0 ? "sync" : "async",
             TextTable::num(r.wall, 3), TextTable::num(walls[0][0] / r.wall, 2),
             TextTable::num(de, 2));
      if (gi == 1 && mi == 1) {
        std::printf("per-lane breakdown of the brick-async SCF:\n");
        obs::lane_breakdown_table().print();
      }
    }
  }
  st.print();
  // Best schedule of each partition: with no slab interior the two slab
  // schedules tie, so this is decomposition geometry head-to-head.
  const double speedup8 = std::min(walls[0][0], walls[0][1]) /
                          std::min(walls[1][0], walls[1][1]);
  std::printf("measured 8-lane speedup, best brick over best slab: %.2fx "
              "(acceptance gate: >= 1.5x)\n",
              speedup8);
  std::printf("max |E_threaded - E_serial| over all runs: %.3e Ha "
              "(gate: <= 1e-8; FP32 default wire)\n\n",
              energy_diff);

  bench::emit_bench_artifact(
      "scf_brick_scaling", "scf_brick",
      {{"lanes", 8.0},
       {"serial_wall_s", serial.wall},
       {"slab_sync_wall_s", walls[0][0]},
       {"slab_async_wall_s", walls[0][1]},
       {"brick_sync_wall_s", walls[1][0]},
       {"brick_async_wall_s", walls[1][1]},
       {"speedup8", speedup8},
       {"slab_halo_bytes", static_cast<double>(halo_bytes[0])},
       {"brick_halo_bytes", static_cast<double>(halo_bytes[1])},
       {"halo_bytes_improved", halo_bytes[1] < halo_bytes[0] ? 1.0 : 0.0},
       {"gram_allreduce_flat_s", flat_s},
       {"gram_allreduce_tree_s", tree_s},
       {"injected_delay_s", delay},
       {"energy_diff_ha", energy_diff},
       {"energy_agree", energy_diff <= 1e-8 ? 1.0 : 0.0}});
  return 0;
}
