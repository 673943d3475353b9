// Figure 5 reproduction: strong scaling of one SCF iteration, baseline
// (FP64 wire, synchronous exchanges) vs mixed-precision + asynchronous
// compute/communication overlap (paper Secs. 5.4.2-5.4.3, Fig. 5).
//
// Paper (Summit, YbCd quasicrystal, 240 -> 1,920 nodes): the combined
// optimizations give 1.8x lower minimum wall time and lift parallel
// efficiency at 1,920 nodes from 36% to 54%.
//
// Emulation (one core, no network — see DESIGN.md): the per-iteration
// compute is *measured* on the real ChFES kernels and divided across ranks
// (the paper's partitioning delivers near-equal DoFs/rank); communication
// is byte-accurate from the dd layer (slab interfaces for CF, allreduce
// volumes for CholGS/RR) timed by an explicit interconnect model, with the
// async schedule played through the pipeline simulator. The reproduction
// target is the shape: efficiency decays with rank count, and FP32 wire +
// overlap roughly halves the penalty at scale.

#include <cstdio>

#include "bench_common.hpp"
#include "dd/engine.hpp"
#include "dd/exchange.hpp"
#include "dd/pipeline.hpp"
#include "ks/chfes.hpp"
#include "ks/hamiltonian.hpp"
#include "la/iterative.hpp"

using namespace dftfe;

int main() {
  bench::print_preamble(
      "Fig. 5 analog: strong scaling, baseline vs mixed-precision + async\n"
      "(workload: quasicrystal-analog ChFES iteration; comm = modeled NIC)");

  // Measured single-core workload.
  const fe::Mesh mesh = fe::make_uniform_mesh(14.0, 4, true);
  const int degree = 5;
  fe::DofHandler dofh(mesh, degree);
  ks::Hamiltonian<double> H(dofh);
  std::vector<double> v(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) v[g] = -0.5 / (1.0 + (g % 13));
  H.set_potential(v);
  const index_t N = 192, Bf = 64;
  const int cheb_degree = 10;
  ks::ChfesOptions copt;
  copt.block_size = Bf;
  copt.cheb_degree = cheb_degree;
  ks::ChebyshevFilteredSolver<double> solver(H, N, copt);
  solver.initialize_random(5);
  auto compute_seconds = [] {
    double s = 0.0;
    for (const char* step : {"CF", "CholGS-S", "CholGS-CI", "CholGS-O", "RR-P", "RR-D", "RR-SR"})
      s += obs::Context::current().metrics().histogram(step).sum;
    return s;
  };
  const double compute_before = compute_seconds();
  solver.cycle();
  const double compute_total = compute_seconds() - compute_before;
  std::printf("measured one-iteration compute on 1 core: %.3f s (dofs %lld, N %lld)\n\n",
              compute_total, static_cast<long long>(dofh.ndofs()), static_cast<long long>(N));

  dd::CommModel net;
  // Communication model, *balance-matched* to the target machine: our
  // emulated "node" computes at the measured single-core rate, a Summit node
  // at ~46.8 TFLOPS peak x ~30% application efficiency. The interconnect is
  // therefore time-dilated by the same factor, so the communication-to-
  // computation balance (bytes/FLOP) matches the real system and the
  // efficiency curves are in the physically right regime.
  obs::Context::current().flops().clear();
  {  // quick rate probe on the same kernels
    ks::ChebyshevFilteredSolver<double> probe(H, N, copt);
    probe.initialize_random(6);
    Timer tp;
    probe.cycle();
    const double rate = obs::Context::current().flops().total() / tp.seconds();
    const double node_rate = 46.8e12 * 0.30;
    const double dilation = node_rate / rate;
    std::printf("measured kernel rate %.2f GFLOPS; Summit-node effective rate assumed\n"
                "%.1f TFLOPS -> interconnect time-dilation factor %.0f\n\n",
                rate / 1e9, node_rate / 1e12, dilation);
    net.bandwidth_bytes_per_s = 23e9 / dilation;  // Summit EDR NIC / dilation
    net.latency_s = 1.5e-6 * dilation;
  }
  const index_t plane = dofh.naxis(0) * dofh.naxis(1);
  const index_t n_applies = cheb_degree;                 // per block
  const index_t n_blocks = (N + Bf - 1) / Bf;
  auto cf_comm_per_block = [&](bool fp32) {
    const index_t bytes = 2 * plane * Bf * (fp32 ? 4 : 8) * 2;  // 2 faces, send+recv
    return net.time(bytes, 4) * n_applies;
  };
  auto reduce_comm = [&](bool mixed, int ranks) {
    // CholGS-S + RR-P allreduces of the N x N matrices; with mixed precision
    // the off-diagonal blocks travel in FP32.
    const double frac64 = mixed ? 0.25 : 1.0;
    const index_t bytes =
        static_cast<index_t>(N * N * (frac64 * 8.0 + (1.0 - frac64) * (mixed ? 4.0 : 8.0)));
    return 2.0 * net.allreduce_time(bytes, ranks);
  };

  TextTable t({"nodes", "baseline (s)", "mp+async (s)", "speedup", "eff base", "eff mp+async"});
  const int r0 = 240;
  double base0 = 0.0, opt0 = 0.0;
  for (int ranks : {240, 480, 960, 1920}) {
    const double comp = compute_total / ranks * r0;  // strong scaling from r0 baseline size
    const double comp_block = comp / n_blocks;
    std::vector<dd::BlockTiming> base_blocks(n_blocks), opt_blocks(n_blocks);
    for (index_t b = 0; b < n_blocks; ++b) {
      base_blocks[b] = {comp_block, cf_comm_per_block(false)};
      opt_blocks[b] = {comp_block, cf_comm_per_block(true)};
    }
    const double t_base = dd::simulate_sync(base_blocks) + reduce_comm(false, ranks);
    const double t_opt = dd::simulate_overlap(opt_blocks) + reduce_comm(true, ranks);
    if (ranks == r0) {
      base0 = t_base;
      opt0 = t_opt;
    }
    t.add(ranks, TextTable::num(t_base, 4), TextTable::num(t_opt, 4),
          TextTable::num(t_base / t_opt, 2),
          TextTable::num(100.0 * base0 * r0 / (t_base * ranks), 1) + "%",
          TextTable::num(100.0 * opt0 * r0 / (t_opt * ranks), 1) + "%");
  }
  t.print();
  std::printf("paper Fig. 5: 1.8x faster minimum wall time; efficiency at 1,920 nodes\n"
              "36%% (baseline) -> 54%% (mixed precision + async). Shape target: the\n"
              "mp+async column stays faster and decays slower with rank count.\n\n");

  std::vector<std::pair<std::string, double>> measured;
  // ---- Measured strong scaling on the threaded rank engine ----
  // The modeled study above plays Summit-scale schedules on paper; this
  // section runs the real thing at this machine's scale: the same Chebyshev
  // filter through dd::SlabEngine at 1/2/4 lanes (one std::thread per slab
  // rank, halos through the double-buffered mailboxes), wall time measured.
  // Scaling tops out at the physical core count of the host.
  {
    const fe::Mesh emesh = fe::make_uniform_mesh(12.0, 12, false);
    fe::DofHandler edofh(emesh, 3);
    ks::Hamiltonian<double> eH(edofh);
    eH.set_potential(std::vector<double>(edofh.ndofs(), -0.3));
    auto op = [&eH](const std::vector<double>& x, std::vector<double>& y) { eH.apply(x, y); };
    const double eb = la::lanczos_upper_bound<double>(op, eH.n(), 14);
    const double ea0 = -1.3, ea = ea0 + 0.15 * (eb - ea0);
    la::Matrix<double> X0(edofh.ndofs(), 32), X(edofh.ndofs(), 32);
    for (index_t i = 0; i < X0.size(); ++i) X0.data()[i] = std::sin(0.17 * i);

    std::printf("measured threaded-engine strong scaling (p=3, %lld dofs, 32-col\n"
                "block, Chebyshev degree 10; host has %u hardware threads):\n",
                static_cast<long long>(edofh.ndofs()), std::thread::hardware_concurrency());
    TextTable et({"lanes", "wall (s)", "speedup", "efficiency"});
    double wall1 = 0.0;
    for (const int lanes : {1, 2, 4}) {
      dd::EngineOptions eopt;
      eopt.nlanes = lanes;
      eopt.grid = {1, 1, lanes};  // pin z-slabs: this figure models the slab layout
      eopt.mode = dd::EngineMode::async;
      dd::SlabEngine<double> eng(edofh, eopt);
      eng.set_potential(eH.potential());
      double wall = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        for (index_t i = 0; i < X.size(); ++i) X.data()[i] = X0.data()[i];
        Timer tw;
        eng.filter_block(X, 0, X.cols(), 10, ea, eb, ea0);
        wall = (rep == 0) ? tw.seconds() : std::min(wall, tw.seconds());
      }
      if (lanes == 1) wall1 = wall;
      et.add(lanes, TextTable::num(wall, 4), TextTable::num(wall1 / wall, 2),
             TextTable::num(100.0 * wall1 / (wall * lanes), 1) + "%");
      measured.emplace_back("measured.lanes" + std::to_string(lanes) + ".wall_s", wall);
    }
    et.print();
  }
  bench::emit_bench_artifact("fig5_strong_scaling", "fig5", measured);
  return 0;
}
