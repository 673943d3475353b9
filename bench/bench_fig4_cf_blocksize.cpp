// Figure 4 reproduction: Chebyshev-filtering (CF) throughput as a function
// of the wavefunction block size B_f (paper Sec. 5.4.1, Fig. 4).
//
// Paper: CF performance rises with B_f on V100 / MI250X / A100 because the
// batched cell-level GEMMs gain arithmetic intensity and the boundary
// communication amortizes; at B_f = 500 they reach 56.3% (Summit), 41.1%
// (Crusher), 85.7% (Perlmutter) of FP64 peak. Here the same sweep runs the
// identical algorithm (cell-level batched GEMM with a shared cell matrix,
// gather/scatter assembly) on one CPU core; "% of peak" is relative to the
// calibrated best-GEMM throughput. Reproduction target: monotone-increasing
// throughput with B_f that saturates at a large fraction of peak.

#include <cstdio>

#include "bench_common.hpp"
#include "fe/cell_ops.hpp"
#include "ks/chfes.hpp"
#include "ks/hamiltonian.hpp"

using namespace dftfe;

int main() {
  bench::print_preamble(
      "Fig. 4 analog: CF throughput vs wavefunction block size B_f\n"
      "(workload: spectral FE p=6, DislocMgY-style periodic cell)");

  const fe::Mesh mesh = fe::make_uniform_mesh(12.0, 3, true);  // 27 cells
  const int degree = 6;
  fe::DofHandler dofh(mesh, degree);
  ks::Hamiltonian<double> H(dofh);
  std::vector<double> v(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) v[g] = -1.0 / (1.0 + (g % 11));
  H.set_potential(v);

  const index_t N = 256;  // wavefunctions
  const int cheb_degree = 6;
  std::printf("FE dofs: %lld, cells: %lld, (p+1)^3 = %d, N = %lld, filter degree %d\n\n",
              static_cast<long long>(dofh.ndofs()),
              static_cast<long long>(mesh.ncells_total()), (degree + 1) * (degree + 1) * (degree + 1),
              static_cast<long long>(N), cheb_degree);

  TextTable t({"B_f", "CF wall (s)", "GFLOPS", "% of calibrated peak"});
  double first = 0.0, last = 0.0;
  for (index_t bf : {1, 2, 4, 8, 16, 64, 256}) {
    ks::ChfesOptions opt;
    opt.block_size = bf;
    opt.cheb_degree = cheb_degree;
    // Best of three repetitions (single-core timing noise).
    double wall = 1e300, gflops = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      ks::ChebyshevFilteredSolver<double> solver(H, N, opt);
      solver.initialize_random(3);
      obs::Context& ctx = obs::Context::current();
      ctx.clear();
      solver.cycle();  // times land in the "CF" span histogram
      const double w = ctx.metrics().histogram("CF").sum;
      if (w < wall) {
        wall = w;
        gflops = ctx.flops().step("CF") / w / 1e9;
      }
    }
    t.add(bf, TextTable::num(wall, 3), TextTable::num(gflops, 2), bench::pct_of_peak(gflops));
    if (bf == 1) first = gflops;
    last = gflops;
  }
  t.print();
  std::printf("throughput gain B_f 1 -> 256: %.2fx. Paper Fig. 4: performance rises\n"
              "with B_f as the batched cell GEMMs gain arithmetic intensity (cell\n"
              "matrix reused across the block). On one CPU core the reuse saturates\n"
              "once a few columns share each loaded cell-matrix line; on GPUs the\n"
              "rise continues to B_f ~ 500 (more parallelism to occupy).\n",
              last / first);
  obs::Context::current().clear();
  return 0;
}
