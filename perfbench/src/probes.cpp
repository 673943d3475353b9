#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "dd/backend.hpp"
#include "fe/gradient.hpp"
#include "fe/poisson.hpp"
#include "hw.hpp"
#include "ks/chfes.hpp"
#include "la/batched.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eig.hpp"
#include "la/iterative.hpp"
#include "svc/checkpoint.hpp"

namespace perfbench {

using namespace dftfe;
using Mat = la::Matrix<double>;

namespace {

// Each probe is warmed up once, then repeated for about kBudget seconds,
// between kMinReps and kMaxReps times.
constexpr double kBudget = 0.25;
constexpr int kMinReps = 5;
constexpr int kMaxReps = 51;

volatile double g_sink = 0.0;

double probe(SpanRecorder& rec, std::int64_t parent, const std::string& name,
             const std::function<void()>& fn, const std::function<void()>& before = {}) {
  if (before) before();
  const double t0 = now_s();
  fn();
  const double warm = now_s() - t0;
  const int reps = std::clamp(static_cast<int>(kBudget / std::max(warm, 1e-6)), kMinReps, kMaxReps);
  for (int r = 0; r < reps; ++r) {
    if (before) before();
    rec.time(name, parent, fn);
  }
  return median(rec.durations(name));
}

// The smeared nuclear charge on the dofs, the same Gaussians the solver
// places (Z exp(-r^2/rc^2) / (pi^1.5 rc^3), minimum image on periodic axes).
std::vector<double> nuclear_charge(const fe::DofHandler& dofh,
                                   const std::vector<ks::GaussianCharge>& nuclei) {
  const index_t n = dofh.ndofs();
  const fe::Mesh& mesh = dofh.mesh();
  std::vector<double> rho(static_cast<std::size_t>(n), 0.0);
  for (const auto& nuc : nuclei) {
    const double norm = nuc.Z / (std::pow(std::numbers::pi, 1.5) * nuc.rc * nuc.rc * nuc.rc);
    const double cutoff2 = 64.0 * nuc.rc * nuc.rc;
    for (index_t g = 0; g < n; ++g) {
      const auto p = dofh.dof_point(g);
      double r2 = 0.0;
      for (int d = 0; d < 3; ++d) {
        double x = p[d] - nuc.center[d];
        if (mesh.axis(d).periodic) {
          const double L = mesh.axis(d).length();
          x -= L * std::round(x / L);
        }
        r2 += x * x;
      }
      if (r2 < cutoff2) rho[g] += norm * std::exp(-r2 / (nuc.rc * nuc.rc));
    }
  }
  return rho;
}

struct FilterBounds {
  double a = 0.0, b = 0.0, a0 = 0.0;
};

// The Chebyshev interval the solver would use on the converged state: a
// Lanczos upper bound, the unwanted edge just above the highest Ritz value,
// the wanted edge just below the lowest.
FilterBounds filter_bounds(ks::Hamiltonian<double>& H, const std::vector<double>& evals) {
  FilterBounds f;
  f.b = la::lanczos_upper_bound<double>(
      [&H](const std::vector<double>& x, std::vector<double>& y) { H.apply(x, y); }, H.n(), 14);
  const double spread = std::max(f.b - evals.front(), 1e-8);
  f.a = evals.back() + 0.01 * spread;
  f.a0 = evals.front() - 0.05 * spread;
  return f;
}

dd::FusedApplyFn<double> fused_apply(ks::Hamiltonian<double>& H) {
  return [&H](const Mat& A, Mat& B, double c, double s, const Mat* Z, double zc) {
    H.apply_fused(A, B, c, s, Z, zc);
  };
}

}  // namespace

void set_metric(MetricMap& m, const std::string& name, double value, const std::string& unit) {
  m[name] = Metric{name, value, unit};
}

void probe_solver_layers(ProbeTarget& t, SpanRecorder& rec, std::int64_t parent,
                         MetricMap& out) {
  auto& solver = t.job.gamma_solver();
  auto& H = solver.hamiltonian(0);
  const auto& model = t.job.model();
  const auto& dofs = model.dofs();
  const Mat X = solver.wavefunctions(0);
  const std::vector<double> evals = solver.eigenvalues(0);
  const std::vector<double> v_eff = solver.effective_potential();
  const std::vector<double> rho = solver.density();
  const index_t n = X.rows(), N = X.cols();
  const index_t ncells = dofs.mesh().ncells_total();
  const index_t ndofc = dofs.ndofs_per_cell();
  const FilterBounds fb = filter_bounds(H, evals);

  // ks: one ChFES cycle and one filter pass on the converged subspace, on
  // the same execution backend the job ran.
  {
    ks::ChfesOptions copt;
    copt.cheb_degree = t.scf.cheb_degree;
    copt.block_size = t.scf.block_size;
    copt.mixed_precision = t.scf.mixed_precision;
    copt.mp_block = t.scf.mp_block;
    ks::ChebyshevFilteredSolver<double> cs(H, N, copt);
    auto be = dd::make_backend<double>(dofs, t.backend, fused_apply(H));
    be->set_potential(v_eff);
    cs.set_backend(be.get());
    const std::vector<double> coeffs(X.data(), X.data() + X.size());
    const double cycle_s = probe(rec, parent, "ks.chfes_cycle", [&] { cs.cycle(); },
                                 [&] { cs.restore_subspace(coeffs, evals); });
    const double cf_s = probe(rec, parent, "ks.cf", [&] { cs.filter(); }, [&] {
      cs.restore_subspace(coeffs, evals);
      cs.set_bounds(fb.a, fb.b, fb.a0);
    });
    // Nominal filter FLOPs, computed: per Chebyshev degree one dense cell-
    // matrix product per cell (2 ndofc^2 N) plus the fused epilogue
    // (mass scaling, potential, shift-scale update: 6 n N).
    const double cf_flops =
        t.scf.cheb_degree * (2.0 * static_cast<double>(ncells) * ndofc * ndofc * N +
                             6.0 * static_cast<double>(n) * N);
    set_metric(out, "ks.chfes_cycle_s", cycle_s, "s");
    set_metric(out, "ks.cf_s", cf_s, "s");
    set_metric(out, "ks.cf_nominal_gflops", cf_flops / cf_s * 1e-9, "GFLOP/s");
  }
  {
    Mat Y(n, N);
    set_metric(out, "ks.h_apply_s", probe(rec, parent, "ks.h_apply", [&] { H.apply(X, Y); }),
               "s");
  }
  set_metric(out, "ks.density_s", probe(rec, parent, "ks.density", [&] {
               g_sink = g_sink + solver.compute_density(solver.find_fermi_level())[0];
             }),
             "s");
  set_metric(out, "ks.veff_s",
             probe(rec, parent, "ks.veff", [&] { solver.update_effective_potential(); }), "s");

  // fe: the EP solve from a zero start, and the stiffness apply it iterates.
  {
    fe::PoissonSolver poisson(dofs);
    const auto nuclei = model.nuclei_for(t.job.structure()).first;
    std::vector<double> rho_c = nuclear_charge(dofs, nuclei);
    for (index_t i = 0; i < n; ++i) rho_c[i] -= rho[i];
    std::vector<double> phi;
    la::SolveReport rep;
    const double solve_s = probe(rec, parent, "fe.poisson_solve",
                                 [&] { rep = poisson.solve(rho_c, phi, 1e-9); },
                                 [&] { phi.clear(); });
    if (!rep.converged) std::printf("perfbench: warning: probe Poisson solve did not converge\n");
    set_metric(out, "fe.poisson_solve_s", solve_s, "s");
    set_metric(out, "fe.poisson_iterations", rep.iterations, "count");
    std::vector<double> y(static_cast<std::size_t>(n), 0.0);
    const double apply_s =
        probe(rec, parent, "fe.stiffness_apply", [&] { poisson.stiffness().apply_add(phi, y); });
    // Computed bytes: x read, y read and written, the cell-to-dof map, and
    // the gathered cell-local copies of x and y (written, then read).
    const double bytes = 24.0 * static_cast<double>(n) + 40.0 * static_cast<double>(ncells) * ndofc;
    set_metric(out, "fe.stiffness_apply_s", apply_s, "s");
    set_metric(out, "fe.stiffness_gbytes_s", bytes / apply_s * 1e-9, "GB/s");
  }

  // la: the kernels at this workload's shapes.
  {
    Mat S(N, N);
    const double gemm_s = probe(rec, parent, "la.gemm", [&] {
      la::gemm('T', 'N', N, N, n, 1.0, X.data(), n, X.data(), n, 0.0, S.data(), N);
    });
    set_metric(out, "la.gemm_gflops", 2.0 * N * N * static_cast<double>(n) / gemm_s * 1e-9,
               "GFLOP/s");

    // Cell shape: one shared ndofc x ndofc cell matrix applied to every
    // cell's ndofc x N block (stride 0 on A), batch = all cells.
    const index_t m = ndofc;
    std::vector<double> A(static_cast<std::size_t>(m * m));
    std::vector<double> B(static_cast<std::size_t>(m * N * ncells)), C(B.size());
    for (std::size_t i = 0; i < A.size(); ++i) A[i] = std::sin(0.37 * static_cast<double>(i));
    for (std::size_t i = 0; i < B.size(); ++i) B[i] = std::cos(0.11 * static_cast<double>(i));
    const double bg_s = probe(rec, parent, "la.batched_gemm", [&] {
      la::gemm_strided_batched('N', 'N', m, N, m, 1.0, A.data(), m, index_t{0}, B.data(), m,
                               m * N, 0.0, C.data(), m, m * N, ncells);
    });
    set_metric(out, "la.batched_gemm_gflops",
               2.0 * m * m * static_cast<double>(N) * ncells / bg_s * 1e-9, "GFLOP/s");

    Mat S0(N, N);
    la::gemm('T', 'N', 1.0, X, X, 0.0, S0);
    Mat L(N, N);
    set_metric(out, "la.cholesky_s",
               probe(rec, parent, "la.cholesky", [&] { g_sink = g_sink + la::cholesky_lower(L); },
                     [&] { L = S0; }),
               "s");
    Mat W(n, N), P(N, N), Q(N, N);
    H.apply(X, W);
    la::gemm('T', 'N', 1.0, X, W, 0.0, P);
    for (index_t i = 0; i < N; ++i)
      for (index_t j = 0; j < i; ++j) P(i, j) = P(j, i) = 0.5 * (P(i, j) + P(j, i));
    std::vector<double> ev;
    set_metric(out, "la.eig_s",
               probe(rec, parent, "la.eig", [&] { la::hermitian_eig(P, ev, Q); }), "s");
  }

  // xc: the functional over every dof of the converged density, with the
  // gradient a GGA-type functional needs.
  if (const auto& f = model.functional()) {
    std::vector<double> sigma, exc, vrho, vsigma;
    set_metric(out, "xc.evaluate_s", probe(rec, parent, "xc.evaluate", [&] {
                 if (f->needs_gradient()) {
                   const auto g = fe::nodal_gradient(dofs, rho);
                   sigma.resize(rho.size());
                   for (std::size_t i = 0; i < rho.size(); ++i)
                     sigma[i] = g[0][i] * g[0][i] + g[1][i] * g[1][i] + g[2][i] * g[2][i];
                 }
                 f->evaluate(rho, sigma, exc, vrho, vsigma);
               }),
               "s");
  }
}

void probe_dd(ProbeTarget& t, SpanRecorder& rec, std::int64_t parent, MetricMap& out) {
  auto& solver = t.job.gamma_solver();
  auto& H = solver.hamiltonian(0);
  const auto& dofs = t.job.model().dofs();
  const Mat X = solver.wavefunctions(0);
  const index_t n = X.rows(), N = X.cols();
  const FilterBounds fb = filter_bounds(H, solver.eigenvalues(0));
  const int degree = t.scf.cheb_degree;

  auto lanes = dd::make_backend<double>(dofs, t.backend, fused_apply(H));
  lanes->set_potential(solver.effective_potential());
  auto serial = dd::make_backend<double>(dofs, dd::BackendOptions{}, fused_apply(H));

  Mat Xc = X;
  auto reset = [&] { Xc = X; };
  const double thr_s = probe(
      rec, parent, "dd.filter_block",
      [&] { lanes->filter_block(Xc, 0, N, degree, fb.a, fb.b, fb.a0); }, reset);
  const double ser_s = probe(
      rec, parent, "dd.filter_block_serial",
      [&] { serial->filter_block(Xc, 0, N, degree, fb.a, fb.b, fb.a0); }, reset);
  set_metric(out, "dd.filter_block_s", thr_s, "s");
  set_metric(out, "dd.filter_block_serial_s", ser_s, "s");
  set_metric(out, "dd.lane_speedup", ser_s / thr_s, "x");

  std::vector<double> x(X.data(), X.data() + n), y;
  set_metric(out, "dd.apply_vec_s",
             probe(rec, parent, "dd.apply_vec", [&] { lanes->apply(x, y); }), "s");
  set_metric(out, "dd.apply_vec_serial_s",
             probe(rec, parent, "dd.apply_vec_serial", [&] { serial->apply(x, y); }), "s");
  Mat S(N, N);
  set_metric(out, "dd.overlap_s", probe(rec, parent, "dd.overlap", [&] {
               lanes->overlap(X, X, S, t.scf.mp_block, t.scf.mixed_precision);
             }),
             "s");

  // Wire traffic and lane time of one filter block, from the engine's own
  // counters (the only engine state the benchmark reads).
  auto* threaded = dynamic_cast<dd::ThreadedBackend<double>*>(lanes.get());
  if (threaded == nullptr) throw std::runtime_error("dd probe: job backend is not threaded");
  auto& engine = threaded->engine();
  std::vector<double> wait, compute;
  double bytes = 0.0, messages = 0.0;
  for (int r = 0; r < kMinReps; ++r) {
    Xc = X;
    engine.clear_comm_stats();
    lanes->filter_block(Xc, 0, N, degree, fb.a, fb.b, fb.a0);
    const auto w = engine.wire_stats();
    bytes = static_cast<double>(w.fp64_bytes + w.fp32_bytes + w.bf16_bytes);
    messages = static_cast<double>(w.fp64_messages + w.fp32_messages + w.bf16_messages);
    double ws = 0.0, cs = 0.0;
    for (const auto& st : engine.last_step_stats()) {
      ws += st.wait;
      cs += st.compute;
    }
    wait.push_back(ws);
    compute.push_back(cs);
  }
  set_metric(out, "dd.halo_bytes", bytes, "bytes");
  set_metric(out, "dd.halo_messages", messages, "count");
  set_metric(out, "dd.lane_wait_s", median(wait), "s");
  set_metric(out, "dd.lane_compute_s", median(compute), "s");
}

void probe_checkpoint(ProbeTarget& t, const std::string& dir, SpanRecorder& rec,
                      std::int64_t parent, MetricMap& out) {
  const svc::Checkpoint cp{t.job.name(), t.job.save_scf_state()};
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/probe.ckpt.json";
  set_metric(out, "svc.checkpoint_write_s", probe(rec, parent, "svc.checkpoint_write", [&] {
               if (!svc::write_checkpoint(path, cp))
                 throw std::runtime_error("checkpoint write failed: " + path);
             }),
             "s");
  set_metric(out, "svc.checkpoint_bytes", static_cast<double>(std::filesystem::file_size(path)),
             "bytes");
  set_metric(out, "svc.checkpoint_read_s", probe(rec, parent, "svc.checkpoint_read", [&] {
               if (!svc::read_checkpoint(path))
                 throw std::runtime_error("checkpoint read failed: " + path);
             }),
             "s");
}

void probe_hardware(SpanRecorder& rec, std::int64_t parent, MetricMap& out) {
  std::vector<FmaPeak> peaks;
  TriadResult triad;
  rec.time("la.fma_peak", parent, [&] { peaks = measure_fma_peaks(); });
  rec.time("la.triad", parent, [&] { triad = measure_triad(); });
  double best = 0.0;
  std::printf("perfbench: hardware {\"fma\": {");
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    std::printf("%s\"%s\": %.3f", i ? ", " : "", peaks[i].isa.c_str(), peaks[i].gflops);
    best = std::max(best, peaks[i].gflops);
  }
  std::printf("}, \"triad_gbytes_s\": %.3f, \"triad_array_bytes\": %zu, \"llc_bytes\": %zu}\n",
              triad.gbytes_s, triad.array_bytes, triad.llc_bytes);
  set_metric(out, "la.fma_peak_gflops", best, "GFLOP/s");
  set_metric(out, "la.triad_gbytes_s", triad.gbytes_s, "GB/s");
  if (auto it = out.find("ks.cf_nominal_gflops"); it != out.end() && best > 0.0)
    set_metric(out, "ks.cf_pct_fma_peak", 100.0 * it->second.value / best, "%");
}

}  // namespace perfbench
