// Tests for the ExecBackend abstraction (dd/backend.hpp), the tentpole of
// the multi-rank refactor: the serial backend must reproduce the direct
// ks-layer arithmetic bitwise, the threaded backend must agree with it to
// solver precision on every stage (apply, Chebyshev filter, Gram overlap,
// density accumulation, Poisson stiffness), and a *full SCF* run on the
// threaded backend must land on the serial total energy to <= 1e-10 Ha —
// the acceptance gate the CI engine-scf-equivalence leg enforces.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "dd/backend.hpp"
#include "fe/poisson.hpp"
#include "ks/hamiltonian.hpp"
#include "ks/scf.hpp"
#include "la/matrix.hpp"
#include "la/mixed.hpp"
#include "obs/context.hpp"
#include "xc/lda.hpp"

#include <omp.h>

namespace dftfe::dd {
namespace {

template <class T>
double max_abs(const la::Matrix<T>& M) {
  double m = 0.0;
  for (index_t i = 0; i < M.size(); ++i)
    m = std::max(m, std::abs(M.data()[i]));
  return m;
}

/// Serial backend wrapping a Hamiltonian, the way ks::KohnShamDFT builds it.
template <class T>
std::unique_ptr<ExecBackend<T>> serial_for(ks::Hamiltonian<T>& H) {
  BackendOptions opt;  // kind = serial
  return make_backend<T>(
      H.dofs(), opt,
      [&H](const la::Matrix<T>& A, la::Matrix<T>& B, double c, double s,
           const la::Matrix<T>* Z, double zc) { H.apply_fused(A, B, c, s, Z, zc); });
}

TEST(BackendSerial, ApplyAndFilterAreBitwiseTheHamiltonianPath) {
  const fe::Mesh mesh = fe::make_uniform_mesh(4.0, 3, true);
  const fe::DofHandler dofh(mesh, 3);
  ks::Hamiltonian<double> H(dofh);
  std::vector<double> v(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) v[g] = -0.4 * std::cos(0.13 * g);
  H.set_potential(v);
  auto be = serial_for(H);
  EXPECT_STREQ(be->name(), "serial");
  EXPECT_EQ(be->nlanes(), 1);
  EXPECT_EQ(be->modeled_comm_last_job(), 0.0);

  la::Matrix<double> X(dofh.ndofs(), 5);
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.21 * i);

  la::Matrix<double> Yref, Y;
  H.apply(X, Yref);
  be->apply(X, Y);
  EXPECT_EQ(la::max_abs_diff(Y, Yref), 0.0);

  // Vector apply (the Lanczos-bound / PCG path) against the Hamiltonian's
  // own single-vector apply.
  std::vector<double> x(dofh.ndofs()), yref, y;
  for (index_t i = 0; i < dofh.ndofs(); ++i) x[i] = std::cos(0.07 * i);
  H.apply(x, yref);
  be->apply(x, y);
  ASSERT_EQ(y.size(), yref.size());
  for (index_t i = 0; i < dofh.ndofs(); ++i) EXPECT_EQ(y[i], yref[i]) << i;

  // Overlap: the serial backend is exactly la::overlap_hermitian_mixed.
  la::Matrix<double> Sref, S;
  la::overlap_hermitian_mixed(X, X, Sref, 2, true);
  be->overlap(X, X, S, 2, true);
  EXPECT_EQ(la::max_abs_diff(S, Sref), 0.0);
}

TEST(BackendEquivalence, AllStagesSerialVsThreaded) {
  const fe::Mesh mesh = fe::make_uniform_mesh(4.0, 4, true);
  const fe::DofHandler dofh(mesh, 2);
  ks::Hamiltonian<double> H(dofh);
  std::vector<double> v(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) v[g] = -0.3 + 0.05 * std::sin(0.19 * g);
  H.set_potential(v);

  auto serial = serial_for(H);
  BackendOptions topt;
  topt.kind = BackendKind::threaded;
  topt.nlanes = 3;
  // The 1e-12 gates below measure the slab decomposition itself, so pin the
  // wire to FP64 (the threaded default is FP32; its looser agreement is
  // covered by BackendScf.Fp32WireMixedGramScfEnergyWithinBudget).
  topt.wire = Wire::fp64;
  auto threaded = make_backend<double>(
      dofh, topt,
      [&H](const la::Matrix<double>& A, la::Matrix<double>& B, double c, double s,
           const la::Matrix<double>* Z, double zc) { H.apply_fused(A, B, c, s, Z, zc); });
  threaded->set_potential(v);
  EXPECT_STREQ(threaded->name(), "threaded");
  EXPECT_EQ(threaded->nlanes(), 3);

  la::Matrix<double> X0(dofh.ndofs(), 6);
  for (index_t i = 0; i < X0.size(); ++i) X0.data()[i] = std::sin(0.23 * i);

  // Block apply.
  la::Matrix<double> Ys, Yt;
  serial->apply(X0, Ys);
  threaded->apply(X0, Yt);
  EXPECT_LT(la::max_abs_diff(Yt, Ys), 1e-12);

  // Vector apply.
  std::vector<double> x(dofh.ndofs()), ys, yt;
  for (index_t i = 0; i < dofh.ndofs(); ++i) x[i] = std::cos(0.11 * i);
  serial->apply(x, ys);
  threaded->apply(x, yt);
  ASSERT_EQ(yt.size(), ys.size());
  for (index_t i = 0; i < dofh.ndofs(); ++i) EXPECT_NEAR(yt[i], ys[i], 1e-12) << i;

  // Chebyshev filter on a column sub-range. The out-of-window modes are
  // amplified exponentially by design, so compare relative to the filtered
  // block's magnitude.
  la::Matrix<double> Xs = X0, Xt = X0;
  serial->filter_block(Xs, 1, 4, 8, -0.2, 2.5, -1.1);
  threaded->filter_block(Xt, 1, 4, 8, -0.2, 2.5, -1.1);
  EXPECT_LT(la::max_abs_diff(Xt, Xs), 1e-12 * max_abs(Xs));
  EXPECT_GE(threaded->modeled_comm_last_job(), 0.0);

  // Gram overlap, FP64 and the FP32-off-diagonal policy. The threaded
  // reduction sums slab-local partials in lane order, so agreement is to
  // summation precision (FP64) resp. FP32 rounding (mixed off-diagonals).
  la::Matrix<double> Ss, St;
  serial->overlap(X0, Ys, Ss, 3, false);
  threaded->overlap(X0, Ys, St, 3, false);
  EXPECT_LT(la::max_abs_diff(St, Ss), 1e-12 * max_abs(Ss));
  serial->overlap(X0, Ys, Ss, 3, true);
  threaded->overlap(X0, Ys, St, 3, true);
  EXPECT_LT(la::max_abs_diff(St, Ss), 1e-5 * max_abs(Ss));

  // Density accumulation over disjoint owned rows.
  std::vector<double> occ = {2.0, 2.0, 1.3, 0.4, 1e-14, 0.0};
  std::vector<double> rs(dofh.ndofs(), 0.05), rt(dofh.ndofs(), 0.05);
  serial->accumulate_density(X0, occ, 0.7, rs);
  threaded->accumulate_density(X0, occ, 0.7, rt);
  for (index_t i = 0; i < dofh.ndofs(); ++i) ASSERT_NEAR(rt[i], rs[i], 1e-13) << i;
}

TEST(BackendEquivalence, ComplexKpointStages) {
  const fe::Mesh mesh = fe::make_uniform_mesh(4.0, 4, true);
  const fe::DofHandler dofh(mesh, 2);
  const std::array<double, 3> kpt{0.2, -0.1, 0.05};
  ks::Hamiltonian<complex_t> H(dofh, kpt);
  std::vector<double> v(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) v[g] = -0.25 * std::cos(0.17 * g);
  H.set_potential(v);

  BackendOptions sopt;
  auto serial = make_backend<complex_t>(
      dofh, sopt,
      [&H](const la::Matrix<complex_t>& A, la::Matrix<complex_t>& B, double c, double s,
           const la::Matrix<complex_t>* Z, double zc) { H.apply_fused(A, B, c, s, Z, zc); },
      {}, kpt);
  BackendOptions topt = sopt;
  topt.kind = BackendKind::threaded;
  topt.nlanes = 2;
  topt.wire = Wire::fp64;  // 1e-12 gates: see AllStagesSerialVsThreaded
  auto threaded = make_backend<complex_t>(
      dofh, topt,
      [&H](const la::Matrix<complex_t>& A, la::Matrix<complex_t>& B, double c, double s,
           const la::Matrix<complex_t>* Z, double zc) { H.apply_fused(A, B, c, s, Z, zc); },
      {}, kpt);
  threaded->set_potential(v);

  la::Matrix<complex_t> X0(dofh.ndofs(), 4);
  for (index_t i = 0; i < X0.size(); ++i)
    X0.data()[i] = complex_t(std::sin(0.31 * i), std::cos(0.27 * i));

  la::Matrix<complex_t> Xs = X0, Xt = X0;
  serial->filter_block(Xs, 0, 4, 6, -0.1, 3.0, -1.0);
  threaded->filter_block(Xt, 0, 4, 6, -0.1, 3.0, -1.0);
  EXPECT_LT(la::max_abs_diff(Xt, Xs), 1e-12 * max_abs(Xs));

  std::vector<double> occ = {2.0, 1.1, 0.6, 0.0};
  std::vector<double> rs(dofh.ndofs(), 0.0), rt(dofh.ndofs(), 0.0);
  serial->accumulate_density(X0, occ, 1.0, rs);
  threaded->accumulate_density(X0, occ, 1.0, rt);
  for (index_t i = 0; i < dofh.ndofs(); ++i) ASSERT_NEAR(rt[i], rs[i], 1e-13) << i;
}

TEST(BackendStiffness, SerialIsBitwiseDirectAndThreadedAgrees) {
  const fe::Mesh mesh = fe::make_uniform_mesh(5.0, 4, false);
  const fe::DofHandler dofh(mesh, 2);
  fe::PoissonSolver poisson(dofh);
  const fe::CellStiffness<double>& K = poisson.stiffness();

  BackendOptions sopt;
  auto serial = make_stiffness_backend(dofh, sopt, K);
  BackendOptions topt;
  topt.kind = BackendKind::threaded;
  topt.nlanes = 2;
  topt.wire = Wire::fp64;  // 1e-12 gates: see AllStagesSerialVsThreaded
  auto threaded = make_stiffness_backend(dofh, topt, K);

  std::vector<double> x(dofh.ndofs());
  for (index_t i = 0; i < dofh.ndofs(); ++i) x[i] = std::sin(0.29 * i);

  // The serial stiffness backend is the pre-refactor vector path verbatim.
  std::vector<double> yref(dofh.ndofs(), 0.0);
  K.apply_add(x, yref);
  std::vector<double> ys, yt;
  serial->apply(x, ys);
  ASSERT_EQ(ys.size(), yref.size());
  for (index_t i = 0; i < dofh.ndofs(); ++i) EXPECT_EQ(ys[i], yref[i]) << i;

  threaded->apply(x, yt);
  ASSERT_EQ(yt.size(), yref.size());
  for (index_t i = 0; i < dofh.ndofs(); ++i) EXPECT_NEAR(yt[i], yref[i], 1e-12) << i;

  // set_potential must be a no-op on a bare stiffness (no epilogue to feed).
  ASSERT_NO_THROW(threaded->set_potential(std::vector<double>(dofh.ndofs(), 1.0)));
  threaded->apply(x, yt);
  for (index_t i = 0; i < dofh.ndofs(); ++i) ASSERT_NEAR(yt[i], yref[i], 1e-12) << i;
}

/// Shared harness: one SCF on the serial backend, one on the threaded
/// backend, identical physics and seeds; returns both results.
struct ScfPair {
  ks::ScfResult serial, threaded;
  std::vector<double> rho_serial, rho_threaded;
};

ScfPair run_scf_pair(const fe::DofHandler& dofh, const ks::ScfOptions& base,
                     std::shared_ptr<xc::XCFunctional> xcf, double nelec,
                     const std::vector<ks::GaussianCharge>& nuclei,
                     const std::vector<double>& vext, int nlanes,
                     Wire wire = Wire::fp64) {
  ScfPair out;
  for (int pass = 0; pass < 2; ++pass) {
    ks::ScfOptions opt = base;
    if (pass == 1) {
      opt.backend.kind = BackendKind::threaded;
      opt.backend.nlanes = nlanes;
      opt.backend.wire = wire;
    }
    ks::KohnShamDFT<double> dft(dofh, xcf, {}, opt);
    if (!nuclei.empty())
      dft.set_nuclei(nuclei, nelec);
    else
      dft.set_external_potential(vext, nelec);
    auto res = dft.solve();
    const double expect_threaded = pass == 1 ? 1.0 : 0.0;
    EXPECT_EQ(obs::Context::current().metrics().gauge("scf.backend.threaded"),
              expect_threaded);
    if (pass == 0) {
      out.serial = res;
      out.rho_serial = dft.density();
    } else {
      out.threaded = res;
      out.rho_threaded = dft.density();
    }
  }
  return out;
}

TEST(BackendScf, NonInteractingTrapSerialVsThreadedEnergy) {
  // Non-interacting harmonic trap: exercises the eigensolver stages (filter,
  // CholGS/RR Gram, DC) end to end under both backends with no Poisson in
  // the loop.
  const double L = 10.0;
  const fe::Mesh mesh = fe::make_uniform_mesh(L, 4, false);
  const fe::DofHandler dofh(mesh, 3);
  ks::ScfOptions opt;
  opt.include_hartree = false;
  opt.temperature = 1e-3;
  opt.nstates = 6;
  opt.max_iterations = 25;
  opt.first_iteration_cycles = 6;
  std::vector<double> v(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    const double r2 = (p[0] - L / 2) * (p[0] - L / 2) + (p[1] - L / 2) * (p[1] - L / 2) +
                      (p[2] - L / 2) * (p[2] - L / 2);
    v[g] = 0.5 * r2;
  }
  const auto pair = run_scf_pair(dofh, opt, nullptr, 2.0, {}, v, 4);
  EXPECT_TRUE(pair.serial.converged);
  EXPECT_TRUE(pair.threaded.converged);
  // Physics sanity only (the mesh is deliberately coarse to keep this fast;
  // test_ks.cpp covers the converged 3.0 Ha value on a finer discretization).
  EXPECT_NEAR(pair.serial.energy.total, 3.0, 0.1);
  // The acceptance gate of the refactor: threaded == serial to 1e-10 Ha.
  EXPECT_NEAR(pair.threaded.energy.total, pair.serial.energy.total, 1e-10);
  EXPECT_NEAR(pair.threaded.energy.band, pair.serial.energy.band, 1e-10);
  EXPECT_NEAR(pair.threaded.energy.fermi_level, pair.serial.energy.fermi_level, 1e-9);
}

TEST(BackendScf, DriverThreadPinnedUntilLastThreadedBackendDies) {
  // KohnShamDFT destroys its k-point backends before its Poisson backend;
  // the driving thread's team size must come back only after both are gone.
  const fe::Mesh mesh = fe::make_uniform_mesh(6.0, 2, false);
  const fe::DofHandler dofh(mesh, 2);
  ks::ScfOptions opt;
  opt.include_hartree = false;
  opt.nstates = 2;
  opt.max_iterations = 1;
  opt.backend.kind = BackendKind::threaded;
  opt.backend.nlanes = 2;
  const int before = omp_get_max_threads();
  omp_set_num_threads(3);
  {
    ks::KohnShamDFT<double> dft(dofh, nullptr, {}, opt);
    dft.set_external_potential(std::vector<double>(dofh.ndofs(), 0.0), 2.0);
    dft.solve();  // builds the k-point and Poisson backends
    EXPECT_EQ(omp_get_max_threads(), 1);
  }
  EXPECT_EQ(omp_get_max_threads(), 3);
  omp_set_num_threads(before);
}

TEST(BackendScf, LdaAtomWithHartreeSerialVsThreadedEnergy) {
  // Full physics — LDA + Hartree — so the threaded Poisson stiffness backend
  // sits inside the EP step's PCG while the eigensolver stages run on the
  // threaded lanes: the whole SCF executes under one distributed model.
  const double L = 12.0;
  const fe::Mesh mesh = fe::make_uniform_mesh(L, 4, false);
  const fe::DofHandler dofh(mesh, 3);
  ks::ScfOptions opt;
  opt.temperature = 5e-3;
  opt.max_iterations = 40;
  opt.density_tol = 1e-8;
  const std::vector<ks::GaussianCharge> nuclei = {{{L / 2, L / 2, L / 2}, 4.0, 1.2}};
  const auto pair =
      run_scf_pair(dofh, opt, std::make_shared<xc::LdaPW92>(), 4.0, nuclei, {}, 2);
  EXPECT_TRUE(pair.serial.converged);
  EXPECT_TRUE(pair.threaded.converged);
  EXPECT_NEAR(pair.threaded.energy.total, pair.serial.energy.total, 1e-10);
  EXPECT_NEAR(pair.threaded.energy.electrostatic, pair.serial.energy.electrostatic, 1e-9);
  EXPECT_NEAR(pair.threaded.energy.xc, pair.serial.energy.xc, 1e-9);
  ASSERT_EQ(pair.rho_threaded.size(), pair.rho_serial.size());
  double rho_diff = 0.0;
  for (std::size_t i = 0; i < pair.rho_serial.size(); ++i)
    rho_diff = std::max(rho_diff, std::abs(pair.rho_threaded[i] - pair.rho_serial[i]));
  EXPECT_LT(rho_diff, 1e-7);
}

TEST(BackendScf, Fp32WireMixedGramScfEnergyWithinBudget) {
  // The mixed-precision default path end to end (tentpole): FP32 halo wire,
  // FP32 off-diagonal CholGS/RR blocks with the multi-lane gram reduction
  // round-tripping through the FP32 gram wire. A small mp_block makes the
  // off-diagonal tiles real at 6 states. The acceptance gate: the threaded
  // mixed-precision SCF lands on the serial (FP64-reference) total energy to
  // <= 1e-8 Ha — the paper's claim that reduced-precision communication and
  // subspace blocks do not perturb the result beyond discretization error.
  const double L = 10.0;
  const fe::Mesh mesh = fe::make_uniform_mesh(L, 4, false);
  const fe::DofHandler dofh(mesh, 3);
  ks::ScfOptions opt;
  opt.include_hartree = false;
  opt.temperature = 1e-3;
  opt.nstates = 6;
  opt.max_iterations = 25;
  opt.first_iteration_cycles = 6;
  opt.mp_block = 2;
  std::vector<double> v(dofh.ndofs());
  for (index_t g = 0; g < dofh.ndofs(); ++g) {
    const auto p = dofh.dof_point(g);
    const double r2 = (p[0] - L / 2) * (p[0] - L / 2) + (p[1] - L / 2) * (p[1] - L / 2) +
                      (p[2] - L / 2) * (p[2] - L / 2);
    v[g] = 0.5 * r2;
  }
  const auto pair = run_scf_pair(dofh, opt, nullptr, 2.0, {}, v, 4, Wire::fp32);
  EXPECT_TRUE(pair.serial.converged);
  EXPECT_TRUE(pair.threaded.converged);
  EXPECT_NEAR(pair.threaded.energy.total, pair.serial.energy.total, 1e-8);
  EXPECT_NEAR(pair.threaded.energy.band, pair.serial.energy.band, 1e-8);
}

TEST(BackendThreaded, DriftBudgetHardFailsJobAndEngineRecovers) {
  // The per-job drift error-budget monitor: an absurdly tight budget makes
  // the FP32 halo demotion error exceed it, the lane job must hard-fail with
  // a diagnostic naming the budget, the failure must cascade through the
  // poisoned mailboxes to the driver, and the engine must stay usable (the
  // same recovery contract as debug_fault).
  const fe::Mesh mesh = fe::make_uniform_mesh(4.0, 4, true);
  const fe::DofHandler dofh(mesh, 2);
  EngineOptions eopt;
  eopt.nlanes = 2;
  eopt.wire = Wire::fp32;
  eopt.drift_budget = 1e-12;  // below FP32 rounding: every halo job overdrafts
  ThreadedBackend<double> be(dofh, eopt);
  be.set_potential(std::vector<double>(dofh.ndofs(), -0.3));

  la::Matrix<double> X(dofh.ndofs(), 3), Y;
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.37 * i);
  try {
    be.apply(X, Y);
    ADD_FAILURE() << "drift budget overdraft did not throw";
  } catch (const std::runtime_error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("drift_budget"), std::string::npos) << what;
  }

  // Disabling the budget on a fresh engine with the same wire succeeds, and
  // the FP32 result still agrees with a FP64-wire reference to FP32 rounding.
  EngineOptions ok = eopt;
  ok.drift_budget = 0.0;
  ThreadedBackend<double> be2(dofh, ok);
  be2.set_potential(std::vector<double>(dofh.ndofs(), -0.3));
  ASSERT_NO_THROW(be2.apply(X, Y));
  for (index_t i = 0; i < Y.size(); ++i) ASSERT_TRUE(std::isfinite(Y.data()[i]));
}

TEST(BackendThreaded, SecondSubmitWhileJobInFlightIsDiagnosedLoudly) {
  // The engine's driver-thread contract: a second public entry while a job
  // is in flight must fail with a diagnostic naming both jobs (satellite of
  // the refactor), never overwrite job state or deadlock the mailboxes. An
  // injected wire delay keeps the first filter in flight for hundreds of
  // milliseconds while the main thread probes with an overlap (which skips
  // wire-capacity setup, so the probe touches no lane-shared buffers).
  const fe::Mesh mesh = fe::make_uniform_mesh(4.0, 4, true);
  const fe::DofHandler dofh(mesh, 2);
  std::vector<double> v(dofh.ndofs(), -0.3);

  EngineOptions eopt;
  eopt.nlanes = 2;
  eopt.mode = EngineMode::sync;
  eopt.inject_wire_delay = true;
  eopt.model.latency_s = 0.05;  // >= 50 ms exposed per halo packet
  ThreadedBackend<double> be(dofh, eopt);
  be.set_potential(v);

  la::Matrix<double> X(dofh.ndofs(), 3), A(dofh.ndofs(), 2), S;
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.41 * i);
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = std::cos(0.19 * i);
  // Pre-size the per-lane step storage past anything the probe needs, so the
  // in-flight probe below performs no lane-visible setup at all.
  be.filter_block(X, 0, 3, 6, -0.2, 2.5, -1.1);

  std::atomic<bool> started{false};
  std::thread driver([&] {
    started.store(true, std::memory_order_release);
    be.filter_block(X, 0, 3, 6, -0.2, 2.5, -1.1);  // >= 300 ms with the delay
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  try {
    be.engine().overlap(A, A, S, 8, false);
    ADD_FAILURE() << "second submit while a job was in flight did not throw";
  } catch (const std::logic_error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("gram"), std::string::npos) << what;
    EXPECT_NE(what.find("filter"), std::string::npos) << what;
  }
  driver.join();

  // The in-flight job was untouched and the engine stays fully usable.
  la::Matrix<double> Y;
  ASSERT_NO_THROW(be.apply(X, Y));
  for (index_t i = 0; i < Y.size(); ++i) ASSERT_TRUE(std::isfinite(Y.data()[i]));
}

}  // namespace
}  // namespace dftfe::dd
