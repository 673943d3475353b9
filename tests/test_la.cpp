// Tests for the dense linear algebra substrate: GEMM (all op combinations,
// real and complex, parameterized size sweeps), strided-batched GEMM,
// Cholesky + triangular inversion, Hermitian eigensolvers, PCG, block MINRES
// with per-column shifts, Lanczos spectrum bounds, mixed-precision kernels.

#include <gtest/gtest.h>
#include <omp.h>

#include <cmath>
#include <tuple>

#include "base/rng.hpp"
#include "la/batched.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eig.hpp"
#include "la/iterative.hpp"
#include "la/mixed.hpp"
#include "la/view.hpp"
#include "obs/context.hpp"

namespace dftfe::la {
namespace {

template <class T>
T random_scalar(Rng& rng) {
  if constexpr (scalar_traits<T>::is_complex) {
    return T(rng.uniform(-1, 1), rng.uniform(-1, 1));
  } else {
    return T(rng.uniform(-1, 1));
  }
}

template <class T>
Matrix<T> random_matrix(index_t m, index_t n, Rng& rng) {
  Matrix<T> A(m, n);
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = random_scalar<T>(rng);
  return A;
}

// Reference GEMM: naive triple loop, trusted by inspection.
template <class T>
void gemm_ref(char ta, char tb, T alpha, const Matrix<T>& A, const Matrix<T>& B, T beta,
              Matrix<T>& C) {
  const index_t m = C.rows(), n = C.cols();
  const index_t k = (ta == 'N') ? A.cols() : A.rows();
  auto a = [&](index_t i, index_t kk) {
    if (ta == 'N') return A(i, kk);
    if (ta == 'T') return A(kk, i);
    return scalar_traits<T>::conj(A(kk, i));
  };
  auto b = [&](index_t kk, index_t j) {
    if (tb == 'N') return B(kk, j);
    if (tb == 'T') return B(j, kk);
    return scalar_traits<T>::conj(B(j, kk));
  };
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      T s{};
      for (index_t kk = 0; kk < k; ++kk) s += a(i, kk) * b(kk, j);
      C(i, j) = alpha * s + beta * C(i, j);
    }
}

template <class T>
Matrix<T> random_hermitian(index_t n, Rng& rng) {
  Matrix<T> A = random_matrix<T>(n, n, rng);
  Matrix<T> H(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      H(i, j) = (A(i, j) + scalar_traits<T>::conj(A(j, i))) * T(0.5);
  return H;
}

template <class T>
Matrix<T> random_spd(index_t n, Rng& rng) {
  Matrix<T> B = random_matrix<T>(n, n, rng);
  Matrix<T> A(n, n);
  gemm('C', 'N', T(1), B, B, T(0), A);
  for (index_t i = 0; i < n; ++i) A(i, i) += T(static_cast<double>(n));
  return A;
}

// ---------- GEMM: parameterized sweep over shapes and op combinations ----------

using GemmParam = std::tuple<int, int, int, char, char>;

class GemmSweep : public ::testing::TestWithParam<GemmParam> {};

TEST_P(GemmSweep, MatchesReferenceReal) {
  auto [m, n, k, ta, tb] = GetParam();
  Rng rng(42 + m + 7 * n + 13 * k + ta + tb);
  Matrix<double> A = random_matrix<double>(ta == 'N' ? m : k, ta == 'N' ? k : m, rng);
  Matrix<double> B = random_matrix<double>(tb == 'N' ? k : n, tb == 'N' ? n : k, rng);
  Matrix<double> C = random_matrix<double>(m, n, rng);
  Matrix<double> Cref = C;
  const double alpha = 1.3, beta = -0.7;
  gemm(ta, tb, alpha, A, B, beta, C);
  gemm_ref(ta, tb, alpha, A, B, beta, Cref);
  EXPECT_LT(max_abs_diff(C, Cref), 1e-11 * k) << "m=" << m << " n=" << n << " k=" << k;
}

TEST_P(GemmSweep, MatchesReferenceComplex) {
  auto [m, n, k, ta, tb] = GetParam();
  Rng rng(99 + m + 7 * n + 13 * k + ta + tb);
  Matrix<complex_t> A = random_matrix<complex_t>(ta == 'N' ? m : k, ta == 'N' ? k : m, rng);
  Matrix<complex_t> B = random_matrix<complex_t>(tb == 'N' ? k : n, tb == 'N' ? n : k, rng);
  Matrix<complex_t> C = random_matrix<complex_t>(m, n, rng);
  Matrix<complex_t> Cref = C;
  const complex_t alpha(0.8, -0.4), beta(0.2, 0.9);
  gemm(ta, tb, alpha, A, B, beta, C);
  gemm_ref(ta, tb, alpha, A, B, beta, Cref);
  EXPECT_LT(max_abs_diff(C, Cref), 1e-11 * k);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndOps, GemmSweep,
    ::testing::Combine(::testing::Values(1, 7, 33, 130), ::testing::Values(1, 5, 97),
                       ::testing::Values(1, 17, 201), ::testing::Values('N', 'T', 'C'),
                       ::testing::Values('N', 'T', 'C')));

TEST(Gemm, BetaZeroOverwritesUninitializedC) {
  Rng rng(7);
  Matrix<double> A = random_matrix<double>(11, 5, rng);
  Matrix<double> B = random_matrix<double>(5, 9, rng);
  Matrix<double> C(11, 9);
  for (index_t i = 0; i < C.size(); ++i) C.data()[i] = std::nan("");
  gemm('N', 'N', 1.0, A, B, 0.0, C);
  for (index_t i = 0; i < C.size(); ++i) EXPECT_FALSE(std::isnan(C.data()[i]));
}

TEST(Gemm, AlphaZeroScalesOnly) {
  Rng rng(8);
  Matrix<double> A = random_matrix<double>(6, 6, rng);
  Matrix<double> B = random_matrix<double>(6, 6, rng);
  Matrix<double> C = random_matrix<double>(6, 6, rng);
  Matrix<double> Cref = C;
  gemm('N', 'N', 0.0, A, B, 2.0, C);
  for (index_t i = 0; i < C.size(); ++i)
    EXPECT_DOUBLE_EQ(C.data()[i], 2.0 * Cref.data()[i]);
}

TEST(Gemm, CountsAnalyticFlops) {
  obs::Context ctx;
  obs::ContextGuard guard(ctx);
  FlopCounter& fc = ctx.flops();
  Rng rng(9);
  Matrix<double> A = random_matrix<double>(10, 20, rng);
  Matrix<double> B = random_matrix<double>(20, 30, rng);
  Matrix<double> C(10, 30);
  gemm('N', 'N', 1.0, A, B, 0.0, C);
  EXPECT_DOUBLE_EQ(fc.total(), 2.0 * 10 * 30 * 20);
  fc.clear();
  Matrix<complex_t> Az = random_matrix<complex_t>(4, 4, rng);
  Matrix<complex_t> Cz(4, 4);
  gemm('N', 'N', complex_t(1), Az, Az, complex_t(0), Cz);
  EXPECT_DOUBLE_EQ(fc.total(), 4.0 * 2.0 * 4 * 4 * 4);
}

// ---------- level-1 helpers ----------

TEST(Level1, DotcConjugatesFirstArgument) {
  std::vector<complex_t> x{{1, 2}}, y{{3, -1}};
  const complex_t d = dotc(1, x.data(), y.data());
  EXPECT_DOUBLE_EQ(d.real(), (std::conj(x[0]) * y[0]).real());
  EXPECT_DOUBLE_EQ(d.imag(), (std::conj(x[0]) * y[0]).imag());
}

TEST(Level1, Nrm2MatchesDefinition) {
  std::vector<double> x{3.0, 4.0};
  EXPECT_DOUBLE_EQ(nrm2(2, x.data()), 5.0);
  std::vector<complex_t> z{{3, 4}};
  EXPECT_DOUBLE_EQ(nrm2(1, z.data()), 5.0);
}

TEST(Level1, AxpyAndScal) {
  std::vector<double> x{1, 2, 3}, y{10, 20, 30};
  axpy<double>(3, 2.0, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[2], 36.0);
  scal<double>(3, 0.5, y.data());
  EXPECT_DOUBLE_EQ(y[0], 6.0);
}

// ---------- batched GEMM ----------

TEST(BatchedGemm, MatchesLoopOfGemms) {
  Rng rng(21);
  const index_t m = 9, n = 12, k = 9, batch = 17;
  std::vector<double> A(m * k * batch), B(k * n * batch), C(m * n * batch, 0.5),
      Cref(m * n * batch, 0.5);
  for (auto& v : A) v = rng.uniform(-1, 1);
  for (auto& v : B) v = rng.uniform(-1, 1);
  gemm_strided_batched<double>('N', 'N', m, n, k, 2.0, A.data(), m, m * k, B.data(), k, k * n,
                               3.0, C.data(), m, m * n, batch);
  for (index_t b = 0; b < batch; ++b)
    gemm<double>('N', 'N', m, n, k, 2.0, A.data() + b * m * k, m, B.data() + b * k * n, k, 3.0,
                 Cref.data() + b * m * n, m);
  for (index_t i = 0; i < static_cast<index_t>(C.size()); ++i)
    EXPECT_NEAR(C[i], Cref[i], 1e-12);
}

TEST(BatchedGemm, ZeroStrideSharesOperand) {
  // strideA = 0: the same cell matrix applied to every batch member, the
  // pattern used on structured meshes where all cells share the reference
  // Hamiltonian.
  Rng rng(22);
  const index_t m = 6, k = 6, n = 4, batch = 8;
  std::vector<double> A(m * k), B(k * n * batch), C(m * n * batch, 0.0);
  for (auto& v : A) v = rng.uniform(-1, 1);
  for (auto& v : B) v = rng.uniform(-1, 1);
  gemm_strided_batched<double>('N', 'N', m, n, k, 1.0, A.data(), m, 0, B.data(), k, k * n, 0.0,
                               C.data(), m, m * n, batch);
  for (index_t b = 0; b < batch; ++b) {
    std::vector<double> Cb(m * n, 0.0);
    gemm<double>('N', 'N', m, n, k, 1.0, A.data(), m, B.data() + b * k * n, k, 0.0, Cb.data(),
                 m);
    for (index_t i = 0; i < m * n; ++i) EXPECT_NEAR(C[b * m * n + i], Cb[i], 1e-13);
  }
}

TEST(BatchedGemm, ComplexTransposeOps) {
  Rng rng(23);
  const index_t m = 5, n = 5, k = 7, batch = 3;
  std::vector<complex_t> A(k * m * batch), B(k * n * batch), C(m * n * batch);
  for (auto& v : A) v = complex_t(rng.uniform(-1, 1), rng.uniform(-1, 1));
  for (auto& v : B) v = complex_t(rng.uniform(-1, 1), rng.uniform(-1, 1));
  gemm_strided_batched<complex_t>('C', 'N', m, n, k, complex_t(1), A.data(), k, k * m,
                                  B.data(), k, k * n, complex_t(0), C.data(), m, m * n, batch);
  for (index_t b = 0; b < batch; ++b) {
    std::vector<complex_t> Cb(m * n, complex_t(0));
    gemm<complex_t>('C', 'N', m, n, k, complex_t(1), A.data() + b * k * m, k,
                    B.data() + b * k * n, k, complex_t(0), Cb.data(), m);
    for (index_t i = 0; i < m * n; ++i) {
      EXPECT_NEAR(C[b * m * n + i].real(), Cb[i].real(), 1e-12);
      EXPECT_NEAR(C[b * m * n + i].imag(), Cb[i].imag(), 1e-12);
    }
  }
}

// ---------- Cholesky ----------

template <class T>
class CholeskyTyped : public ::testing::Test {};
using CholeskyTypes = ::testing::Types<double, complex_t>;
TYPED_TEST_SUITE(CholeskyTyped, CholeskyTypes);

TYPED_TEST(CholeskyTyped, FactorReconstructsMatrix) {
  using T = TypeParam;
  Rng rng(31);
  for (index_t n : {1, 2, 5, 24, 61}) {
    Matrix<T> A = random_spd<T>(n, rng);
    Matrix<T> L = A;
    ASSERT_TRUE(cholesky_lower(L));
    Matrix<T> R(n, n);
    gemm('N', 'C', T(1), L, L, T(0), R);
    EXPECT_LT(max_abs_diff(A, R), 1e-9 * n) << "n=" << n;
  }
}

TYPED_TEST(CholeskyTyped, InverseOfLowerTriangular) {
  using T = TypeParam;
  Rng rng(32);
  const index_t n = 30;
  Matrix<T> A = random_spd<T>(n, rng);
  Matrix<T> L = A;
  ASSERT_TRUE(cholesky_lower(L));
  Matrix<T> Linv = L;
  invert_lower_triangular(Linv);
  Matrix<T> I(n, n);
  gemm('N', 'N', T(1), L, Linv, T(0), I);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const double expect = (i == j) ? 1.0 : 0.0;
      EXPECT_NEAR(scalar_traits<T>::real(I(i, j)), expect, 1e-10);
    }
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix<double> A(2, 2);
  A(0, 0) = 1.0;
  A(1, 1) = -1.0;
  EXPECT_FALSE(cholesky_lower(A));
}

// ---------- eigensolvers ----------

TEST(SymmetricEig, DiagonalizesKnown2x2) {
  Matrix<double> A(2, 2);
  A(0, 0) = 2.0;
  A(1, 1) = 2.0;
  A(0, 1) = A(1, 0) = 1.0;
  std::vector<double> ev;
  Matrix<double> V;
  symmetric_eig(A, ev, V);
  EXPECT_NEAR(ev[0], 1.0, 1e-12);
  EXPECT_NEAR(ev[1], 3.0, 1e-12);
}

template <class T>
void check_eig_residual(const Matrix<T>& A, const std::vector<double>& ev,
                        const Matrix<T>& V, double tol) {
  const index_t n = A.rows();
  // ||A v - ev v|| small, V orthonormal, eigenvalues ascending.
  Matrix<T> AV(n, n);
  gemm('N', 'N', T(1), A, V, T(0), AV);
  for (index_t j = 0; j < n; ++j) {
    double res = 0.0;
    for (index_t i = 0; i < n; ++i)
      res += scalar_traits<T>::abs2(AV(i, j) - T(ev[j]) * V(i, j));
    EXPECT_LT(std::sqrt(res), tol) << "column " << j;
    if (j > 0) {
      EXPECT_LE(ev[j - 1], ev[j] + 1e-12);
    }
  }
  Matrix<T> G(n, n);
  gemm('C', 'N', T(1), V, V, T(0), G);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(scalar_traits<T>::real(G(i, j)), i == j ? 1.0 : 0.0, tol);
}

class EigSizes : public ::testing::TestWithParam<int> {};

TEST_P(EigSizes, RandomSymmetric) {
  const index_t n = GetParam();
  Rng rng(40 + n);
  Matrix<double> A = random_hermitian<double>(n, rng);
  std::vector<double> ev;
  Matrix<double> V;
  symmetric_eig(A, ev, V);
  check_eig_residual(A, ev, V, 1e-8 * n);
}

TEST_P(EigSizes, RandomComplexHermitian) {
  const index_t n = GetParam();
  Rng rng(50 + n);
  Matrix<complex_t> A = random_hermitian<complex_t>(n, rng);
  std::vector<double> ev;
  Matrix<complex_t> V;
  hermitian_eig(A, ev, V);
  check_eig_residual(A, ev, V, 1e-7 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigSizes, ::testing::Values(1, 2, 3, 8, 25, 64, 120));

TEST(HermitianEig, HandlesDegenerateSpectrum) {
  // Identity-plus-rank-one has an (n-1)-fold degenerate eigenvalue.
  const index_t n = 12;
  Matrix<complex_t> A(n, n);
  for (index_t i = 0; i < n; ++i) A(i, i) = complex_t(2.0);
  std::vector<complex_t> u(n);
  for (index_t i = 0; i < n; ++i) u[i] = complex_t(1.0 / std::sqrt(double(n)), 0.0);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) A(i, j) += u[i] * std::conj(u[j]);
  std::vector<double> ev;
  Matrix<complex_t> V;
  hermitian_eig(A, ev, V);
  for (index_t j = 0; j + 1 < n; ++j) EXPECT_NEAR(ev[j], 2.0, 1e-10);
  EXPECT_NEAR(ev[n - 1], 3.0, 1e-10);
  check_eig_residual(A, ev, V, 1e-8 * n);
}

TEST(SymmetricEig, TraceAndDeterminantInvariants) {
  Rng rng(61);
  const index_t n = 20;
  Matrix<double> A = random_hermitian<double>(n, rng);
  std::vector<double> ev;
  Matrix<double> V;
  symmetric_eig(A, ev, V);
  double tr = 0.0, evsum = 0.0;
  for (index_t i = 0; i < n; ++i) {
    tr += A(i, i);
    evsum += ev[i];
  }
  EXPECT_NEAR(tr, evsum, 1e-9);
}

// ---------- iterative solvers ----------

TEST(Pcg, SolvesSpdSystem) {
  Rng rng(71);
  const index_t n = 80;
  Matrix<double> A = random_spd<double>(n, rng);
  std::vector<double> b(n), x(n, 0.0);
  for (auto& v : b) v = rng.uniform(-1, 1);
  auto op = [&](const std::vector<double>& in, std::vector<double>& out) {
    out.assign(n, 0.0);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i) out[i] += A(i, j) * in[j];
  };
  auto prec = [&](const std::vector<double>& in, std::vector<double>& out) {
    out.resize(n);
    for (index_t i = 0; i < n; ++i) out[i] = in[i] / A(i, i);
  };
  auto rep = pcg<double>(op, prec, b, x, 1e-12, 500);
  EXPECT_TRUE(rep.converged);
  std::vector<double> Ax;
  op(x, Ax);
  double err = 0.0;
  for (index_t i = 0; i < n; ++i) err = std::max(err, std::abs(Ax[i] - b[i]));
  EXPECT_LT(err, 1e-8);
}

TEST(Pcg, JacobiPreconditionerReducesIterations) {
  // Strongly diagonal-scaled SPD system: Jacobi should help a lot.
  const index_t n = 200;
  Rng rng(72);
  Matrix<double> A(n, n);
  for (index_t i = 0; i < n; ++i) A(i, i) = 1.0 + 1000.0 * rng.uniform(0, 1);
  for (index_t i = 0; i + 1 < n; ++i) A(i, i + 1) = A(i + 1, i) = 0.3;
  std::vector<double> b(n, 1.0), x0(n, 0.0), x1(n, 0.0);
  auto op = [&](const std::vector<double>& in, std::vector<double>& out) {
    out.assign(n, 0.0);
    for (index_t i = 0; i < n; ++i) {
      out[i] += A(i, i) * in[i];
      if (i > 0) out[i] += A(i, i - 1) * in[i - 1];
      if (i + 1 < n) out[i] += A(i, i + 1) * in[i + 1];
    }
  };
  auto ident = [&](const std::vector<double>& in, std::vector<double>& out) { out = in; };
  auto jac = [&](const std::vector<double>& in, std::vector<double>& out) {
    out.resize(n);
    for (index_t i = 0; i < n; ++i) out[i] = in[i] / A(i, i);
  };
  auto rep_plain = pcg<double>(op, ident, b, x0, 1e-10, 5000);
  auto rep_jac = pcg<double>(op, jac, b, x1, 1e-10, 5000);
  EXPECT_TRUE(rep_plain.converged);
  EXPECT_TRUE(rep_jac.converged);
  EXPECT_LT(rep_jac.iterations, rep_plain.iterations);
}

template <class T>
void run_block_minres_shifted() {
  // (A - eps_j I) x_j = b_j with A symmetric indefinite after shifting:
  // verifies the per-column-shift plumbing the invDFT adjoint solve needs.
  Rng rng(81);
  const index_t n = 60, nb = 4;
  Matrix<T> A = random_hermitian<T>(n, rng);
  for (index_t i = 0; i < n; ++i) A(i, i) += T(6.0);
  std::vector<double> shifts{-1.0, 0.5, 1.5, 2.5};
  Matrix<T> B = random_matrix<T>(n, nb, rng);
  Matrix<T> X(n, nb);
  auto op = [&](const Matrix<T>& in, Matrix<T>& out) {
    gemm('N', 'N', T(1), A, in, T(0), out);
    for (index_t j = 0; j < nb; ++j)
      for (index_t i = 0; i < n; ++i) out(i, j) -= T(shifts[j]) * in(i, j);
  };
  auto prec = [&](const Matrix<T>& in, Matrix<T>& out) { out = in; };
  auto rep = block_minres<T>(op, prec, B, X, 1e-10, 2000);
  EXPECT_TRUE(rep.converged);
  Matrix<T> R(n, nb);
  op(X, R);
  for (index_t j = 0; j < nb; ++j) {
    double err = 0.0;
    for (index_t i = 0; i < n; ++i) err += scalar_traits<T>::abs2(R(i, j) - B(i, j));
    EXPECT_LT(std::sqrt(err), 1e-7) << "column " << j;
  }
}

TEST(BlockMinres, SolvesShiftedSystemsReal) { run_block_minres_shifted<double>(); }
TEST(BlockMinres, SolvesShiftedSystemsComplex) { run_block_minres_shifted<complex_t>(); }

TEST(BlockMinres, SolvesIndefiniteSystem) {
  // A has negative and positive eigenvalues; CG would fail, MINRES must not.
  const index_t n = 50;
  Matrix<double> A(n, n);
  for (index_t i = 0; i < n; ++i) A(i, i) = (i < n / 2) ? -2.0 - i * 0.1 : 1.0 + i * 0.1;
  for (index_t i = 0; i + 1 < n; ++i) A(i, i + 1) = A(i + 1, i) = 0.05;
  Rng rng(83);
  Matrix<double> B = random_matrix<double>(n, 2, rng);
  Matrix<double> X(n, 2);
  auto op = [&](const Matrix<double>& in, Matrix<double>& out) {
    gemm('N', 'N', 1.0, A, in, 0.0, out);
  };
  auto prec = [&](const Matrix<double>& in, Matrix<double>& out) { out = in; };
  auto rep = block_minres<double>(op, prec, B, X, 1e-10, 3000);
  EXPECT_TRUE(rep.converged);
  Matrix<double> R(2, 2);
  Matrix<double> AX(n, 2);
  op(X, AX);
  EXPECT_LT(max_abs_diff(AX, B), 1e-7);
}

TEST(BlockMinres, PreconditionerReducesIterations) {
  // Diagonally ill-conditioned SPD system; diag preconditioner should give a
  // large iteration reduction (the paper reports ~5x for the adjoint solve).
  const index_t n = 300;
  Matrix<double> diag(n, 1);
  Rng rng(84);
  for (index_t i = 0; i < n; ++i) diag(i, 0) = 1.0 + 500.0 * rng.uniform(0, 1);
  Matrix<double> B = random_matrix<double>(n, 3, rng);
  auto op = [&](const Matrix<double>& in, Matrix<double>& out) {
    out.resize(n, in.cols());
    for (index_t j = 0; j < in.cols(); ++j)
      for (index_t i = 0; i < n; ++i) {
        double v = diag(i, 0) * in(i, j);
        if (i > 0) v += 0.4 * in(i - 1, j);
        if (i + 1 < n) v += 0.4 * in(i + 1, j);
        out(i, j) = v;
      }
  };
  auto ident = [&](const Matrix<double>& in, Matrix<double>& out) { out = in; };
  auto dprec = [&](const Matrix<double>& in, Matrix<double>& out) {
    out.resize(n, in.cols());
    for (index_t j = 0; j < in.cols(); ++j)
      for (index_t i = 0; i < n; ++i) out(i, j) = in(i, j) / diag(i, 0);
  };
  Matrix<double> X0(n, 3), X1(n, 3);
  auto rep0 = block_minres<double>(op, ident, B, X0, 1e-9, 5000);
  auto rep1 = block_minres<double>(op, dprec, B, X1, 1e-9, 5000);
  EXPECT_TRUE(rep0.converged);
  EXPECT_TRUE(rep1.converged);
  EXPECT_GT(rep0.iterations, 2 * rep1.iterations);
}

TEST(Lanczos, UpperBoundsSpectrum) {
  Rng rng(91);
  const index_t n = 120;
  Matrix<double> A = random_hermitian<double>(n, rng);
  std::vector<double> ev;
  Matrix<double> V;
  symmetric_eig(A, ev, V);
  auto op = [&](const std::vector<double>& in, std::vector<double>& out) {
    out.assign(n, 0.0);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < n; ++i) out[i] += A(i, j) * in[j];
  };
  const double ub = lanczos_upper_bound<double>(op, n, 15);
  EXPECT_GE(ub, ev.back() - 1e-9);
  EXPECT_LT(ub, ev.back() + 0.5 * (ev.back() - ev.front()) + 10.0);
}

// ---------- mixed precision ----------

TEST(Mixed, DemotePromoteRoundTrip) {
  Rng rng(95);
  const index_t n = 1000;
  std::vector<double> x(n), y(n);
  std::vector<float> f(n);
  for (auto& v : x) v = rng.uniform(-10, 10);
  demote<double>(x.data(), f.data(), n);
  promote<double>(f.data(), y.data(), n);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], y[i], 2e-6 * std::abs(x[i]) + 1e-12);
}

TEST(Mixed, LowPrecisionGemmCloseToFp64) {
  Rng rng(96);
  const index_t m = 40, n = 30, k = 50;
  Matrix<double> A = random_matrix<double>(m, k, rng);
  Matrix<double> B = random_matrix<double>(k, n, rng);
  Matrix<double> C64(m, n), C32(m, n);
  gemm('N', 'N', 1.0, A, B, 0.0, C64);
  gemm_low_precision<double>('N', 'N', m, n, k, A.data(), A.ld(), B.data(), B.ld(), C32.data(),
                             C32.ld());
  EXPECT_LT(max_abs_diff(C64, C32), 1e-4 * k);
  EXPECT_GT(max_abs_diff(C64, C32), 0.0);  // genuinely reduced precision
}

TEST(Mixed, ComplexLowPrecisionGemm) {
  Rng rng(97);
  const index_t m = 12, n = 9, k = 20;
  Matrix<complex_t> A = random_matrix<complex_t>(k, m, rng);
  Matrix<complex_t> B = random_matrix<complex_t>(k, n, rng);
  Matrix<complex_t> C64(m, n), C32(m, n);
  gemm('C', 'N', complex_t(1), A, B, complex_t(0), C64);
  gemm_low_precision<complex_t>('C', 'N', m, n, k, A.data(), A.ld(), B.data(), B.ld(),
                                C32.data(), C32.ld());
  EXPECT_LT(max_abs_diff(C64, C32), 1e-4 * k);
}

TEST(Mixed, DemotePanelCompactsStridedColumns) {
  // demote_panel reads exactly `rows` entries per column of a strided
  // (ld > rows) source and writes a compact rows x cols destination.
  // Regression: the demotion used to convert the full ld*cols extent, which
  // overruns the final column of a trailing submatrix panel.
  Rng rng(98);
  const index_t ld = 11, rows = 6, cols = 4;
  std::vector<double> src(static_cast<std::size_t>(ld * cols));
  for (auto& v : src) v = rng.uniform(-5, 5);
  std::vector<float> dst(static_cast<std::size_t>(rows * cols), -1.0f);
  demote_panel<double>(src.data(), ld, rows, cols, dst.data());
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < rows; ++i)
      EXPECT_EQ(dst[i + j * rows], static_cast<float>(src[i + j * ld]));
}

TEST(Mixed, LowPrecisionGemmOnTrailingSubmatrixPanels) {
  // Operands are bottom-right panels of a larger parent matrix, so the
  // leading dimension exceeds the panel row count and the last panel column
  // ends exactly at the parent's final element. Reading lda*cols entries
  // from the panel pointer (the pre-fix behavior) runs past the parent's
  // heap block — this is the ASan regression case for the demotion overread.
  Rng rng(99);
  const index_t M = 20, N = 15;
  Matrix<double> P = random_matrix<double>(M, N, rng);
  const index_t m = 7, n = 5, k = 6;
  const double* A = P.data() + (M - m) + (N - k) * M;  // m x k, lda = M
  const double* B = P.data() + (M - k) + (N - n) * M;  // k x n, ldb = M
  Matrix<double> C64(m, n), C32(m, n);
  gemm<double>('N', 'N', m, n, k, 1.0, A, M, B, M, 0.0, C64.data(), C64.ld());
  gemm_low_precision<double>('N', 'N', m, n, k, A, M, B, M, C32.data(), C32.ld());
  EXPECT_LT(max_abs_diff(C64, C32), 1e-4 * k);
}

TEST(Mixed, ComplexLowPrecisionGemmOnStridedPanels) {
  // Same overread regression for the 'C' path, where the stored operand is
  // k x m and the compacted demotion target differs from the op() shape.
  Rng rng(100);
  const index_t M = 18, N = 14;
  Matrix<complex_t> P = random_matrix<complex_t>(M, N, rng);
  const index_t m = 5, n = 4, k = 6;
  const complex_t* A = P.data() + (M - k) + (N - m) * M;  // k x m stored, op 'C'
  const complex_t* B = P.data() + (M - k) + (N - n) * M;  // k x n stored
  Matrix<complex_t> C64(m, n), C32(m, n);
  gemm<complex_t>('C', 'N', m, n, k, complex_t(1), A, M, B, M, complex_t(0), C64.data(),
                  C64.ld());
  gemm_low_precision<complex_t>('C', 'N', m, n, k, A, M, B, M, C32.data(), C32.ld());
  EXPECT_LT(max_abs_diff(C64, C32), 1e-4 * k);
}

TEST(Mixed, OverlapFlopsFromOpenMPWorkersLandInTheCallersContext) {
  // Three 64-column blocks -> six upper block pairs, spread over the workers
  // of the block-pair region. Each worker's GEMMs must count into the
  // context installed on the calling thread, not the process default.
  const index_t n = 2000, N = 192, nb = 64;
  Rng rng(21);
  const Matrix<double> A = random_matrix<double>(n, N, rng);
  Matrix<double> S;
  obs::Context& process = obs::Context::current();
  const double process_before = process.flops().total();
  obs::Context ctx;
  const int threads_before = omp_get_max_threads();
  omp_set_num_threads(4);
  {
    obs::ContextGuard guard(ctx);
    overlap_hermitian_partial(cspan(A), cspan(A), S, nb, /*mixed=*/true);
  }
  omp_set_num_threads(threads_before);
  EXPECT_DOUBLE_EQ(ctx.flops().total(), 6.0 * 2.0 * nb * nb * n);
  EXPECT_DOUBLE_EQ(process.flops().total(), process_before);
}

}  // namespace
}  // namespace dftfe::la
