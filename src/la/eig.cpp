#include "la/eig.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "base/defs.hpp"
#include "obs/context.hpp"

namespace dftfe::la {

namespace {

// Householder reduction of a real symmetric matrix to tridiagonal form.
// On exit: d = diagonal, e = subdiagonal (e[0] unused), and `a` holds the
// orthogonal transformation matrix Q (a^T A a = tridiag).
void tred2(Matrix<double>& a, std::vector<double>& d, std::vector<double>& e) {
  const index_t n = a.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  for (index_t i = n - 1; i >= 1; --i) {
    const index_t l = i - 1;
    double h = 0.0, scale = 0.0;
    if (l > 0) {
      for (index_t k = 0; k <= l; ++k) scale += std::abs(a(i, k));
      if (scale == 0.0) {
        e[i] = a(i, l);
      } else {
        for (index_t k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        double g = (f >= 0.0 ? -std::sqrt(h) : std::sqrt(h));
        e[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;
        f = 0.0;
        for (index_t j = 0; j <= l; ++j) {
          a(j, i) = a(i, j) / h;
          g = 0.0;
          for (index_t k = 0; k <= j; ++k) g += a(j, k) * a(i, k);
          for (index_t k = j + 1; k <= l; ++k) g += a(k, j) * a(i, k);
          e[j] = g / h;
          f += e[j] * a(i, j);
        }
        const double hh = f / (h + h);
        for (index_t j = 0; j <= l; ++j) {
          f = a(i, j);
          e[j] = g = e[j] - hh * f;
          for (index_t k = 0; k <= j; ++k) a(j, k) -= (f * e[k] + g * a(i, k));
        }
      }
    } else {
      e[i] = a(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const index_t l = i - 1;
    if (d[i] != 0.0) {
      for (index_t j = 0; j <= l; ++j) {
        double g = 0.0;
        for (index_t k = 0; k <= l; ++k) g += a(i, k) * a(k, j);
        for (index_t k = 0; k <= l; ++k) a(k, j) -= g * a(k, i);
      }
    }
    d[i] = a(i, i);
    a(i, i) = 1.0;
    for (index_t j = 0; j <= l; ++j) a(j, i) = a(i, j) = 0.0;
  }
}

// Implicit-shift QL iteration on a tridiagonal matrix; `z` accumulates the
// eigenvectors (initialized to the tred2 transformation).
void tql2(std::vector<double>& d, std::vector<double>& e, Matrix<double>& z) {
  const index_t n = static_cast<index_t>(d.size());
  if (n == 0) return;
  for (index_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  const double eps = std::numeric_limits<double>::epsilon();
  for (index_t l = 0; l < n; ++l) {
    int iter = 0;
    index_t m;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= eps * dd) break;
      }
      if (m != l) {
        if (iter++ == 100) throw std::runtime_error("tql2: too many iterations");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::abs(r) : -std::abs(r)));
        double s = 1.0, c = 1.0, p = 0.0;
        bool underflow = false;
        for (index_t i = m - 1; i >= l; --i) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          for (index_t k = 0; k < n; ++k) {
            f = z(k, i + 1);
            z(k, i + 1) = s * z(k, i) + c * f;
            z(k, i) = c * z(k, i) - s * f;
          }
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  // Sort ascending, reordering eigenvector columns.
  for (index_t i = 0; i < n - 1; ++i) {
    index_t kmin = i;
    for (index_t j = i + 1; j < n; ++j)
      if (d[j] < d[kmin]) kmin = j;
    if (kmin != i) {
      std::swap(d[kmin], d[i]);
      for (index_t r = 0; r < n; ++r) std::swap(z(r, kmin), z(r, i));
    }
  }
}

}  // namespace

void symmetric_eig(const Matrix<double>& A, std::vector<double>& evals,
                   Matrix<double>& evecs) {
  const index_t n = A.rows();
  // ~9n^3 for tridiag + QL with vectors
  obs::Context::current().flops().add(9.0 * n * n * n);
  evecs = A;
  std::vector<double> e;
  tred2(evecs, evals, e);
  tql2(evals, e, evecs);
}

template <>
void hermitian_eig<double>(const Matrix<double>& A, std::vector<double>& evals,
                           Matrix<double>& evecs) {
  symmetric_eig(A, evals, evecs);
}

template <>
void hermitian_eig<complex_t>(const Matrix<complex_t>& A, std::vector<double>& evals,
                              Matrix<complex_t>& evecs) {
  const index_t n = A.rows();
  // Real embedding M = [[Re A, -Im A], [Im A, Re A]].
  Matrix<double> M(2 * n, 2 * n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const double re = A(i, j).real(), im = A(i, j).imag();
      M(i, j) = re;
      M(i + n, j + n) = re;
      M(i + n, j) = im;
      M(i, j + n) = -im;
    }
  std::vector<double> ev2;
  Matrix<double> Z;
  symmetric_eig(M, ev2, Z);

  // Each complex eigenvector appears as a 2D real eigenspace; walk the sorted
  // real eigenpairs, map (u; v) -> u + iv, and keep the ones that are new
  // directions after Gram-Schmidt against everything already accepted.
  evals.assign(n, 0.0);
  evecs.resize(n, n);
  index_t accepted = 0;
  for (index_t j = 0; j < 2 * n && accepted < n; ++j) {
    std::vector<complex_t> zc(n);
    for (index_t i = 0; i < n; ++i) zc[i] = complex_t(Z(i, j), Z(i + n, j));
    // Project out accepted vectors.
    for (index_t a = 0; a < accepted; ++a) {
      complex_t ov{};
      for (index_t i = 0; i < n; ++i) ov += std::conj(evecs(i, a)) * zc[i];
      for (index_t i = 0; i < n; ++i) zc[i] -= ov * evecs(i, a);
    }
    double nn = 0.0;
    for (index_t i = 0; i < n; ++i) nn += std::norm(zc[i]);
    nn = std::sqrt(nn);
    if (nn > 0.1) {
      const double inv = 1.0 / nn;
      for (index_t i = 0; i < n; ++i) evecs(i, accepted) = zc[i] * inv;
      evals[accepted] = ev2[j];
      ++accepted;
    }
  }
  if (accepted != n) throw std::runtime_error("hermitian_eig: embedding reconstruction failed");
}

}  // namespace dftfe::la
