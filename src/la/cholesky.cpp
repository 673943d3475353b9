#include "la/cholesky.hpp"

#include <cmath>

#include "base/defs.hpp"
#include "obs/context.hpp"

namespace dftfe::la {

template <class T>
bool cholesky_lower(Matrix<T>& A) {
  const index_t n = A.rows();
  obs::Context::current().flops().add(n * n * n / 3.0 * scalar_traits<T>::flop_factor);
  for (index_t j = 0; j < n; ++j) {
    double djj = scalar_traits<T>::real(A(j, j));
    for (index_t k = 0; k < j; ++k) djj -= scalar_traits<T>::abs2(A(j, k));
    if (!(djj > 0.0)) return false;
    const double ljj = std::sqrt(djj);
    A(j, j) = T(ljj);
    const double inv = 1.0 / ljj;
    for (index_t i = j + 1; i < n; ++i) {
      T s = A(i, j);
      for (index_t k = 0; k < j; ++k) s -= A(i, k) * scalar_traits<T>::conj(A(j, k));
      A(i, j) = s * T(inv);
    }
    for (index_t i = 0; i < j; ++i) A(i, j) = T{};
  }
  return true;
}

template <class T>
void invert_lower_triangular(Matrix<T>& L) {
  const index_t n = L.rows();
  obs::Context::current().flops().add(n * n * n / 3.0 * scalar_traits<T>::flop_factor);
  // Column-oriented forward substitution: solve L X = I in place.
  Matrix<T> X(n, n);
  for (index_t j = 0; j < n; ++j) {
    X(j, j) = T(1.0 / scalar_traits<T>::real(L(j, j)));
    for (index_t i = j + 1; i < n; ++i) {
      T s{};
      for (index_t k = j; k < i; ++k) s += L(i, k) * X(k, j);
      X(i, j) = -s * T(1.0 / scalar_traits<T>::real(L(i, i)));
    }
  }
  L = std::move(X);
}

template bool cholesky_lower<double>(Matrix<double>&);
template bool cholesky_lower<complex_t>(Matrix<complex_t>&);
template void invert_lower_triangular<double>(Matrix<double>&);
template void invert_lower_triangular<complex_t>(Matrix<complex_t>&);

}  // namespace dftfe::la
