#pragma once

// Fixture for the omp-thread-local rule of tools/lint_invariants.py (the
// lint_invariants_selftest ctest runs the linter with this directory as the
// root and expects exactly the three violations marked BAD below).

#include <vector>

namespace fixture {

// Namespace-scope thread_local: per-thread state by design, not flagged.
thread_local std::vector<double> t_log;

inline void update(std::vector<double>& x, long n, double beta) {
  static thread_local std::vector<double> p, z;
  p.resize(n);
  z.resize(n);
#pragma omp parallel for if (n > 8192)
  for (long i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];  // BAD: p, z
  x = p;
}

inline void promote(float* C, long m, long n) {
  static thread_local std::vector<float> Cf;
  Cf.resize(m * n);
#pragma omp parallel for if (n > 4)
  for (long j = 0; j < n; ++j)
    for (long i = 0; i < m; ++i) C[i + j * m] = Cf[i + j * m];  // BAD: Cf
}

inline void hoisted(double* y, long n) {
  static thread_local std::vector<double> w;
  w.resize(n);
  const double* const wp = w.data();
#pragma omp parallel for
  for (long i = 0; i < n; ++i) y[i] = wp[i];
  t_log.push_back(y[0]);
#pragma omp parallel
  { t_log.clear(); }
}

inline void waived(double* y, long n) {
  static thread_local std::vector<double> v(16);
#pragma omp parallel for num_threads(1)
  // lint: allow(omp-thread-local): one-thread team, the caller's own copy
  for (long i = 0; i < n; ++i) y[i] = v[i % 16];
}

}  // namespace fixture
