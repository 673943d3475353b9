#include "fe/cell_ops.hpp"

#include <cmath>
#include <map>
#include <stdexcept>

namespace dftfe::fe {

namespace {

struct GeomKey {
  long hx, hy, hz;  // cell sizes quantized to 1e-12
  bool operator<(const GeomKey& o) const {
    if (hx != o.hx) return hx < o.hx;
    if (hy != o.hy) return hy < o.hy;
    return hz < o.hz;
  }
};

GeomKey quantize(const std::array<double, 3>& h) {
  auto q = [](double v) { return std::lround(v * 1e12); };
  return {q(h[0]), q(h[1]), q(h[2])};
}

}  // namespace

template <class T>
CellStiffness<T>::CellStiffness(const DofHandler& dofh, double coef_lap,
                                std::array<double, 3> kpoint)
    : dofh_(&dofh) {
  const bool has_k = (kpoint[0] != 0.0 || kpoint[1] != 0.0 || kpoint[2] != 0.0);
  has_bloch_ = has_k;
  if (has_k && !scalar_traits<T>::is_complex)
    throw std::invalid_argument("CellStiffness: k-points require a complex scalar type");
  k1_ = reference_stiffness_1d(dofh.nodes_per_cell_1d());
  // Scalar-typed copy of the (symmetric) 1D stiffness: the GEMM operand of
  // the sum-factorization contractions.
  k1s_.resize(k1_.rows(), k1_.cols());
  for (index_t j = 0; j < k1_.cols(); ++j)
    for (index_t i = 0; i < k1_.rows(); ++i) k1s_(i, j) = T(k1_(i, j));

  const int n = dofh.nodes_per_cell_1d();
  const index_t nd = dofh.ndofs_per_cell();
  const auto K1 = reference_stiffness_1d(n);
  const auto D = gll_derivative_matrix(dofh.ref_nodes());
  const auto& w = dofh.ref_weights();

  // Precompute cell -> dof map and group cells by geometry.
  const Mesh& mesh = dofh.mesh();
  const index_t nc = mesh.ncells_total();
  cell_dof_map_.resize(nc * nd);
  std::map<GeomKey, index_t> group_of;
  std::vector<index_t> dofs;
  for (index_t c = 0; c < nc; ++c) {
    dofh.cell_dofs(c, dofs);
    std::copy(dofs.begin(), dofs.end(), cell_dof_map_.begin() + c * nd);
    const GeomKey key = quantize(mesh.cell_sizes(c));
    auto [it, inserted] = group_of.try_emplace(key, static_cast<index_t>(groups_.size()));
    if (inserted) groups_.push_back({});
    groups_[it->second].cells.push_back(c);
  }

  // Build one dense cell matrix per geometry group.
  for (auto& [key, gi] : group_of) {
    Group& g = groups_[gi];
    const auto h = mesh.cell_sizes(g.cells.front());
    const double hx = h[0], hy = h[1], hz = h[2];
    const double cxx = coef_lap * (2.0 / hx) * (hy / 2.0) * (hz / 2.0);
    const double cyy = coef_lap * (hx / 2.0) * (2.0 / hy) * (hz / 2.0);
    const double czz = coef_lap * (hx / 2.0) * (hy / 2.0) * (2.0 / hz);
    g.cxx = cxx;
    g.cyy = cyy;
    g.czz = czz;
    g.A.resize(nd, nd);
    // Widen before multiplying: i + n*(j + n*k) evaluated in int overflows
    // once n^3 exceeds INT_MAX, and signed overflow is UB, not wraparound.
    auto idx = [n](int i, int j, int k) {
      return static_cast<index_t>(i) +
             static_cast<index_t>(n) * (static_cast<index_t>(j) + static_cast<index_t>(n) * k);
    };
    for (int k = 0; k < n; ++k)
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i) {
          const index_t a = idx(i, j, k);
          // x-derivative couplings: (i, i') with same (j, k).
          for (int ip = 0; ip < n; ++ip)
            g.A(a, idx(ip, j, k)) += T(cxx * K1(i, ip) * w[j] * w[k]);
          for (int jp = 0; jp < n; ++jp)
            g.A(a, idx(i, jp, k)) += T(cyy * w[i] * K1(j, jp) * w[k]);
          for (int kp = 0; kp < n; ++kp)
            g.A(a, idx(i, j, kp)) += T(czz * w[i] * w[j] * K1(k, kp));
        }
    if (has_k) {
      if constexpr (scalar_traits<T>::is_complex) {
        // -i k . grad term: G_x(a,b) = w_i D(i,i') w_j w_k (hy/2)(hz/2), etc.
        const double gx = (hy / 2.0) * (hz / 2.0);
        const double gy = (hx / 2.0) * (hz / 2.0);
        const double gz = (hx / 2.0) * (hy / 2.0);
        const double k2 = 0.5 * (kpoint[0] * kpoint[0] + kpoint[1] * kpoint[1] +
                                 kpoint[2] * kpoint[2]);
        const complex_t mi(0.0, -1.0);
        for (int k = 0; k < n; ++k)
          for (int j = 0; j < n; ++j)
            for (int i = 0; i < n; ++i) {
              const index_t a = idx(i, j, k);
              for (int ip = 0; ip < n; ++ip)
                g.A(a, idx(ip, j, k)) += mi * kpoint[0] * gx * w[i] * D(i, ip) * w[j] * w[k];
              for (int jp = 0; jp < n; ++jp)
                g.A(a, idx(i, jp, k)) += mi * kpoint[1] * gy * w[i] * w[j] * D(j, jp) * w[k];
              for (int kp = 0; kp < n; ++kp)
                g.A(a, idx(i, j, kp)) += mi * kpoint[2] * gz * w[i] * w[j] * w[k] * D(k, kp);
              // +|k|^2/2 on the (lumped) cell mass diagonal.
              g.A(a, a) += k2 * w[i] * w[j] * w[k] * (hx / 2.0) * (hy / 2.0) * (hz / 2.0);
            }
      }
    }
  }
}

template <class T>
void CellStiffness<T>::apply_add(const la::Matrix<T>& X, la::Matrix<T>& Y) const {
  const index_t nd = dofh_->ndofs_per_cell();
  const index_t B = X.cols();
  la::Matrix<T>& Xc = xc_.acquire(nd, chunk_cells_ * B);
  la::Matrix<T>& Yc = yc_.acquire(nd, chunk_cells_ * B);
  for (const Group& g : groups_) {
    const index_t ncg = static_cast<index_t>(g.cells.size());
    for (index_t c0 = 0; c0 < ncg; c0 += chunk_cells_) {
      const index_t nc = std::min(chunk_cells_, ncg - c0);
      // Gather: cell-local blocks Xc[:, b*B:(b+1)*B] = X[dofs(cell_b), :].
#pragma omp parallel for schedule(static)
      for (index_t b = 0; b < nc; ++b) {
        const index_t* dofs = cell_dof_map_.data() + g.cells[c0 + b] * nd;
        for (index_t j = 0; j < B; ++j) {
          const T* src = X.col(j);
          T* dst = Xc.col(b * B + j);
          for (index_t i = 0; i < nd; ++i) dst[i] = src[dofs[i]];
        }
      }
      // Batched dense apply with the shared group matrix (stride 0).
      la::gemm_strided_batched<T>('N', 'N', nd, B, nd, T(1), g.A.data(), nd, 0, Xc.data(), nd,
                                  nd * B, T(0), Yc.data(), nd, nd * B, nc);
      // Scatter (Assembly_FE): parallel over columns so no two threads write
      // the same (dof, column) entry.
#pragma omp parallel for schedule(static)
      for (index_t j = 0; j < B; ++j) {
        T* dst = Y.col(j);
        for (index_t b = 0; b < nc; ++b) {
          const index_t* dofs = cell_dof_map_.data() + g.cells[c0 + b] * nd;
          const T* src = Yc.col(b * B + j);
          for (index_t i = 0; i < nd; ++i) dst[dofs[i]] += src[i];
        }
      }
    }
  }
}

template <class T>
void CellStiffness<T>::apply_add_sumfac(const la::Matrix<T>& X, la::Matrix<T>& Y) const {
  if (has_bloch_)
    throw std::logic_error("CellStiffness: sum factorization has no Bloch terms");
  const int n = dofh_->nodes_per_cell_1d();
  const index_t n2 = static_cast<index_t>(n) * n;
  const index_t nd = dofh_->ndofs_per_cell();
  const index_t B = X.cols();
  const auto& w = dofh_->ref_weights();

  // Gathered chunk of (cell, column) pairs, pair p = b * B + j. Each pair's
  // cell-local vector u (one nd column of U) is contracted with the symmetric
  // 1D stiffness K1 along each tensor direction via its three unfoldings:
  //   Sx = K1 . U      (U as n x n^2, one GEMM per pair)
  //   Sy = U_k . K1    (n x n slabs, n GEMMs per pair; K1 = K1^T)
  //   Sz = U_(ij),m . K1  (U as n^2 x n, one GEMM per pair)
  // all issued as strided-batched GEMMs across the whole chunk, so the batch
  // dimension spans cells x columns. nd = n^3 makes the slab stride uniform
  // (pair p, slab k lives at offset (p*n + k) * n^2).
  const index_t max_pairs = chunk_cells_ * B;
  la::Matrix<T>& U = sf_u_.acquire(nd, max_pairs);
  la::Matrix<T>& Sx = sf_x_.acquire(nd, max_pairs);
  la::Matrix<T>& Sy = sf_y_.acquire(nd, max_pairs);
  la::Matrix<T>& Sz = sf_z_.acquire(nd, max_pairs);

  for (const Group& g : groups_) {
    const index_t ncg = static_cast<index_t>(g.cells.size());
    for (index_t c0 = 0; c0 < ncg; c0 += chunk_cells_) {
      const index_t nc = std::min(chunk_cells_, ncg - c0);
      const index_t pairs = nc * B;
      // Gather cell-local vectors.
#pragma omp parallel for schedule(static)
      for (index_t b = 0; b < nc; ++b) {
        const index_t* dofs = cell_dof_map_.data() + g.cells[c0 + b] * nd;
        for (index_t j = 0; j < B; ++j) {
          const T* src = X.col(j);
          T* dst = U.col(b * B + j);
          for (index_t i = 0; i < nd; ++i) dst[i] = src[dofs[i]];
        }
      }
      // x-direction: Sx[p] = K1 * U[p] with U[p] viewed as n x n^2.
      la::gemm_strided_batched<T>('N', 'N', n, n2, n, T(1), k1s_.data(), n, 0, U.data(), n,
                                  nd, T(0), Sx.data(), n, nd, pairs);
      // y-direction: one n x n GEMM per (pair, z-slab), batch = pairs * n.
      la::gemm_strided_batched<T>('N', 'N', n, n, n, T(1), U.data(), n, n2, k1s_.data(), n,
                                  0, T(0), Sy.data(), n, n2, pairs * n);
      // z-direction: Sz[p] = U[p] * K1 with U[p] viewed as n^2 x n.
      la::gemm_strided_batched<T>('N', 'N', n2, n, n, T(1), U.data(), n2, nd, k1s_.data(), n,
                                  0, T(0), Sz.data(), n2, nd, pairs);
      // Weighted combination + assembly, fused into the scatter sweep
      // (parallel over columns so no two threads write the same entry).
      obs::Context::current().flops().add(6.0 * static_cast<double>(nd) * pairs *
                                          scalar_traits<T>::flop_factor);
#pragma omp parallel for schedule(static)
      for (index_t j = 0; j < B; ++j) {
        T* dst = Y.col(j);
        for (index_t b = 0; b < nc; ++b) {
          const index_t* dofs = cell_dof_map_.data() + g.cells[c0 + b] * nd;
          const index_t p = b * B + j;
          const T* sx = Sx.col(p);
          const T* sy = Sy.col(p);
          const T* sz = Sz.col(p);
          for (int kk = 0; kk < n; ++kk)
            for (int jj = 0; jj < n; ++jj) {
              // index_t arithmetic: the int product n * (jj + n * kk) is UB
              // (signed overflow) for large polynomial orders.
              const index_t off =
                  static_cast<index_t>(n) * (jj + static_cast<index_t>(n) * kk);
              const double cx = g.cxx * w[jj] * w[kk];
              const double cy = g.cyy * w[kk];
              const double cz = g.czz * w[jj];
              const index_t* d = dofs + off;
#pragma omp simd
              for (int ii = 0; ii < n; ++ii)
                dst[d[ii]] += T(cx) * sx[off + ii] +
                              T(w[ii]) * (T(cy) * sy[off + ii] + T(cz) * sz[off + ii]);
            }
        }
      }
    }
  }
}

template <class T>
void CellStiffness<T>::apply_add_sumfac_scalar(const la::Matrix<T>& X, la::Matrix<T>& Y) const {
  if (has_bloch_)
    throw std::logic_error("CellStiffness: sum factorization has no Bloch terms");
  const int n = dofh_->nodes_per_cell_1d();
  const index_t nd = dofh_->ndofs_per_cell();
  const index_t B = X.cols();
  const auto& w = dofh_->ref_weights();
  auto idx = [n](int i, int j, int k) {
    return static_cast<index_t>(i) +
           static_cast<index_t>(n) * (static_cast<index_t>(j) + static_cast<index_t>(n) * k);
  };
  // Analytic FLOPs: three n^4 contractions + weighting per cell per column.
  obs::Context::current().flops().add((6.0 * n * nd + 4.0 * nd) *
                                      static_cast<double>(dofh_->mesh().ncells_total()) * B *
                                      scalar_traits<T>::flop_factor);

#pragma omp parallel
  {
    std::vector<T> u(nd), yl(nd);
    // Parallel over columns only: each column's scatter targets are then
    // owned by one thread (no assembly races across geometry groups).
#pragma omp for schedule(static)
    for (index_t jcol = 0; jcol < B; ++jcol) {
      for (const Group& g : groups_) {
        for (const index_t cell : g.cells) {
          const index_t* dofs = cell_dof_map_.data() + cell * nd;
          const T* src = X.col(jcol);
          for (index_t a = 0; a < nd; ++a) u[a] = src[dofs[a]];
          // y = cxx (K1 (x) M (x) M) u + cyy (M (x) K1 (x) M) u + czz (...).
          for (int k = 0; k < n; ++k)
            for (int j = 0; j < n; ++j)
              for (int i = 0; i < n; ++i) {
                T sx{}, sy{}, sz{};
                for (int m = 0; m < n; ++m) {
                  sx += T(k1_(i, m)) * u[idx(m, j, k)];
                  sy += T(k1_(j, m)) * u[idx(i, m, k)];
                  sz += T(k1_(k, m)) * u[idx(i, j, m)];
                }
                yl[idx(i, j, k)] = T(g.cxx * w[j] * w[k]) * sx + T(g.cyy * w[i] * w[k]) * sy +
                                   T(g.czz * w[i] * w[j]) * sz;
              }
          T* dst = Y.col(jcol);
          for (index_t a = 0; a < nd; ++a) dst[dofs[a]] += yl[a];
        }
      }
    }
  }
}

template <class T>
void CellStiffness<T>::apply_add(const std::vector<T>& x, std::vector<T>& y) const {
  // Allocation-free in steady state: this overload sits inside the Poisson
  // CG and Lanczos bound iterations, which call it hundreds of times per SCF
  // step.
  const index_t n = dofh_->ndofs();
  la::Matrix<T>& X = xv_.acquire(n, 1);
  la::Matrix<T>& Y = yv_.acquire_zeroed(n, 1);
  // Copy exactly n entries: persistent scratch callers may pass vectors
  // whose capacity-reused size exceeds ndofs.
  std::copy(x.begin(), x.begin() + n, X.data());
  apply_add(X, Y);
  for (index_t i = 0; i < n; ++i) y[i] += Y(i, 0);
}

template <class T>
double CellStiffness<T>::flops_per_apply(index_t ncols) const {
  const double nd = static_cast<double>(dofh_->ndofs_per_cell());
  const double nc = static_cast<double>(dofh_->mesh().ncells_total());
  return 2.0 * nd * nd * ncols * nc * scalar_traits<T>::flop_factor;
}

template class CellStiffness<double>;
template class CellStiffness<complex_t>;

}  // namespace dftfe::fe
