#include "invdft/invert1d.hpp"

#include <cmath>

#include "la/blas.hpp"
#include "la/iterative.hpp"
#include "obs/context.hpp"
#include "obs/log.hpp"

namespace dftfe::invdft {

using onedim::KohnSham1D;
using qmb::Grid1D;
using qmb::Molecule1D;

std::vector<double> invert_two_electron_analytic(const Grid1D& grid, const Molecule1D& mol,
                                                 const std::vector<double>& rho_target) {
  const index_t n = grid.n;
  // phi = sqrt(rho/2); v_s = eps + phi''/(2 phi). Use 4th-order FD for phi''
  // and gauge v_s to zero at the box edges (where the exact v_s decays).
  std::vector<double> phi(n);
  for (index_t i = 0; i < n; ++i) phi[i] = std::sqrt(std::max(rho_target[i], 1e-14) / 2.0);
  auto at = [&](index_t i) {
    return (i < 0 || i >= n) ? 0.0 : phi[i];
  };
  std::vector<double> vs(n);
  const double c0 = -5.0 / 2.0, c1 = 4.0 / 3.0, c2 = -1.0 / 12.0;
  for (index_t i = 0; i < n; ++i) {
    const double dpp = (c2 * at(i - 2) + c1 * at(i - 1) + c0 * phi[i] + c1 * at(i + 1) +
                        c2 * at(i + 2)) / (grid.h * grid.h);
    vs[i] = dpp / (2.0 * std::max(phi[i], 1e-12));
  }
  // Gauge: the exact KS eigenvalue is -(the boundary value), since v_s -> 0.
  // Use a near-edge reference where the density is still representable.
  const index_t iref = n / 20 + 2;
  const double eps = -0.5 * (vs[iref] + vs[n - 1 - iref]);
  const auto vext = qmb::external_potential(grid, mol);
  const auto vh = KohnSham1D::hartree(grid, rho_target, mol.b);
  std::vector<double> vxc(n);
  for (index_t i = 0; i < n; ++i) vxc[i] = vs[i] + eps - vext[i] - vh[i];
  return vxc;
}

Invert1DResult invert_pde_constrained(const Grid1D& grid, const Molecule1D& mol,
                                      const std::vector<double>& rho_target,
                                      std::vector<double> v_xc0, Invert1DOptions opt) {
  const index_t n = grid.n;
  const int nocc = mol.n_electrons / 2;
  const auto vext = qmb::external_potential(grid, mol);
  // Hartree from the *target* density, fixed during the inversion (standard
  // in inverse-DFT formulations: v_xc absorbs the remainder).
  const auto vh = KohnSham1D::hartree(grid, rho_target, mol.b);

  Invert1DResult result;
  result.v_xc = std::move(v_xc0);
  if (static_cast<index_t>(result.v_xc.size()) != n) result.v_xc.assign(n, 0.0);

  // Far-field pinning: where the target density is negligible the inverse
  // problem carries no information, so v_xc follows the physical asymptote
  // -(N-1) * w_soft(x - center of charge) there (the 1D analog of the
  // paper's -1/r far-field boundary condition).
  double xc_bar = 0.0, zsum = 0.0;
  for (const auto& nuc : mol.nuclei) {
    xc_bar += nuc.Z * nuc.x;
    zsum += nuc.Z;
  }
  xc_bar /= std::max(zsum, 1e-300);
  std::vector<double> far_value(n, 0.0);
  std::vector<bool> pinned(n, false);
  for (index_t i = 0; i < n; ++i) {
    if (rho_target[i] < 1e-6 || i == 0 || i == n - 1) {
      pinned[i] = true;
      far_value[i] = -(mol.n_electrons - 1) * qmb::soft_coulomb(grid.x(i) - xc_bar, mol.b);
    }
  }

  std::vector<double> evals;
  la::MatrixD orb;
  std::vector<double> vks(n), rho(n), resid(n), update(n);

  auto forward = [&](const std::vector<double>& vxc, std::vector<double>& rho_out) {
    for (index_t i = 0; i < n; ++i) vks[i] = vext[i] + vh[i] + vxc[i];
    KohnSham1D::diagonalize(grid, vks, nocc + 2, evals, orb);
    rho_out.assign(n, 0.0);
    for (int j = 0; j < nocc; ++j)
      for (index_t i = 0; i < n; ++i) rho_out[i] += 2.0 * orb(i, j) * orb(i, j) / grid.h;
    double loss = 0.0;
    for (index_t i = 0; i < n; ++i) {
      const double d = rho_out[i] - rho_target[i];
      loss += d * d * grid.h;
    }
    return loss;
  };

  double loss = forward(result.v_xc, rho);

  for (int it = 0; it < opt.max_iterations; ++it) {
    result.iterations = it + 1;
    result.loss_history.push_back(loss);
    if (loss < opt.loss_tol) {
      result.converged = true;
      break;
    }

    // Adjoint solve: (H - eps_j) p_j = -P_perp(resid * psi_j), fused block
    // MINRES with per-column shifts (Sec. 5.3.1).
    for (index_t i = 0; i < n; ++i) resid[i] = rho[i] - rho_target[i];
    const la::MatrixD H = qmb::one_electron_hamiltonian(grid, vks);
    la::Matrix<double> B(n, nocc), P(n, nocc);
    for (int j = 0; j < nocc; ++j) {
      for (index_t i = 0; i < n; ++i) B(i, j) = -resid[i] * orb(i, j);
      // Project out psi_j (the shifted system is singular along it).
      double ov = 0.0;
      for (index_t i = 0; i < n; ++i) ov += orb(i, j) * B(i, j);
      for (index_t i = 0; i < n; ++i) B(i, j) -= ov * orb(i, j);
    }
    auto op = [&](const la::Matrix<double>& X, la::Matrix<double>& Y) {
      Y.resize(n, X.cols());
      la::gemm('N', 'N', 1.0, H, X, 0.0, Y);
      for (index_t j = 0; j < X.cols(); ++j) {
        for (index_t i = 0; i < n; ++i) Y(i, j) -= evals[j] * X(i, j);
        // Keep the Krylov space orthogonal to psi_j.
        double ov = 0.0;
        for (index_t i = 0; i < n; ++i) ov += orb(i, j) * Y(i, j);
        for (index_t i = 0; i < n; ++i) Y(i, j) -= ov * orb(i, j);
      }
    };
    // Inverse-diagonal preconditioner (SPD): the shifted operator's diagonal
    // kin + v(x) - eps_occ, floored away from zero. On a uniform FD grid the
    // kinetic diagonal alone is constant (no-op), so the potential term is
    // what carries the preconditioning here; in the FE code the Laplacian
    // diagonal itself varies with the adaptive cell sizes (Sec. 5.3.1).
    const double kin_diag = 0.5 * (5.0 / 2.0) / (grid.h * grid.h);
    auto prec = [&](const la::Matrix<double>& R, la::Matrix<double>& Z) {
      Z.resize(n, R.cols());
      for (index_t j = 0; j < R.cols(); ++j)
        for (index_t i = 0; i < n; ++i) {
          const double d = std::max(kin_diag + vks[i] - evals[0], 0.1 * kin_diag);
          Z(i, j) = R(i, j) / d;
        }
    };
    auto ident = [&](const la::Matrix<double>& R, la::Matrix<double>& Z) { Z = R; };
    P.zero();
    const auto rep = opt.use_preconditioner
                         ? la::block_minres<double>(op, prec, B, P, opt.adjoint_tol, 4000)
                         : la::block_minres<double>(op, ident, B, P, opt.adjoint_tol, 4000);
    result.adjoint_minres_iterations += rep.iterations;
    obs::Context::current().metrics().series_append("invdft1d.minres_iterations",
                                                    rep.iterations);

    // Gradient of the loss wrt v_xc: dL/dv_i = 4 sum_j f_j/2 * p_j psi_j / h
    // (discrete measure); scale by 1/(rho_t + eps) to even out the updates.
    for (index_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (int j = 0; j < nocc; ++j) s += orb(i, j) * P(i, j);
      update[i] = 4.0 * s / grid.h / (rho_target[i] + 1e-3);
    }

    // Step selection: first a van Leeuwen-Baerends diagonal quasi-Newton
    // trial (the damped, clamped fixed-point update (rho - rho_t)/rho_t,
    // which approximates the inverse of the diagonal density response),
    // falling back to backtracking line search along the adjoint gradient.
    std::vector<double> vtry(n), rho_try;
    bool improved = false;
    for (index_t i = 0; i < n; ++i) {
      const double u = std::clamp(0.3 * resid[i] / (rho_target[i] + 1e-5), -0.05, 0.05);
      vtry[i] = pinned[i] ? far_value[i] : result.v_xc[i] + u;
    }
    {
      const double ltry = forward(vtry, rho_try);
      if (ltry < loss) {
        result.v_xc = vtry;
        rho = rho_try;
        loss = ltry;
        improved = true;
      }
    }
    double eta = 2.0;
    for (int ls = 0; ls < 12 && !improved; ++ls) {
      for (index_t i = 0; i < n; ++i) {
        vtry[i] = result.v_xc[i] - eta * update[i];
        if (pinned[i]) vtry[i] = far_value[i];
      }
      const double ltry = forward(vtry, rho_try);
      if (ltry < loss) {
        result.v_xc = vtry;
        rho = rho_try;
        loss = ltry;
        improved = true;
        break;
      }
      eta *= 0.5;
    }
    if (it % 50 == 0) {
      DFTFE_LOG_AT(obs::level_for(opt.verbose)) << "  [invdft1d] iter " << it << " loss " << loss;
    }
    if (!improved) break;  // stationary to line-search resolution
  }
  result.loss = loss;
  result.rho_ks = rho;
  return result;
}

}  // namespace dftfe::invdft
