#include "invdft/invert3d.hpp"

#include <cmath>

#include "base/timer.hpp"
#include "obs/context.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace dftfe::invdft {

Invert3DResult invert_fe_3d(const fe::DofHandler& dofh, const std::vector<double>& v_fixed,
                            const std::vector<double>& rho_target, int n_occupied,
                            std::vector<double> v_xc0, Invert3DOptions opt) {
  const index_t n = dofh.ndofs();
  const auto& mass = dofh.mass();

  Invert3DResult result;
  result.v_xc = std::move(v_xc0);
  if (static_cast<index_t>(result.v_xc.size()) != n) result.v_xc.assign(n, 0.0);

  ks::Hamiltonian<double> H(dofh);
  ks::ChfesOptions copt;
  copt.cheb_degree = 14;
  ks::ChebyshevFilteredSolver<double> solver(H, n_occupied + 4, copt);
  solver.initialize_random(31);

  std::vector<double> rho(n), resid(n), update(n), vks(n);

  auto forward = [&](const std::vector<double>& vxc, int cycles, std::vector<double>& rho_out) {
    obs::TraceSpan span("invDFT-forward", "invdft");
    Timer t;
    for (index_t i = 0; i < n; ++i) vks[i] = v_fixed[i] + vxc[i];
    H.set_potential(vks);
    for (int c = 0; c < cycles; ++c) solver.cycle();
    const auto& X = solver.subspace();
    rho_out.assign(n, 0.0);
    for (int j = 0; j < n_occupied; ++j)
      for (index_t i = 0; i < n; ++i) rho_out[i] += 2.0 * X(i, j) * X(i, j) / mass[i];
    double loss = 0.0;
    for (index_t i = 0; i < n; ++i) {
      const double d = rho_out[i] - rho_target[i];
      loss += mass[i] * d * d;
    }
    result.seconds_forward += t.seconds();
    return loss;
  };

  // Extra warm-up cycles so the initial subspace is converged.
  double loss = forward(result.v_xc, 8, rho);

  const std::vector<double> kdiag = H.laplacian_diagonal_scaled();

  for (int it = 0; it < opt.max_iterations; ++it) {
    result.iterations = it + 1;
    result.loss_history.push_back(loss);
    if (loss < opt.loss_tol) {
      result.converged = true;
      break;
    }

    // Adjoint block MINRES (paper Sec. 5.3.1).
    obs::TraceSpan adj_span("invDFT-adjoint", "invdft");
    Timer t_adj;
    const auto& X = solver.subspace();
    const auto& ev = solver.eigenvalues();
    for (index_t i = 0; i < n; ++i) resid[i] = rho[i] - rho_target[i];
    la::Matrix<double> B(n, n_occupied), P(n, n_occupied);
    for (int j = 0; j < n_occupied; ++j) {
      for (index_t i = 0; i < n; ++i) B(i, j) = -resid[i] * X(i, j);
      double ov = 0.0;
      for (index_t i = 0; i < n; ++i) ov += X(i, j) * B(i, j);
      for (index_t i = 0; i < n; ++i) B(i, j) -= ov * X(i, j);
    }
    auto op = [&](const la::Matrix<double>& in, la::Matrix<double>& out) {
      H.apply(in, out);
      for (index_t j = 0; j < in.cols(); ++j) {
        for (index_t i = 0; i < n; ++i) out(i, j) -= ev[j] * in(i, j);
        double ov = 0.0;
        for (index_t i = 0; i < n; ++i) ov += X(i, j) * out(i, j);
        for (index_t i = 0; i < n; ++i) out(i, j) -= ov * X(i, j);
      }
    };
    // Inverse diagonal of the shifted discrete Hamiltonian (Laplacian
    // diagonal dominating on the refined cells), floored to stay SPD.
    auto prec = [&](const la::Matrix<double>& R, la::Matrix<double>& Z) {
      Z.resize(n, R.cols());
      for (index_t j = 0; j < R.cols(); ++j)
        for (index_t i = 0; i < n; ++i) {
          const double d = std::max(kdiag[i] + vks[i] - ev[0], 0.05 * (1.0 + kdiag[i]));
          Z(i, j) = R(i, j) / d;
        }
    };
    auto ident = [&](const la::Matrix<double>& R, la::Matrix<double>& Z) { Z = R; };
    P.zero();
    const auto rep = opt.use_preconditioner
                         ? la::block_minres<double>(op, prec, B, P, opt.adjoint_tol,
                                                    opt.adjoint_maxit)
                         : la::block_minres<double>(op, ident, B, P, opt.adjoint_tol,
                                                    opt.adjoint_maxit);
    result.adjoint_minres_iterations += rep.iterations;
    result.seconds_adjoint += t_adj.seconds();
    adj_span.stop();  // line-search forward solves below are not adjoint work
    obs::Context::current().metrics().series_append("invdft3d.minres_iterations",
                                                    rep.iterations);

    // u = sum_j p_j psi_j drives the v_xc update (Sec. 5.1).
    for (index_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (int j = 0; j < n_occupied; ++j) s += X(i, j) * P(i, j);
      update[i] = 8.0 * s / std::max(rho_target[i] * mass[i], 1e-6);
    }

    // van Leeuwen-Baerends diagonal quasi-Newton trial first (see
    // invert1d.cpp), adjoint-gradient line search as fallback.
    std::vector<double> vtry(n), rho_try;
    bool improved = false;
    for (index_t i = 0; i < n; ++i) {
      const double u = (rho_target[i] > 1e-8)
                           ? std::clamp(0.3 * resid[i] / (rho_target[i] + 1e-5), -0.05, 0.05)
                           : 0.0;
      vtry[i] = result.v_xc[i] + u;
    }
    {
      const double ltry = forward(vtry, opt.forward_cycles, rho_try);
      if (ltry < loss) {
        result.v_xc = vtry;
        rho = rho_try;
        loss = ltry;
        improved = true;
      }
    }
    double eta = opt.step;
    for (int ls = 0; ls < 8 && !improved; ++ls) {
      for (index_t i = 0; i < n; ++i) vtry[i] = result.v_xc[i] - eta * update[i];
      const double ltry = forward(vtry, opt.forward_cycles, rho_try);
      if (ltry < loss) {
        result.v_xc = vtry;
        rho = rho_try;
        loss = ltry;
        improved = true;
        break;
      }
      eta *= 0.4;
    }
    obs::Context::current().metrics().series_append("invdft3d.loss", loss);
    DFTFE_LOG_AT(obs::level_for(opt.verbose))
        << "  [invdft3d] iter " << it << " loss " << loss << " minres " << rep.iterations;
    if (!improved) break;
  }
  result.loss = loss;
  return result;
}

}  // namespace dftfe::invdft
