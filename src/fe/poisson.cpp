#include "fe/poisson.hpp"

#include <cmath>

#include "obs/context.hpp"
#include "obs/trace.hpp"

namespace dftfe::fe {

PoissonSolver::PoissonSolver(const DofHandler& dofh)
    : dofh_(&dofh), K_(dofh, 1.0), periodic_(dofh.boundary_dofs().empty()) {}

la::SolveReport PoissonSolver::solve(const std::vector<double>& rho, std::vector<double>& phi,
                                     double tol, int maxit) const {
  obs::TraceSpan timer("EP", "fe");
  obs::ScopedFlopStep flops("EP");  // PCG stiffness applies + dot products
  const index_t n = dofh_->ndofs();
  const auto& mass = dofh_->mass();
  const auto& bmask = dofh_->boundary_mask();
  const auto& kdiag = dofh_->laplacian_diagonal();
  if (static_cast<index_t>(phi.size()) != n) phi.assign(n, 0.0);

  std::vector<double> rhs(n);
  const double volume = dofh_->mesh().volume();

  if (periodic_) {
    // Neutralizing background: remove the mean charge so K phi = rhs is
    // consistent; gauge-fix phi to zero mean afterwards.
    double q = 0.0;
#pragma omp parallel for reduction(+ : q)
    for (index_t i = 0; i < n; ++i) q += mass[i] * rho[i];
    const double mean = q / volume;
#pragma omp parallel for
    for (index_t i = 0; i < n; ++i) rhs[i] = 4.0 * kPi * mass[i] * (rho[i] - mean);

    auto op = [&](const std::vector<double>& x, std::vector<double>& y) {
      apply_stiffness(x, y);
    };
    auto prec = [&](const std::vector<double>& r, std::vector<double>& z) {
      z.resize(n);
#pragma omp parallel for
      for (index_t i = 0; i < n; ++i) z[i] = r[i] / kdiag[i];
    };
    auto rep = la::pcg<double>(op, prec, rhs, phi, tol, maxit);
    obs::Context::current().metrics().series_append("poisson.iterations", rep.iterations);
    // Remove the constant nullspace component.
    double pmean = 0.0;
#pragma omp parallel for reduction(+ : pmean)
    for (index_t i = 0; i < n; ++i) pmean += mass[i] * phi[i];
    pmean /= volume;
#pragma omp parallel for
    for (index_t i = 0; i < n; ++i) phi[i] -= pmean;
    return rep;
  }

  // Isolated: Dirichlet boundary phi_b = Q / |r - center| (monopole far field).
  double q = 0.0;
#pragma omp parallel for reduction(+ : q)
  for (index_t i = 0; i < n; ++i) q += mass[i] * rho[i];
  const auto& mesh = dofh_->mesh();
  const double cx = 0.5 * (mesh.axis(0).nodes.front() + mesh.axis(0).nodes.back());
  const double cy = 0.5 * (mesh.axis(1).nodes.front() + mesh.axis(1).nodes.back());
  const double cz = 0.5 * (mesh.axis(2).nodes.front() + mesh.axis(2).nodes.back());

  std::vector<double> g(n, 0.0);
  for (const index_t b : dofh_->boundary_dofs()) {
    const auto p = dofh_->dof_point(b);
    const double r = std::sqrt((p[0] - cx) * (p[0] - cx) + (p[1] - cy) * (p[1] - cy) +
                               (p[2] - cz) * (p[2] - cz));
    g[b] = q / std::max(r, 1e-6);
  }
  // rhs = 4 pi M rho - K g on the interior; boundary handled by masking.
  std::vector<double> Kg;
  apply_stiffness(g, Kg);
#pragma omp parallel for
  for (index_t i = 0; i < n; ++i)
    rhs[i] = (bmask[i] != 0.0) ? 0.0 : 4.0 * kPi * mass[i] * rho[i] - Kg[i];

  // Hoisted interior-masked copy: the operator runs once per CG iteration,
  // so an allocation inside the lambda would defeat the zero-allocation
  // steady state of the EP step.
  std::vector<double> xm(n);
  auto op = [&](const std::vector<double>& x, std::vector<double>& y) {
    std::copy(x.begin(), x.begin() + n, xm.begin());
    for (const index_t b : dofh_->boundary_dofs()) xm[b] = 0.0;
    apply_stiffness(xm, y);
    for (const index_t b : dofh_->boundary_dofs()) y[b] = 0.0;
  };
  auto prec = [&](const std::vector<double>& r, std::vector<double>& z) {
    z.resize(n);
#pragma omp parallel for
    for (index_t i = 0; i < n; ++i) z[i] = r[i] / kdiag[i];
  };
  // Interior solve with homogeneous boundary, then add the lift g.
  std::vector<double> u(n, 0.0);
#pragma omp parallel for
  for (index_t i = 0; i < n; ++i) u[i] = (bmask[i] != 0.0) ? 0.0 : phi[i] - g[i];
  auto rep = la::pcg<double>(op, prec, rhs, u, tol, maxit);
  obs::Context::current().metrics().series_append("poisson.iterations", rep.iterations);
#pragma omp parallel for
  for (index_t i = 0; i < n; ++i) phi[i] = u[i] + g[i];
  return rep;
}

}  // namespace dftfe::fe
