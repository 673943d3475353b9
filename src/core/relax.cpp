#include "core/relax.hpp"

#include <cmath>

#include "obs/context.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace dftfe::core {

RelaxResult relax_structure(atoms::Structure st, const SimulationOptions& opt,
                            RelaxOptions ropt) {
  RelaxResult result;
  double step = ropt.step;
  double prev_energy = 1e300;

  for (int it = 0; it < ropt.max_steps; ++it) {
    obs::TraceSpan span("Relax-step", "relax");
    Simulation sim(st, opt);
    const auto res = sim.run();
    const auto F = sim.forces();
    result.steps = it + 1;
    result.energy = res.energy;
    result.energy_history.push_back(res.energy);
    result.max_force = 0.0;
    for (const auto& f : F)
      for (int d = 0; d < 3; ++d) result.max_force = std::max(result.max_force, std::abs(f[d]));
    obs::MetricsRegistry& metrics = obs::Context::current().metrics();
    metrics.series_append("relax.energy", res.energy);
    metrics.series_append("relax.max_force", result.max_force);
    DFTFE_LOG_AT(obs::level_for(ropt.verbose))
        << "  [relax] step " << it << "  E = " << res.energy
        << "  max|F| = " << result.max_force;
    // Keep the geometry consistent with the (recentered) simulation frame.
    st = sim.structure();
    result.structure = st;
    if (result.max_force < ropt.force_tol) {
      result.converged = true;
      return result;
    }
    // Adaptive damping: back off when the energy rises.
    if (res.energy > prev_energy) step *= 0.5;
    prev_energy = res.energy;
    for (index_t a = 0; a < st.natoms(); ++a)
      for (int d = 0; d < 3; ++d) st.atoms[a].pos[d] += step * F[a][d];
  }
  return result;
}

}  // namespace dftfe::core
