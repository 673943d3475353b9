#include "core/job.hpp"

#include <stdexcept>

#include "la/workspace_metrics.hpp"
#include "obs/context.hpp"
#include "obs/log.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace dftfe::core {

JobState::JobState(std::shared_ptr<const SharedModel> model, JobOptions opt)
    : model_(std::move(model)), opt_(std::move(opt)) {
  if (model_ == nullptr) throw std::invalid_argument("JobState: null SharedModel");
  if (opt_.structure) {
    auto [nuclei, nelectrons] = model_->nuclei_for(*opt_.structure);
    nuclei_ = std::move(nuclei);
    nelectrons_ = nelectrons;
  } else {
    nuclei_ = model_->nuclei();
    nelectrons_ = model_->n_electrons();
  }
}

void JobState::set_resume_state(ks::ScfState st) { resume_ = std::move(st); }

template <class T>
ks::ScfResult JobState::run_solver(std::vector<ks::KPointSample> kpts) {
  ks::ScfOptions scf = opt_.scf;
  scf.backend = opt_.backend;
  if (opt_.on_iteration) {
    scf.on_iteration = [this](int completed) { opt_.on_iteration(*this, completed); };
  }
  auto solver = std::make_unique<ks::KohnShamDFT<T>>(model_->dofs(), model_->functional(),
                                                     std::move(kpts), scf);
  solver->set_nuclei(nuclei_, nelectrons_);
  if (resume_) {
    resumed_from_ = resume_->iterations;
    solver->load_state(std::move(*resume_));
    resume_.reset();
  }
  // Install into the variant before solve() so the on_iteration hook can
  // reach the solver through save_scf_state().
  ks::KohnShamDFT<T>* raw = solver.get();
  solver_ = std::move(solver);
  return raw->solve();
}

SimulationResult JobState::run() {
  obs::TraceSpan span("Simulation-run", "core");
  SimulationResult res;
  res.natoms = structure().natoms();
  res.ndofs = model_->dofs().ndofs();
  res.n_electrons = nelectrons_;
  auto& metrics = obs::Context::current().metrics();
  metrics.gauge_set("sim.natoms", static_cast<double>(res.natoms));
  metrics.gauge_set("sim.ndofs", static_cast<double>(res.ndofs));
  metrics.gauge_set("sim.n_electrons", res.n_electrons);
  const bool threaded = opt_.backend.kind == dd::BackendKind::threaded;
  metrics.gauge_set("sim.backend.threaded", threaded ? 1.0 : 0.0);
  metrics.gauge_set("sim.backend.nlanes", threaded ? opt_.backend.nlanes : 1.0);
  DFTFE_LOG(info) << "[job " << opt_.name << "] backend " << (threaded ? "threaded" : "serial")
                  << (threaded ? " nlanes " + std::to_string(opt_.backend.nlanes) : "");

  const bool gamma_only =
      opt_.kpoints.empty() ||
      (opt_.kpoints.size() == 1 && opt_.kpoints[0].k[0] == 0.0 && opt_.kpoints[0].k[1] == 0.0 &&
       opt_.kpoints[0].k[2] == 0.0);

  if (gamma_only) {
    res.scf = run_solver<double>({});
  } else {
    res.scf = run_solver<complex_t>(opt_.kpoints);
  }
  res.energy = res.scf.energy.total;
  res.energy_per_atom = res.energy / std::max<index_t>(res.natoms, 1);
  metrics.gauge_set("scf.iterations", res.scf.iterations);
  metrics.gauge_set("scf.converged", res.scf.converged ? 1.0 : 0.0);
  metrics.gauge_set("scf.fermi_level.final", res.scf.energy.fermi_level);
  metrics.gauge_set("sim.energy", res.energy);
  metrics.gauge_set("job.energy", res.energy);
  metrics.gauge_set("job.resume.iteration", static_cast<double>(resumed_from_));
  if (!opt_.report_path.empty()) {
    // Directory mode ('<dir>/') keys the artifact by job name, so tenants
    // sharing one options template emit distinct files.
    std::string path = opt_.report_path;
    if (path.back() == '/') path += opt_.name + ".report.json";
    // Close the run span first so its wall time (and histogram sample) is
    // part of the report it gates.
    span.stop();
    la::publish_workspace_metrics();
    if (obs::write_run_report(path, obs::build_run_report(opt_.name)))
      DFTFE_LOG(info) << "[job " << opt_.name << "] run report written to " << path;
    else
      DFTFE_LOG(warn) << "[job " << opt_.name << "] failed to write run report to " << path;
  }
  return res;
}

ks::ScfState JobState::save_scf_state() const {
  if (const auto* p = std::get_if<std::unique_ptr<ks::KohnShamDFT<double>>>(&solver_))
    return (*p)->save_state();
  if (const auto* p = std::get_if<std::unique_ptr<ks::KohnShamDFT<complex_t>>>(&solver_))
    return (*p)->save_state();
  throw std::runtime_error("JobState::save_scf_state: no solver (call inside run())");
}

std::vector<std::array<double, 3>> JobState::forces() {
  if (auto* p = std::get_if<std::unique_ptr<ks::KohnShamDFT<double>>>(&solver_))
    return (*p)->forces();
  if (auto* p = std::get_if<std::unique_ptr<ks::KohnShamDFT<complex_t>>>(&solver_))
    return (*p)->forces();
  throw std::runtime_error("JobState::forces: run() first");
}

ks::KohnShamDFT<double>& JobState::gamma_solver() {
  if (auto* p = std::get_if<std::unique_ptr<ks::KohnShamDFT<double>>>(&solver_)) return **p;
  throw std::runtime_error("JobState: no Gamma-point solver active");
}

ks::KohnShamDFT<complex_t>& JobState::kpoint_solver() {
  if (auto* p = std::get_if<std::unique_ptr<ks::KohnShamDFT<complex_t>>>(&solver_)) return **p;
  throw std::runtime_error("JobState: no k-point solver active");
}

void JobState::release_solver() { solver_.emplace<std::monostate>(); }

}  // namespace dftfe::core
