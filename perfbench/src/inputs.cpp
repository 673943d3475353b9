#include "inputs.hpp"

#include <cstdio>
#include <random>

#include "atoms/defects.hpp"
#include "atoms/lattice.hpp"

namespace perfbench {

using namespace dftfe;

namespace {

constexpr double kMgA = 6.06, kMgC = 9.84;  // hcp Mg lattice (Bohr)
constexpr int kSweepJobs = 16;
constexpr int kDimerGeometries = 8;

// Converged dimer energies (Ha) at bond length 5.8 + 0.04 k Bohr, k = 0..7,
// from single serial solves of make_dimer(k) with this benchmark's build
// (OMP=1). k = 0 is the quickstart energy.
constexpr double kDimerEnergy[kDimerGeometries] = {
    -2.438060644386, -2.438132352406, -2.438209356471, -2.438292244294,
    -2.438381530602, -2.438477657235, -2.438580993429, -2.438691836243,
};

double dimer_bond_length(std::uint64_t seed) {
  return 5.8 + 0.04 * static_cast<double>(seed % kDimerGeometries);
}

void appendf(std::string& s, const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  s += buf;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "dimer") return Workload::dimer;
  if (name == "sweep") return Workload::sweep;
  if (name == "lanes") return Workload::lanes;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::dimer: return "dimer";
    case Workload::sweep: return "sweep";
    case Workload::lanes: return "lanes";
  }
  return "?";
}

double dimer_reference_energy(std::uint64_t seed) {
  return kDimerEnergy[seed % kDimerGeometries];
}

Inputs make_dimer(std::uint64_t seed) {
  Inputs in;
  in.structure.atoms = {{atoms::Species::Mg, {0.0, 0.0, 0.0}},
                        {atoms::Species::Mg, {dimer_bond_length(seed), 0.0, 0.0}}};
  in.structure.periodic = {false, false, false};
  in.model.functional = "LDA";
  in.model.fe_degree = 4;
  in.model.mesh_size = 2.8;
  in.model.vacuum = 7.0;
  core::JobOptions job;
  job.name = "dimer";
  job.scf.temperature = 5e-3;
  // The quickstart's tile width: the dimer's ~11 states would otherwise sit
  // below the 64-column mixed-precision tile and leave that path inert.
  job.scf.mp_block = 4;
  in.jobs.push_back(std::move(job));
  return in;
}

Inputs make_sweep(std::uint64_t seed, const std::string& mlxc_weights,
                  const std::string& out_dir) {
  Inputs in;
  in.structure = atoms::make_hcp(atoms::Species::Mg, kMgA, kMgC, 2, 1, 1);
  atoms::add_random_solutes(in.structure, atoms::Species::Y, 0.10,
                            static_cast<unsigned>(seed % 0xffffffffu));
  in.model.functional = "MLXC";
  in.model.mlxc_weights = mlxc_weights;
  in.model.fe_degree = 3;
  in.model.mesh_size = 2.8;
  in.service.workers = 2;
  in.service.checkpoint_dir = out_dir + "/ckpt";
  in.service.report_dir = out_dir + "/reports";
  in.service.checkpoint_every = 1;
  const auto& box = in.structure.box;
  for (int j = 0; j < kSweepJobs; ++j) {
    // Dipole separations from a quarter to half the box along x.
    const double sep = box[0] * (0.25 + 0.25 * j / (kSweepJobs - 1));
    atoms::Structure st = in.structure;
    atoms::apply_screw_dipole(st, kMgC, {(box[0] - sep) * 0.5, box[1] * 0.5},
                              {(box[0] + sep) * 0.5, box[1] * 0.5});
    core::JobOptions job;
    job.name = "sep_" + std::to_string(j);
    job.structure = std::move(st);
    job.scf.max_iterations = 40;
    job.scf.density_tol = 2e-6;
    job.scf.temperature = 0.01;
    in.jobs.push_back(std::move(job));
  }
  return in;
}

Inputs make_lanes(std::uint64_t seed) {
  Inputs in;
  in.structure = atoms::make_hcp(atoms::Species::Mg, kMgA, kMgC, 1, 1, 4);
  if (seed != 0) {
    // A rigid shift of the rod against the FE mesh: the same periodic
    // crystal, sampled at other mesh positions.
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> shift(0.0, 1.0);
    const std::array<double, 3> t{shift(rng), shift(rng), shift(rng)};
    in.structure.translate(t);
  }
  in.model.functional = "LDA";
  in.model.fe_degree = 3;
  in.model.mesh_size = 2.8;
  core::JobOptions job;
  job.name = "lanes";
  job.backend.kind = dd::BackendKind::threaded;
  job.backend.nlanes = 2;
  job.scf.temperature = 5e-3;
  in.jobs.push_back(std::move(job));
  return in;
}

Inputs make_inputs(Workload w, std::uint64_t seed, const std::string& mlxc_weights,
                   const std::string& out_dir) {
  switch (w) {
    case Workload::dimer: return make_dimer(seed);
    case Workload::sweep: return make_sweep(seed, mlxc_weights, out_dir);
    case Workload::lanes: return make_lanes(seed);
  }
  return {};
}

InputText describe(const Inputs& in) {
  InputText t;
  auto structure = [&](const char* label, const atoms::Structure& st) {
    appendf(t.geometry, "%s box %.17g %.17g %.17g periodic %d%d%d natoms %lld\n", label,
            st.box[0], st.box[1], st.box[2], int(st.periodic[0]), int(st.periodic[1]),
            int(st.periodic[2]), static_cast<long long>(st.natoms()));
    for (const auto& a : st.atoms)
      appendf(t.geometry, "  %s %.17g %.17g %.17g\n",
              atoms::species_info(a.species).name.c_str(), a.pos[0], a.pos[1], a.pos[2]);
  };
  structure("model", in.structure);
  const auto& m = in.model;
  appendf(t.options, "model functional %s weights %s degree %d mesh %.17g vacuum %.17g\n",
          m.functional.c_str(), m.mlxc_weights.value_or("-").c_str(), m.fe_degree,
          m.mesh_size, m.vacuum);
  for (const auto& [sp, z] : m.z_override)
    appendf(t.options, "  z_override %d %.17g\n", static_cast<int>(sp), z);
  const auto& s = in.service;
  appendf(t.options, "service workers %d queue %zu ckpt %s every %d reports %s\n", s.workers,
          s.queue_capacity, s.checkpoint_dir.c_str(), s.checkpoint_every,
          s.report_dir.c_str());
  for (const auto& j : in.jobs) {
    if (j.structure) structure(j.name.c_str(), *j.structure);
    const auto& b = j.backend;
    const auto& o = j.scf;
    appendf(t.options,
            "job %s kpoints %zu report %s backend %d lanes %d grid %d,%d,%d mode %d wire %d "
            "inject %d drift %.17g\n",
            j.name.c_str(), j.kpoints.size(), j.report_path.c_str(), static_cast<int>(b.kind),
            b.nlanes, b.grid[0], b.grid[1], b.grid[2], static_cast<int>(b.mode),
            static_cast<int>(b.wire), int(b.inject_wire_delay), b.drift_budget);
    appendf(t.options,
            "  scf nstates %lld T %.17g maxit %d tol %.17g cheb %d block %lld mixed %d mp %lld "
            "cycles %d alpha %.17g anderson %d poisson %.17g hartree %d seed %u\n",
            static_cast<long long>(o.nstates), o.temperature, o.max_iterations, o.density_tol,
            o.cheb_degree, static_cast<long long>(o.block_size), int(o.mixed_precision),
            static_cast<long long>(o.mp_block), o.first_iteration_cycles, o.mixing_alpha,
            o.anderson_depth, o.poisson_tol, int(o.include_hartree), o.seed);
  }
  return t;
}

}  // namespace perfbench
