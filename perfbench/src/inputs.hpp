#pragma once

// Seed-generated inputs of the three benchmark workloads. The program only
// ever sees what these functions return. The seed changes geometry only
// (bond length, solute site, the rod's offset against the mesh), never an
// option, so one workload's runs stay comparable across seeds. Seed 0
// reproduces the canonical inputs: the quickstart dimer, the Mg-Y sweep
// family, the Mg rod.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/job.hpp"
#include "core/model.hpp"
#include "svc/service.hpp"

namespace perfbench {

enum class Workload { dimer, sweep, lanes };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// One model plus the jobs run against it. `service` is used by sweep only.
struct Inputs {
  dftfe::atoms::Structure structure;
  dftfe::core::ModelOptions model;
  std::vector<dftfe::core::JobOptions> jobs;
  dftfe::svc::ServiceOptions service;
};

/// Converged total energy (Ha) of the dimer for this seed's bond length,
/// 5.8 + 0.04 (seed mod 8) Bohr, for the answer check. Seed 0 gives the
/// quickstart's published energy.
double dimer_reference_energy(std::uint64_t seed);

/// Isolated Mg2 dimer: LDA, p=4, h=2.8, serial backend, density_tol 5e-7.
Inputs make_dimer(std::uint64_t seed);
/// Periodic 2x1x1 hcp Mg with 10% Y solutes placed by the seed, 16 screw-
/// dipole separations, MLXC read from `mlxc_weights`, 2 service workers,
/// checkpoints every iteration into `out_dir`/ckpt, reports into
/// `out_dir`/reports.
Inputs make_sweep(std::uint64_t seed, const std::string& mlxc_weights,
                  const std::string& out_dir);
/// Periodic 1x1x4 hcp Mg rod (16 atoms), LDA, p=3, threaded backend at 2
/// lanes with the default wire (fp32, async, no injected delay). Seeds
/// other than 0 shift the whole rod by up to 1 Bohr per axis.
Inputs make_lanes(std::uint64_t seed);

Inputs make_inputs(Workload w, std::uint64_t seed, const std::string& mlxc_weights,
                   const std::string& out_dir);

/// Canonical text of a workload's inputs in two sections: "geometry" (every
/// structure the program is handed) and "options" (every model, job and
/// service setting). Doubles are printed with 17 significant digits, so
/// equal text means equal inputs.
struct InputText {
  std::string geometry;
  std::string options;
};
InputText describe(const Inputs& in);

}  // namespace perfbench
