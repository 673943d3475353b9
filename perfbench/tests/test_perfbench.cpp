// Benchmark-owned tests: the seeded input generators and the solve
// accounting that decides `attempted`, `failed` and `correct`.

#include <gtest/gtest.h>

#include <string>

#include "inputs.hpp"
#include "outcome.hpp"

namespace perfbench {
namespace {

const char* const kWeights = "data/mlxc_weights.txt";
const char* const kOut = "out";

InputText text(Workload w, std::uint64_t seed) {
  return describe(make_inputs(w, seed, kWeights, kOut));
}

class Generators : public ::testing::TestWithParam<Workload> {};

TEST_P(Generators, SameSeedGivesByteIdenticalInputs) {
  for (std::uint64_t seed : {0ull, 1ull, 12345ull}) {
    const InputText a = text(GetParam(), seed), b = text(GetParam(), seed);
    EXPECT_EQ(a.geometry, b.geometry);
    EXPECT_EQ(a.options, b.options);
  }
}

TEST_P(Generators, DifferentSeedsDifferOnlyInGeometry) {
  const InputText base = text(GetParam(), 0);
  int differing = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const InputText other = text(GetParam(), seed);
    EXPECT_EQ(base.options, other.options) << "seed " << seed;
    differing += other.geometry != base.geometry;
  }
  EXPECT_GT(differing, 0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Generators,
                         ::testing::Values(Workload::dimer, Workload::sweep, Workload::lanes),
                         [](const auto& info) { return std::string(workload_name(info.param)); });

TEST(Generators, SeedZeroIsTheQuickstartDimer) {
  const Inputs in = make_dimer(0);
  ASSERT_EQ(in.structure.atoms.size(), 2u);
  EXPECT_EQ(in.structure.atoms[1].pos[0], 5.8);
  EXPECT_EQ(in.model.fe_degree, 4);
  EXPECT_EQ(in.model.mesh_size, 2.8);
  EXPECT_EQ(in.jobs.at(0).scf.mp_block, 4);
  EXPECT_EQ(dimer_reference_energy(0), -2.438060644386);
}

TEST(Generators, SweepAndLanesShapes) {
  const Inputs sweep = make_sweep(3, kWeights, kOut);
  EXPECT_EQ(sweep.jobs.size(), 16u);
  EXPECT_EQ(sweep.service.workers, 2);
  EXPECT_EQ(sweep.model.functional, "MLXC");
  EXPECT_EQ(sweep.structure.count(dftfe::atoms::Species::Y), 1);
  const Inputs lanes = make_lanes(3);
  EXPECT_EQ(lanes.structure.natoms(), 16);
  EXPECT_EQ(lanes.jobs.at(0).backend.kind, dftfe::dd::BackendKind::threaded);
  EXPECT_EQ(lanes.jobs.at(0).backend.nlanes, 2);
}

SolveRecord good(double energy) {
  SolveRecord r;
  r.name = "job";
  r.converged = true;
  r.energy = energy;
  r.reference = -2.438060644386;
  r.tolerance = 1e-8;
  return r;
}

TEST(Tally, PassingSolveCountsAsAttemptedOnly) {
  Tally t;
  EXPECT_TRUE(t.record(good(-2.438060644386 + 5e-9)));
  EXPECT_EQ(t.attempted(), 1);
  EXPECT_EQ(t.failed(), 0);
  EXPECT_TRUE(t.correct());
}

TEST(Tally, PerturbedEnergyCountsAsFailedNotDropped) {
  Tally t;
  t.record(good(-2.438060644386));
  EXPECT_FALSE(t.record(good(-2.438060644386 + 2e-8)));
  EXPECT_EQ(t.attempted(), 2);
  EXPECT_EQ(t.failed(), 1);
  EXPECT_FALSE(t.correct());
  const std::string json = result_json(t, {{"solve_s", 1.5, "s"}});
  EXPECT_NE(json.find("\"correct\": false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"attempted\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"failed\": 1"), std::string::npos) << json;
}

TEST(Tally, NonConvergedThrownAndNonFiniteSolvesCountAsFailed) {
  Tally t;
  SolveRecord stalled = good(-2.438060644386);
  stalled.converged = false;
  EXPECT_FALSE(t.record(stalled));
  SolveRecord threw = good(-2.438060644386);
  threw.threw = true;
  threw.error = "boom";
  EXPECT_FALSE(t.record(threw));
  SolveRecord nan = good(std::nan(""));
  nan.reference.reset();
  EXPECT_FALSE(t.record(nan));
  EXPECT_EQ(t.attempted(), 3);
  EXPECT_EQ(t.failed(), 3);
}

TEST(Tally, FailedCheckMakesTheRunIncorrectWithoutAddingASolve) {
  Tally t;
  t.record(good(-2.438060644386));
  t.check(false, "model built once");
  EXPECT_EQ(t.attempted(), 1);
  EXPECT_EQ(t.failed(), 0);
  EXPECT_FALSE(t.correct());
}

}  // namespace
}  // namespace perfbench
