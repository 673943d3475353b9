// Unit tests for the base utilities: timers, FLOP accounting, RNG, tables.

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "base/defs.hpp"
#include "base/flops.hpp"
#include "base/rng.hpp"
#include "base/table.hpp"
#include "base/timer.hpp"
#include "obs/context.hpp"

namespace dftfe {
namespace {

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
}

TEST(Timer, ResetRestartsClock) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(FlopCounter, CountsAndAttributesSteps) {
  FlopCounter c;
  c.add(100.0);
  c.set_step("CF");
  c.add(250.0);
  c.set_step("");
  c.add(50.0);
  EXPECT_DOUBLE_EQ(c.total(), 400.0);
  EXPECT_DOUBLE_EQ(c.step("CF"), 250.0);
  EXPECT_DOUBLE_EQ(c.step("RR"), 0.0);
  c.clear();
  EXPECT_DOUBLE_EQ(c.total(), 0.0);
}

TEST(FlopCounter, ScopedStepRestoresUnattributed) {
  obs::Context ctx;
  obs::ContextGuard guard(ctx);
  FlopCounter& g = ctx.flops();
  {
    obs::ScopedFlopStep step("CholGS-S");
    g.add(42.0);
  }
  g.add(1.0);
  EXPECT_DOUBLE_EQ(g.step("CholGS-S"), 42.0);
  EXPECT_DOUBLE_EQ(g.total(), 43.0);
}

TEST(FlopCounter, ThreadSafeAccumulation) {
  FlopCounter c;
  std::vector<std::thread> ts;
  for (int t = 0; t < 8; ++t)
    ts.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.add(1.0);
    });
  for (auto& t : ts) t.join();
  EXPECT_DOUBLE_EQ(c.total(), 8000.0);
}

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(77), b(77);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng r(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(1.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, IntegerWithinRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.integer(17), 17u);
}

TEST(TextTable, FormatsAlignedColumns) {
  TextTable t({"step", "time (s)"});
  t.add("CF", TextTable::num(1.234, 2));
  t.add("RR-SR", TextTable::num(10.0, 2));
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("CF"), std::string::npos);
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_NE(s.find("10.00"), std::string::npos);
  EXPECT_NE(s.find("step"), std::string::npos);
}

TEST(TextTable, NumericFormatters) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::sci(12345.0, 2), "1.23e+04");
}

TEST(ScalarTraits, FlopFactorsAndConjugation) {
  EXPECT_DOUBLE_EQ(scalar_traits<double>::flop_factor, 1.0);
  EXPECT_DOUBLE_EQ(scalar_traits<complex_t>::flop_factor, 4.0);
  EXPECT_FALSE(scalar_traits<double>::is_complex);
  EXPECT_TRUE(scalar_traits<complex_t>::is_complex);
  EXPECT_EQ(scalar_traits<complex_t>::conj(complex_t(1, 2)), complex_t(1, -2));
  EXPECT_DOUBLE_EQ(scalar_traits<complex_t>::abs2(complex_t(3, 4)), 25.0);
}

}  // namespace
}  // namespace dftfe
