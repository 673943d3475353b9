// Tests for the RunReport flight recorder (obs/report.hpp) and its feeders:
//
//  * Histogram: log2 bucketing, count/sum/min/max, quantile edges;
//  * schema round trip: build -> emit -> parse -> re-emit is byte-identical
//    (the deterministic-emission guarantee tools/report_diff.py relies on);
//  * comm ledger exactness: halo wire bytes/messages from a 2-lane FP32
//    engine apply match the hand-computed packet arithmetic, the mixed-
//    precision Gram allreduce splits its payload FP64-diagonal /
//    FP32-off-diagonal, and the FP32 drift error-budget gauge is populated;
//  * exposed wait: with a calibrated injected wire delay, the published
//    comm.halo.exposed_wait_s tracks the modeled wire seconds.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "dd/engine.hpp"
#include "fe/dofs.hpp"
#include "fe/mesh.hpp"
#include "la/matrix.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace dftfe {
namespace {

// ---------- histogram metric ----------

TEST(RunReport, HistogramBucketsAndStats) {
  obs::Histogram h;
  EXPECT_EQ(h.count, 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);

  // Bucket index is floor(log2 v) - kMinExp, clamped.
  EXPECT_EQ(obs::Histogram::bucket_of(1.0), -obs::Histogram::kMinExp);
  EXPECT_EQ(obs::Histogram::bucket_of(0.5), -obs::Histogram::kMinExp - 1);
  EXPECT_EQ(obs::Histogram::bucket_of(2.0), -obs::Histogram::kMinExp + 1);
  EXPECT_EQ(obs::Histogram::bucket_of(0.0), 0);      // non-positive -> bucket 0
  EXPECT_EQ(obs::Histogram::bucket_of(-3.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_of(1e300), obs::Histogram::kBuckets - 1);

  h.record(1.0);
  h.record(4.0);
  h.record(0.25);
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 5.25);
  EXPECT_DOUBLE_EQ(h.min, 0.25);
  EXPECT_DOUBLE_EQ(h.max, 4.0);
  EXPECT_DOUBLE_EQ(h.mean(), 1.75);
  // Quantiles return the upper edge of the covering bucket: the median of
  // {0.25, 1, 4} lands in the [1, 2) bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);
  EXPECT_LE(h.quantile(0.01), 0.5);
}

// ---------- schema round trip ----------

TEST(RunReport, EmitParseReEmitIsByteIdentical) {
  obs::Context ctx;
  obs::ContextGuard guard(ctx);
  auto& m = ctx.metrics();

  {
    obs::TraceSpan outer("SCF", "scf");
    {
      obs::TraceSpan inner("CF", "scf");
    }
    {
      obs::TraceSpan lane_span("CF-lane", "dd", /*lane=*/1);
    }
  }
  m.counter_add("comm.wire.fp64.bytes", 1024.0);
  m.counter_add("comm.wire.fp32.bytes", 512.0);
  m.counter_add("comm.wire.bf16.bytes", 256.0);
  m.counter_add("comm.wire.bf16.messages", 2.0);
  m.gauge_set("comm.wire.bf16.drift_rms", 1.5e-3);
  m.gauge_set("comm.wire.drift_budget_used", 0.15);
  m.counter_add("comm.lane0.bytes", 768.0);
  m.gauge_set("mem.pool.fp64.highwater_bytes", 4096.0);
  m.gauge_set("mem.lane0.highwater_bytes", 2048.0);
  m.gauge_set("scf.converged", 1.0);
  m.series_append("scf.residual", 1e-3);
  m.series_append("scf.residual", 1e-5);
  m.series_append("scf.cheb_degree", 15.0);
  m.series_append("poisson.iterations", 12.0);
  m.series_append("poisson.iterations", 9.0);
  m.histogram_record("CF-halo", 1.5e-4);
  m.histogram_record("CF-halo", 3.0e-4);
  ctx.flops().add(100.0);

  const obs::RunReport r1 = obs::build_run_report("roundtrip");
  const std::string s1 = obs::run_report_json(r1);
  EXPECT_TRUE(obs::json_valid(s1)) << s1;

  obs::RunReport r2;
  ASSERT_TRUE(obs::parse_run_report(s1, r2));
  EXPECT_EQ(r2.label, "roundtrip");
  EXPECT_DOUBLE_EQ(r2.comm.fp64.bytes, 1024.0);
  EXPECT_DOUBLE_EQ(r2.comm.fp32.bytes, 512.0);
  EXPECT_DOUBLE_EQ(r2.comm.bf16.bytes, 256.0);
  EXPECT_DOUBLE_EQ(r2.comm.bf16.messages, 2.0);
  EXPECT_DOUBLE_EQ(r2.comm.bf16_drift_rms, 1.5e-3);
  EXPECT_DOUBLE_EQ(r2.comm.drift_budget_used, 0.15);
  ASSERT_EQ(r2.convergence.series.count("scf.residual"), 1u);
  EXPECT_EQ(r2.convergence.series.at("scf.residual").size(), 2u);
  EXPECT_EQ(r2.convergence.iterations, 2);
  EXPECT_TRUE(r2.convergence.converged);
  EXPECT_EQ(r2.histograms.at("CF-halo").count, 2u);
  EXPECT_EQ(r2.convergence.series.at("poisson.iterations"), (std::vector<double>{12.0, 9.0}));

  const std::string s2 = obs::run_report_json(r2);
  EXPECT_EQ(s1, s2) << "emit -> parse -> re-emit must be byte-identical";

  // Schema enforcement: a wrong version string is rejected.
  obs::RunReport r3;
  EXPECT_FALSE(obs::parse_run_report("{\"schema\":\"dftfe.runreport.v999\"}", r3));
  EXPECT_FALSE(obs::parse_run_report("not json", r3));
}

// ---------- comm ledger exactness ----------

TEST(RunReport, CommLedgerMatchesHandComputedHaloBytes) {
  const auto mesh = fe::make_uniform_mesh(6.0, 4, false);
  fe::DofHandler dofh(mesh, 3);
  dd::EngineOptions opt;
  opt.nlanes = 2;
  opt.hamiltonian = false;
  opt.coef_lap = 1.0;
  opt.wire = dd::Wire::fp32;
  dd::SlabEngine<double> eng(dofh, opt);

  auto& m = obs::Context::current().metrics();
  m.clear();

  const index_t ncols = 5;
  la::Matrix<double> X(dofh.ndofs(), ncols), Y;
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.37 * i) * 1e3;
  eng.apply(X, Y);

  // 2 lanes, non-periodic: one interface; per apply each side posts one
  // ncols-column plane packet and receives one -> 4 messages, all FP32.
  const std::int64_t plane = dofh.naxis(0) * dofh.naxis(1);
  const std::int64_t bytes = 4 * plane * ncols * static_cast<std::int64_t>(sizeof(float));
  const auto ws = eng.wire_stats();
  EXPECT_EQ(ws.fp32_bytes, bytes);
  EXPECT_EQ(ws.fp32_messages, 4);
  EXPECT_EQ(ws.fp64_bytes, 0);
  EXPECT_EQ(ws.fp64_messages, 0);
  EXPECT_EQ(eng.comm_stats().bytes, bytes);
  EXPECT_GT(ws.drift_num, 0.0);  // FP32 demotion of nonzero planes drifts

  // The published counters agree with the engine's own ledgers, per lane
  // and globally.
  EXPECT_DOUBLE_EQ(m.counter("comm.wire.fp32.bytes"), static_cast<double>(bytes));
  EXPECT_DOUBLE_EQ(m.counter("comm.wire.fp32.messages"), 4.0);
  EXPECT_DOUBLE_EQ(m.counter("comm.wire.fp64.bytes"), 0.0);
  EXPECT_DOUBLE_EQ(m.counter("comm.lane0.bytes") + m.counter("comm.lane1.bytes"),
                   static_cast<double>(bytes));
  EXPECT_DOUBLE_EQ(m.counter("comm.lane0.messages"), 2.0);  // 1 post + 1 recv
  EXPECT_GT(m.gauge("comm.wire.fp32.drift_rms"), 0.0);
  EXPECT_LT(m.gauge("comm.wire.fp32.drift_rms"), 1e-5);

  // Mixed-precision Gram allreduce: N = 6 columns in mp_block = 2 tiles ->
  // per lane 3 FP64 diagonal blocks (12 elements) and 24 FP32 off-diagonal
  // elements on the wire.
  const index_t N = 6;
  la::Matrix<double> A(dofh.ndofs(), N), S;
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = std::cos(0.23 * i);
  eng.overlap(A, A, S, /*mp_block=*/2, /*mixed=*/true);
  const auto ws2 = eng.wire_stats();
  const std::int64_t diag = 3 * 2 * 2;
  const std::int64_t off = N * N - diag;
  EXPECT_EQ(ws2.fp64_bytes, 2 * diag * static_cast<std::int64_t>(sizeof(double)));
  EXPECT_EQ(ws2.fp64_messages, 2);
  EXPECT_EQ(ws2.fp32_bytes, bytes + 2 * off * static_cast<std::int64_t>(sizeof(float)));
  EXPECT_EQ(ws2.fp32_messages, 6);

  // The built report's comm ledger reproduces the same numbers.
  const obs::RunReport r = obs::build_run_report("ledger");
  EXPECT_DOUBLE_EQ(r.comm.fp32.bytes, static_cast<double>(ws2.fp32_bytes));
  EXPECT_DOUBLE_EQ(r.comm.fp64.bytes, static_cast<double>(ws2.fp64_bytes));
  EXPECT_DOUBLE_EQ(r.comm.fp64.messages, 2.0);
  EXPECT_GT(r.comm.fp32_drift_rms, 0.0);
  ASSERT_EQ(r.comm.lanes.size(), 2u);
  EXPECT_EQ(r.comm.lanes[0].lane, 0);
  EXPECT_EQ(r.comm.lanes[1].lane, 1);
  m.clear();
}

TEST(RunReport, CommLedgerMatchesHandComputedBf16HaloBytes) {
  // BF16 wire variant of the ledger exactness test: halo packets travel at
  // 2 bytes per double (quarter of FP64), the drift gauge lands in the BF16
  // half-ulp range, and the mixed Gram allreduce still accounts FP64 diagonal
  // + FP32 off-diagonal payloads (the gram wire stays FP32 under BF16 halos).
  const auto mesh = fe::make_uniform_mesh(6.0, 4, false);
  fe::DofHandler dofh(mesh, 3);
  dd::EngineOptions opt;
  opt.nlanes = 2;
  opt.hamiltonian = false;
  opt.coef_lap = 1.0;
  opt.wire = dd::Wire::bf16;
  opt.drift_budget = 1.0;  // BF16 drift is ~4e-3 RMS; keep headroom
  dd::SlabEngine<double> eng(dofh, opt);

  auto& m = obs::Context::current().metrics();
  m.clear();

  const index_t ncols = 5;
  la::Matrix<double> X(dofh.ndofs(), ncols), Y;
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.37 * i) * 1e3;
  eng.apply(X, Y);

  const std::int64_t plane = dofh.naxis(0) * dofh.naxis(1);
  const std::int64_t bytes =
      4 * plane * ncols * dd::wire_value_bytes<double>(dd::Wire::bf16);
  const auto ws = eng.wire_stats();
  EXPECT_EQ(ws.bf16_bytes, bytes);
  EXPECT_EQ(ws.bf16_messages, 4);
  EXPECT_EQ(ws.fp32_bytes, 0);
  EXPECT_EQ(ws.fp64_bytes, 0);
  EXPECT_EQ(eng.comm_stats().bytes, bytes);
  EXPECT_GT(ws.bf16_drift_num, 0.0);

  EXPECT_DOUBLE_EQ(m.counter("comm.wire.bf16.bytes"), static_cast<double>(bytes));
  EXPECT_DOUBLE_EQ(m.counter("comm.wire.bf16.messages"), 4.0);
  EXPECT_DOUBLE_EQ(m.counter("comm.wire.fp32.bytes"), 0.0);
  EXPECT_DOUBLE_EQ(m.counter("comm.wire.fp64.bytes"), 0.0);
  const double drift = m.gauge("comm.wire.bf16.drift_rms");
  EXPECT_GT(drift, 1e-5);               // coarser than any FP32 rounding...
  EXPECT_LT(drift, std::ldexp(1.0, -8));  // ...but within the half-ulp bound
  EXPECT_DOUBLE_EQ(m.gauge("comm.wire.drift_budget_used"), drift / opt.drift_budget);

  // Mixed Gram under the BF16 halo wire: allreduce payload is FP64 diagonal
  // blocks + FP32 off-diagonal triangle, exactly as on the FP32 wire.
  const index_t N = 6;
  la::Matrix<double> A(dofh.ndofs(), N), S;
  for (index_t i = 0; i < A.size(); ++i) A.data()[i] = std::cos(0.23 * i);
  eng.overlap(A, A, S, /*mp_block=*/2, /*mixed=*/true);
  const auto ws2 = eng.wire_stats();
  const std::int64_t diag = 3 * 2 * 2;
  const std::int64_t off = N * N - diag;
  EXPECT_EQ(ws2.fp64_bytes, 2 * diag * static_cast<std::int64_t>(sizeof(double)));
  EXPECT_EQ(ws2.fp32_bytes, 2 * off * static_cast<std::int64_t>(sizeof(float)));
  EXPECT_EQ(ws2.bf16_bytes, bytes);  // halo traffic unchanged by the overlap

  const obs::RunReport r = obs::build_run_report("bf16-ledger");
  EXPECT_DOUBLE_EQ(r.comm.bf16.bytes, static_cast<double>(ws2.bf16_bytes));
  EXPECT_DOUBLE_EQ(r.comm.bf16.messages, 4.0);
  EXPECT_GT(r.comm.bf16_drift_rms, 0.0);
  EXPECT_GT(r.comm.drift_budget_used, 0.0);
  m.clear();
}

// ---------- exposed wait under a calibrated injected delay ----------

TEST(RunReport, ExposedWaitTracksInjectedWireDelay) {
  const auto mesh = fe::make_uniform_mesh(6.0, 4, false);
  fe::DofHandler dofh(mesh, 3);
  dd::EngineOptions opt;
  opt.nlanes = 2;
  opt.mode = dd::EngineMode::sync;  // no overlap: the wire wait is exposed
  opt.hamiltonian = false;
  opt.coef_lap = 1.0;
  opt.inject_wire_delay = true;
  opt.model.bandwidth_bytes_per_s = 5e6;  // ~1 ms per 5-column halo packet
  opt.model.latency_s = 1e-4;
  dd::SlabEngine<double> eng(dofh, opt);

  auto& m = obs::Context::current().metrics();
  m.clear();

  la::Matrix<double> X(dofh.ndofs(), 5), Y;
  for (index_t i = 0; i < X.size(); ++i) X.data()[i] = std::sin(0.19 * i);
  for (int rep = 0; rep < 4; ++rep) eng.apply(X, Y);

  const double exposed = m.counter("comm.halo.exposed_wait_s");
  const double modeled = m.counter("comm.halo.modeled_s");
  EXPECT_GT(modeled, 2e-3);  // the injected delay is non-trivial
  // Sync mode sleeps out the modeled wire time on receive, so the measured
  // exposed wait must track it (loose factors: scheduling noise, and the
  // wait also includes cross-lane compute imbalance).
  EXPECT_GT(exposed, 0.5 * modeled);
  EXPECT_LT(exposed, 2.5 * modeled + 0.1);

  // Per-lane attribution sums to (at least) the global exposed wait.
  const double lane_sum =
      m.counter("comm.lane0.exposed_wait_s") + m.counter("comm.lane1.exposed_wait_s");
  EXPECT_NEAR(lane_sum, exposed, 1e-9);
  m.clear();
}

}  // namespace
}  // namespace dftfe
