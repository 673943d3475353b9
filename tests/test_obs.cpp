// Unit tests for the observability subsystem: span tracing (nesting,
// concurrency, per-step totals in the span histograms), the telemetry
// context, metrics registry ordering, JSON exporters (parsed back with the
// strict validator), and the leveled logging facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/context.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"

namespace dftfe {
namespace {

#if DFTFE_ENABLE_TRACING

TEST(TraceSpan, RecordsNestingAndParenting) {
  obs::Context ctx;
  obs::ContextGuard guard(ctx);
  {
    obs::TraceSpan outer("SCF-iter", "scf");
    {
      obs::TraceSpan inner("CF", "chfes");
    }
    {
      obs::TraceSpan inner("DC", "scf");
    }
  }
  const auto events = ctx.trace().events();
  ASSERT_EQ(events.size(), 3u);
  // Children complete (and record) before the parent.
  const auto& cf = events[0];
  const auto& dc = events[1];
  const auto& iter = events[2];
  EXPECT_EQ(cf.name, "CF");
  EXPECT_EQ(dc.name, "DC");
  EXPECT_EQ(iter.name, "SCF-iter");
  EXPECT_EQ(iter.parent, 0u);
  EXPECT_EQ(iter.depth, 0);
  EXPECT_EQ(cf.parent, iter.id);
  EXPECT_EQ(dc.parent, iter.id);
  EXPECT_EQ(cf.depth, 1);
  EXPECT_EQ(dc.depth, 1);
  // Steady-clock timestamps: children start at/after the parent and the
  // second child starts after the first ends.
  EXPECT_GE(cf.ts_us, iter.ts_us);
  EXPECT_GE(dc.ts_us, cf.ts_us + cf.dur_us - 1.0);
  // Spans also feed the per-step span histograms.
  EXPECT_EQ(ctx.metrics().histogram("CF").count, 1u);
  EXPECT_EQ(ctx.metrics().histogram("SCF-iter").count, 1u);
}

TEST(TraceSpan, StopEndsTheSpanEarlyAndIsIdempotent) {
  obs::Context ctx;
  obs::ContextGuard guard(ctx);
  {
    obs::TraceSpan span("adjoint", "invdft");
    span.stop();
    span.stop();  // destructor must not double-record either
  }
  EXPECT_EQ(ctx.trace().size(), 1u);
  EXPECT_EQ(ctx.metrics().histogram("adjoint").count, 1u);
}

TEST(TraceRecorder, ConcurrentSpansFromManyThreads) {
  obs::Context ctx;
  constexpr int kThreads = 8, kSpans = 50;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&ctx] {
      obs::ContextGuard guard(ctx);
      for (int i = 0; i < kSpans; ++i) {
        obs::TraceSpan outer("outer", "test");
        obs::TraceSpan inner("inner", "test");
      }
    });
  for (auto& th : pool) th.join();
  const auto events = ctx.trace().events();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(2 * kThreads * kSpans));
  const auto per_name = static_cast<std::uint64_t>(kThreads * kSpans);
  EXPECT_EQ(ctx.metrics().histogram("outer").count, per_name);
  EXPECT_EQ(ctx.metrics().histogram("inner").count, per_name);
  // Per-thread parenting survived concurrency: every inner span's parent is
  // an outer span recorded by the same thread.
  std::map<std::uint64_t, std::uint32_t> outer_tid;
  for (const auto& ev : events)
    if (ev.name == "outer") outer_tid[ev.id] = ev.tid;
  for (const auto& ev : events)
    if (ev.name == "inner") {
      auto it = outer_tid.find(ev.parent);
      ASSERT_NE(it, outer_tid.end());
      EXPECT_EQ(it->second, ev.tid);
      EXPECT_EQ(ev.depth, 1);
    }
}

TEST(TraceRecorder, CapacityBoundsRetainedEvents) {
  obs::Context ctx;
  obs::ContextGuard guard(ctx);
  obs::TraceRecorder& rec = ctx.trace();
  rec.set_capacity(5);
  for (int i = 0; i < 9; ++i) obs::TraceSpan span("s", "test");
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.dropped(), 4u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceRecorder, DisabledRecorderCapturesNothing) {
  obs::Context ctx;
  obs::ContextGuard guard(ctx);
  ctx.trace().set_enabled(false);
  { obs::TraceSpan span("s", "test"); }
  EXPECT_EQ(ctx.trace().size(), 0u);
  // The span histogram still accumulates (that is the OFF-mode contract).
  EXPECT_EQ(ctx.metrics().histogram("s").count, 1u);
}

TEST(ChromeTrace, ExportIsWellFormedJsonWithEscapedNames) {
  obs::Context ctx;
  obs::ContextGuard guard(ctx);
  {
    obs::TraceSpan outer("SCF", "scf");
    obs::TraceSpan weird("na\"me\nwith\tescapes\\", "cat\"egory");
  }
  const std::string json = obs::chrome_trace_json(ctx);
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("na\\\"me\\nwith\\tescapes\\\\"), std::string::npos);
}

#endif  // DFTFE_ENABLE_TRACING

TEST(Context, GuardInstallsOnThisThreadAndRestores) {
  obs::Context& outer = obs::Context::current();
  obs::Context a, b;
  {
    obs::ContextGuard ga(a);
    EXPECT_EQ(&obs::Context::current(), &a);
    {
      obs::ContextGuard gb(b);
      EXPECT_EQ(&obs::Context::current(), &b);
    }
    EXPECT_EQ(&obs::Context::current(), &a);
    // Threads do not inherit the installed context.
    obs::Context* seen = nullptr;
    std::thread([&seen] { seen = &obs::Context::current(); }).join();
    EXPECT_EQ(seen, &outer);
    { obs::TraceSpan span("s", "test"); }
  }
  EXPECT_EQ(&obs::Context::current(), &outer);
  EXPECT_EQ(a.metrics().histogram("s").count, 1u);
  EXPECT_EQ(b.metrics().histogram("s").count, 0u);
}

TEST(Metrics, SeriesPreservesAppendOrder) {
  obs::MetricsRegistry m;
  const std::vector<double> residuals = {1.0, 0.3, 0.09, 0.011, 0.0005};
  for (double r : residuals) m.series_append("scf.residual", r);
  EXPECT_EQ(m.series("scf.residual"), residuals);
  EXPECT_TRUE(m.series("missing").empty());
}

TEST(Metrics, CountersAccumulateAndGaugesOverwrite) {
  obs::MetricsRegistry m;
  m.counter_add("poisson.solves", 1.0);
  m.counter_add("poisson.solves", 2.0);
  m.gauge_set("chfes.cheb_degree", 15.0);
  m.gauge_set("chfes.cheb_degree", 20.0);
  EXPECT_DOUBLE_EQ(m.counter("poisson.solves"), 3.0);
  EXPECT_DOUBLE_EQ(m.gauge("chfes.cheb_degree"), 20.0);
  EXPECT_DOUBLE_EQ(m.counter("missing"), 0.0);
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.gauges.size(), 1u);
  m.clear();
  EXPECT_DOUBLE_EQ(m.counter("poisson.solves"), 0.0);
}

TEST(Metrics, ConcurrentRecordingIsConsistent) {
  obs::MetricsRegistry m;
  constexpr int kThreads = 8, kOps = 200;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&m, t] {
      for (int i = 0; i < kOps; ++i) {
        m.counter_add("ops", 1.0);
        m.series_append("per_thread." + std::to_string(t), i);
      }
    });
  for (auto& th : pool) th.join();
  EXPECT_DOUBLE_EQ(m.counter("ops"), kThreads * kOps);
  for (int t = 0; t < kThreads; ++t) {
    const auto s = m.series("per_thread." + std::to_string(t));
    ASSERT_EQ(s.size(), static_cast<std::size_t>(kOps));
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));  // per-thread order kept
  }
}

TEST(MetricsSnapshot, JsonRoundTripsThroughValidator) {
  obs::Context ctx;
  obs::MetricsRegistry& m = ctx.metrics();
  FlopCounter& fc = ctx.flops();
  m.series_append("scf.residual", 0.5);
  m.series_append("scf.residual", 0.01);
  m.gauge_set("chfes.block_size", 48.0);
  m.counter_add("weird\"name", 1.0);
  m.histogram_record("CF", 1.25);
  m.histogram_record("DC", 0.5);
  fc.set_step("CF");
  fc.add(1e9);
  fc.set_step("");
  const std::string json = obs::metrics_snapshot_json(ctx);
  EXPECT_TRUE(obs::json_valid(json)) << json;
  EXPECT_NE(json.find("\"scf.residual\":[0.5,0.01]"), std::string::npos);
  EXPECT_NE(json.find("\"CF\":{\"seconds\":1.25,\"count\":1}"), std::string::npos);
  EXPECT_NE(json.find("\"flops\""), std::string::npos);
  EXPECT_NE(json.find("weird\\\"name"), std::string::npos);
}

TEST(JsonValidator, AcceptsValidRejectsMalformed) {
  EXPECT_TRUE(obs::json_valid("{}"));
  EXPECT_TRUE(obs::json_valid("[1,2.5,-3e+7,\"x\",true,false,null]"));
  EXPECT_TRUE(obs::json_valid("  {\"a\":{\"b\":[{}]}}  "));
  EXPECT_TRUE(obs::json_valid("\"esc \\\" \\n \\u00e9\""));
  EXPECT_FALSE(obs::json_valid(""));
  EXPECT_FALSE(obs::json_valid("{"));
  EXPECT_FALSE(obs::json_valid("{\"a\":1,}"));
  EXPECT_FALSE(obs::json_valid("[1 2]"));
  EXPECT_FALSE(obs::json_valid("{\"a\" 1}"));
  EXPECT_FALSE(obs::json_valid("01"));
  EXPECT_FALSE(obs::json_valid("nan"));
  EXPECT_FALSE(obs::json_valid("{} extra"));
  EXPECT_FALSE(obs::json_valid("\"unterminated"));
}

TEST(StepBreakdown, TableCoversCanonicalStepsAndRemainder) {
  obs::Context ctx;
  ctx.metrics().histogram_record("CF", 2.0);
  ctx.metrics().histogram_record("RR-D", 0.1);
  ctx.flops().set_step("CF");
  ctx.flops().add(4e9);
  ctx.flops().set_step("");
  std::ostringstream os;
  obs::step_breakdown_table(3.0, 0.0, ctx).print(os);
  const std::string table = os.str();
  for (const auto& step : obs::canonical_steps())
    EXPECT_NE(table.find(step.name), std::string::npos) << step.name;
  EXPECT_NE(table.find("DH+EP+Others"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
  // 3.0s total - 2.1s accounted = 0.9s remainder; CF rate = 4GF/2s = 2 GFLOPS.
  EXPECT_NE(table.find("0.900"), std::string::npos);
  EXPECT_NE(table.find("2.00"), std::string::npos);
}

TEST(Logging, LevelFilteringAndSinkRedirect) {
  auto& logger = obs::Logger::global();
  const obs::LogLevel saved = logger.level();
  std::ostringstream sink;
  logger.set_sink(&sink);
  logger.set_level(obs::LogLevel::warn);
  DFTFE_LOG(error) << "an error";
  DFTFE_LOG(warn) << "a warning";
  DFTFE_LOG(info) << "unseen info";
  DFTFE_LOG(debug) << "unseen debug";
  logger.set_level(obs::LogLevel::trace);
  DFTFE_LOG(trace) << "now visible trace";
  logger.set_sink(nullptr);
  logger.set_level(saved);
  const std::string out = sink.str();
  EXPECT_NE(out.find("an error"), std::string::npos);
  EXPECT_NE(out.find("a warning"), std::string::npos);
  EXPECT_EQ(out.find("unseen"), std::string::npos);
  EXPECT_NE(out.find("now visible trace"), std::string::npos);
}

TEST(Logging, DisabledLevelSkipsOperandEvaluation) {
  auto& logger = obs::Logger::global();
  const obs::LogLevel saved = logger.level();
  std::ostringstream sink;
  logger.set_sink(&sink);
  logger.set_level(obs::LogLevel::warn);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return 42;
  };
  DFTFE_LOG(debug) << "value " << expensive();
  EXPECT_EQ(evaluations, 0);  // the macro's guard short-circuits formatting
  DFTFE_LOG(warn) << "value " << expensive();
  EXPECT_EQ(evaluations, 1);
  logger.set_sink(nullptr);
  logger.set_level(saved);
}

TEST(Logging, VerboseFlagMapsToLevels) {
  EXPECT_EQ(obs::level_for(true), obs::LogLevel::info);
  EXPECT_EQ(obs::level_for(false), obs::LogLevel::trace);
  EXPECT_EQ(obs::parse_log_level("DEBUG"), obs::LogLevel::debug);
  EXPECT_EQ(obs::parse_log_level("off"), obs::LogLevel::off);
  EXPECT_EQ(obs::parse_log_level("bogus", obs::LogLevel::warn), obs::LogLevel::warn);
}

TEST(FlopCounter, AccumulatesFractionalContributions) {
  FlopCounter c;
  for (int i = 0; i < 8; ++i) c.add(0.25);  // int64 truncation would keep 0
  EXPECT_DOUBLE_EQ(c.total(), 2.0);
}

TEST(SpanHistogram, AccumulatesNamedSections) {
  obs::MetricsRegistry m;
  m.histogram_record("CF", 1.5);
  m.histogram_record("CF", 0.5);
  m.histogram_record("RR-P", 0.25);
  EXPECT_DOUBLE_EQ(m.histogram("CF").sum, 2.0);
  EXPECT_EQ(m.histogram("CF").count, 2u);
  EXPECT_DOUBLE_EQ(m.histogram("RR-P").sum, 0.25);
  EXPECT_DOUBLE_EQ(m.histogram("missing").sum, 0.0);
  EXPECT_EQ(m.histogram("missing").count, 0u);
}

TEST(SpanHistogram, ConcurrentAddsFromParallelSections) {
  obs::MetricsRegistry m;
  constexpr int kThreads = 8, kAdds = 500;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&m] {
      for (int i = 0; i < kAdds; ++i) m.histogram_record("section", 0.001);
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(m.histogram("section").count, static_cast<std::uint64_t>(kThreads * kAdds));
  EXPECT_NEAR(m.histogram("section").sum, kThreads * kAdds * 0.001, 1e-9);
}

}  // namespace
}  // namespace dftfe
