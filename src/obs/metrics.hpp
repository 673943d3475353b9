#pragma once

// Solver metrics registry: counters (monotonic accumulators), gauges (last
// value wins), ordered time series (one append per SCF/outer iteration), and
// bounded-memory histograms (span-duration / message-latency distributions).
//
// This is the machine-readable side of the convergence diagnostics the
// solvers previously printf'd: SCF residual and Fermi level per iteration,
// Anderson mixing depth, Poisson PCG and adjoint block-MINRES iteration
// counts, Chebyshev filter degree and block size. Every obs::TraceSpan
// records its duration into the histogram of its name, so the per-step wall
// totals are the span histograms' sum/count. Snapshots serialize to JSON via
// obs/export.hpp alongside the FlopCounter per-step FLOPs, and roll up into
// the per-run RunReport artifact (obs/report.hpp). The registry producers
// record into is the one in obs::Context::current() (obs/context.hpp).
//
// All operations are mutex-guarded; recording from OpenMP-parallel sections
// is safe. Keep calls at per-iteration granularity (not inner loops).
//
// Hot-path note: every mutating call takes std::string_view and the maps use
// transparent comparators (std::less<>), so recording against an existing
// key performs no allocation — only the first occurrence of a key copies it
// into the map. Callers on the hot path should pass literal or prebuilt
// names.

#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dftfe::obs {

/// Fixed-footprint log2 histogram: 64 power-of-two buckets spanning
/// [2^-40, 2^24) (~1e-12 .. 1.6e7 — picoseconds to months when the recorded
/// values are seconds), plus exact count/sum/min/max. Memory is bounded and
/// independent of the number of recorded values, so per-message latencies
/// and per-span durations can be recorded for the whole run.
struct Histogram {
  static constexpr int kBuckets = 64;
  static constexpr int kMinExp = -40;  // bucket 0 holds values < 2^kMinExp (and <= 0)

  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, kBuckets> buckets{};

  /// Bucket index for a value: floor(log2 v) - kMinExp, clamped to the range.
  static int bucket_of(double v) {
    if (!(v > 0.0) || !std::isfinite(v)) return 0;
    int e = std::ilogb(v) - kMinExp;
    if (e < 0) e = 0;
    if (e >= kBuckets) e = kBuckets - 1;
    return e;
  }

  void record(double v) {
    if (count == 0) {
      min = max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    ++count;
    sum += v;
    ++buckets[static_cast<std::size_t>(bucket_of(v))];
  }

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  /// Approximate quantile from the bucket boundaries (upper edge of the
  /// bucket containing the q-th value; exact enough for regression triage).
  double quantile(double q) const {
    if (count == 0) return 0.0;
    const double target = q * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += buckets[static_cast<std::size_t>(i)];
      if (static_cast<double>(seen) >= target)
        return std::ldexp(1.0, i + kMinExp + 1);  // upper bucket edge
    }
    return max;
  }
};

class MetricsRegistry {
 public:
  struct Snapshot {
    std::map<std::string, double, std::less<>> counters;
    std::map<std::string, double, std::less<>> gauges;
    std::map<std::string, std::vector<double>, std::less<>> series;
    std::map<std::string, Histogram, std::less<>> histograms;
  };

  void counter_add(std::string_view name, double v) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end())
      counters_.emplace(std::string(name), v);
    else
      it->second += v;
  }
  void gauge_set(std::string_view name, double v) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end())
      gauges_.emplace(std::string(name), v);
    else
      it->second = v;
  }
  /// Append one point to an ordered series (insertion order is preserved).
  void series_append(std::string_view name, double v) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = series_.find(name);
    if (it == series_.end()) it = series_.emplace(std::string(name), std::vector<double>{}).first;
    it->second.push_back(v);
  }
  /// Record one observation into the named bounded-memory histogram.
  void histogram_record(std::string_view name, double v) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) it = histograms_.emplace(std::string(name), Histogram{}).first;
    it->second.record(v);
  }

  double counter(std::string_view name) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }
  double gauge(std::string_view name) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
  }
  std::vector<double> series(std::string_view name) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = series_.find(name);
    return it == series_.end() ? std::vector<double>{} : it->second;
  }
  Histogram histogram(std::string_view name) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = histograms_.find(name);
    return it == histograms_.end() ? Histogram{} : it->second;
  }

  Snapshot snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return {counters_, gauges_, series_, histograms_};
  }
  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    counters_.clear();
    gauges_.clear();
    series_.clear();
    histograms_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, double, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, std::vector<double>, std::less<>> series_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace dftfe::obs
