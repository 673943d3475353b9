#pragma once

// In-memory span recorder for the traced run. Spans are recorded only in
// the benchmark's own code, around calls into the program's public
// functions; they are kept in memory and written out once, when the run
// ends. A disabled recorder (untraced runs) records nothing and costs one
// branch per call.

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the recorder was created
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0: no parent
  double duration() const { return end - start; }
};

/// Seconds on the steady clock since an arbitrary fixed point.
double now_s();

class SpanRecorder {
 public:
  SpanRecorder(bool enabled, std::string run_id);

  bool enabled() const { return enabled_; }

  /// Record a finished span from two now_s() readings; returns its id
  /// (0 when disabled). Thread-safe.
  std::int64_t add(std::string name, double start, double end, std::int64_t parent = 0);
  /// Start a span now and return its id, so children can name it as their
  /// parent before it ends; close(id) ends it. Thread-safe.
  std::int64_t open(std::string name, std::int64_t parent = 0);
  void close(std::int64_t id);
  /// Time fn() and record it as a span. Returns the elapsed seconds, which
  /// are measured even when the recorder is disabled.
  double time(const std::string& name, std::int64_t parent, const std::function<void()>& fn);

  std::vector<Span> spans() const;
  /// Durations of every span with this name, in recording order.
  std::vector<double> durations(const std::string& name) const;

  /// Write {"run_id", "spans": [...], "self_s": {name: seconds}} as JSON.
  /// A span's self time is its duration minus the part of its interval its
  /// children cover (children may overlap, e.g. jobs on two service
  /// workers); self_s sums it over the spans of each name.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::string run_id_;
  double epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Median / p-th percentile (linear interpolation) of a sample; 0 if empty.
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);

}  // namespace perfbench
