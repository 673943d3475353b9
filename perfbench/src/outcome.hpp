#pragma once

// Solve accounting and the result line. Every solve a workload attempts is
// recorded; a solve that threw, did not converge, or failed an answer check
// counts as failed. Nothing is dropped: `attempted` always equals the
// number of solves the workload set out to run.

#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct SolveRecord {
  std::string name;
  bool threw = false;
  std::string error;
  bool converged = false;
  double energy = 0.0;
  /// Answer check: |energy - *reference| <= tolerance.
  std::optional<double> reference;
  double tolerance = 0.0;
};

class Tally {
 public:
  /// Record one attempted solve. Returns false when it counts as failed.
  bool record(const SolveRecord& r);
  /// A workload-level check (e.g. the shared model was built once). A
  /// failed check makes the run incorrect without adding a solve.
  void check(bool ok, const std::string& what);

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && checks_ok_ && attempted_ > 0; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
  bool checks_ok_ = true;
  std::vector<std::string> problems_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(const Tally& t, const std::vector<Metric>& metrics);

}  // namespace perfbench
