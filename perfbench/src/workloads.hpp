#pragma once

// One benchmark run: build one workload's inputs from the seed, set up the
// model and job, time one solve (with host-speed reference rounds at every
// SCF iteration boundary), time further set-ups until the run has measured
// `seconds` (their median is setup_s), check every answer, and in a traced
// run probe the layers. The reported times are scaled by the reference.

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "outcome.hpp"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::dimer;
  std::uint64_t seed = 0;
  bool trace = false;
  double seconds = 0.0;  // the run measures at least this long
  std::string data_dir;  // holds mlxc_weights.txt
  std::string out_dir;   // scratch for checkpoints, reports and spans; emptied first
};

struct RunOutput {
  Tally tally;
  /// End-to-end metrics (solve_s, setup_s, cpu_s, peak_rss_mb) always, and
  /// the per-layer metrics of this workload in a traced run.
  std::vector<Metric> metrics;
  /// Written in a traced run.
  std::string spans_path;
};

RunOutput run_workload(const RunOptions& opt);

}  // namespace perfbench
