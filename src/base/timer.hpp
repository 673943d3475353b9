#pragma once

// Wall-clock timing. The paper measures per-step wall times (CF, CholGS-S,
// CholGS-CI, CholGS-O, RR-P, RR-D, RR-SR, DC, DH+EP) with MPI_Wtime-style
// timers (Sec. 6.3); named sections are timed by obs::TraceSpan, whose span
// histograms hold the per-step totals.

#include <chrono>

namespace dftfe {

class Timer {
 public:
  Timer() { reset(); }
  void reset() { start_ = clock::now(); }
  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace dftfe
