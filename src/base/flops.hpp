#pragma once

// FLOP accounting, mirroring the paper's measurement methodology (Sec. 6.3):
// FLOPs of the dominant dense kernels are counted analytically (e.g. 2*m*n*k
// per real GEMM, 4x for complex), attributed to named steps, and divided by
// a calibrated machine peak to obtain "% of peak". The counter the kernels
// add to is the one in obs::Context::current() (obs/context.hpp).

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace dftfe {

class FlopCounter {
 public:
  /// Add FLOPs to the total and to the named step bucket (if set).
  /// The total accumulates in double (C++20 atomic fetch_add): the previous
  /// int64 cast silently dropped every fractional contribution.
  void add(double flops) {
    total_.fetch_add(flops, std::memory_order_relaxed);
    // Lock-free fast path when no step is attributed: the flag (not the
    // string, whose unsynchronized read would race set_step) gates the lock.
    if (has_step_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!current_step_.empty()) steps_[current_step_] += flops;
    }
  }
  double total() const { return total_.load(std::memory_order_relaxed); }

  /// Attribute subsequent FLOPs to a named step (e.g. "CF", "CholGS-S").
  void set_step(std::string name) {
    std::lock_guard<std::mutex> lk(mu_);
    current_step_ = std::move(name);
    has_step_.store(!current_step_.empty(), std::memory_order_release);
  }
  double step(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = steps_.find(name);
    return it == steps_.end() ? 0.0 : it->second;
  }
  std::map<std::string, double> steps() const {
    std::lock_guard<std::mutex> lk(mu_);
    return steps_;
  }
  void clear() {
    std::lock_guard<std::mutex> lk(mu_);
    total_.store(0.0);
    steps_.clear();
    current_step_.clear();
    has_step_.store(false, std::memory_order_release);
  }

 private:
  std::atomic<double> total_{0.0};
  std::atomic<bool> has_step_{false};
  mutable std::mutex mu_;
  std::map<std::string, double> steps_;
  std::string current_step_;
};

}  // namespace dftfe
