#pragma once

// The telemetry context: one MetricsRegistry, one TraceRecorder and one
// FlopCounter — everything a run records (scf.* series, span traces, span
// durations, per-step FLOPs). Producers resolve it through
// Context::current(), which is the process-wide default unless a context is
// installed on the calling thread with a ContextGuard.
//
// Per-job telemetry — the "tenant dimension": svc::JobService::run_one owns
// one Context per job and installs it on the worker thread, so N concurrent
// jobs do not interleave their records in one process-wide map, and the
// RunReport built inside the job (obs/report.hpp reads current() at call
// time) is a clean per-job artifact.
//
// Threads do not inherit the installed context. Code that hands a job's work
// to other threads captures `&Context::current()` and installs it in each of
// them: the dd::RankEngine lanes at startup (dd/engine.cpp) and the OpenMP
// workers of la::overlap_hermitian_partial's block-pair region.
//
// Lifetime rule: every thread that installed a context must drop its guard
// (or terminate) before the context is destroyed — in practice, destroy the
// job's solver (joining its engine lanes) before the context unwinds. The
// svc job runner orders its locals accordingly (context first, job after, so
// the job — and its lanes — die first).

#include <string>
#include <utility>

#include "base/flops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dftfe::obs {

class Context {
 public:
  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }
  FlopCounter& flops() { return flops_; }
  const FlopCounter& flops() const { return flops_; }

  /// Empty the registry, the recorder and the counter.
  void clear() {
    metrics_.clear();
    trace_.clear();
    flops_.clear();
  }

  /// The context installed on the calling thread, or the process default.
  /// One thread-local load: cheap enough for every FLOP-counting kernel call.
  static Context& current() {
    Context* const c = installed_;
    return c != nullptr ? *c : process_default();
  }

 private:
  friend class ContextGuard;

  static Context& process_default() {
    static Context c;
    return c;
  }

  static inline thread_local Context* installed_ = nullptr;

  MetricsRegistry metrics_;
  TraceRecorder trace_;
  FlopCounter flops_;
};

/// Installs a context on the calling thread for the guard's lifetime and
/// restores the previous one on destruction (see the lifetime rule above).
class ContextGuard {
 public:
  explicit ContextGuard(Context& ctx) : prev_(Context::installed_) {
    Context::installed_ = &ctx;
  }
  ~ContextGuard() { Context::installed_ = prev_; }
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  Context* prev_;
};

/// RAII step attribution: FLOPs the current context counts inside the scope
/// land in `name` (e.g. "CF", "CholGS-S").
class ScopedFlopStep {
 public:
  explicit ScopedFlopStep(std::string name) : flops_(Context::current().flops()) {
    flops_.set_step(std::move(name));
  }
  ~ScopedFlopStep() { flops_.set_step(""); }
  ScopedFlopStep(const ScopedFlopStep&) = delete;
  ScopedFlopStep& operator=(const ScopedFlopStep&) = delete;

 private:
  FlopCounter& flops_;
};

}  // namespace dftfe::obs
