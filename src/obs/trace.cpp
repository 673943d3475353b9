#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <utility>

#include "obs/context.hpp"

namespace dftfe::obs {

namespace {

using clock = std::chrono::steady_clock;

clock::time_point trace_epoch() {
  static const clock::time_point epoch = clock::now();
  return epoch;
}

#if DFTFE_ENABLE_TRACING
// Per-thread stack of active span ids; parenting is a property of call
// nesting on one thread, so the stack needs no synchronization.
thread_local std::vector<std::uint64_t> t_span_stack;
#endif

}  // namespace

double TraceRecorder::now_us() {
  return std::chrono::duration<double, std::micro>(clock::now() - trace_epoch()).count();
}

std::uint64_t TraceRecorder::next_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t TraceRecorder::thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void TraceRecorder::record(TraceEvent ev) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(ev));
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_;
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_.size();
}

std::size_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  events_.clear();
  dropped_ = 0;
}

void TraceRecorder::set_capacity(std::size_t cap) {
  std::lock_guard<std::mutex> lk(mu_);
  capacity_ = cap;
}

TraceSpan::TraceSpan(std::string name, std::string category)
    : name_(std::move(name)), category_(std::move(category)), ctx_(&Context::current()) {
#if DFTFE_ENABLE_TRACING
  start_us_ = TraceRecorder::now_us();
  id_ = TraceRecorder::next_span_id();
  parent_ = t_span_stack.empty() ? 0 : t_span_stack.back();
  depth_ = static_cast<int>(t_span_stack.size());
  t_span_stack.push_back(id_);
#endif
  t_.reset();  // exclude the setup above from the measured interval
}

TraceSpan::TraceSpan(std::string name, std::string category, int lane)
    : TraceSpan(std::move(name), std::move(category)) {
  lane_ = lane;
  t_.reset();
}

TraceSpan::~TraceSpan() { stop(); }

void TraceSpan::stop() {
  if (stopped_) return;
  stopped_ = true;
  const double seconds = t_.seconds();
  // Span-duration distribution, whose sum/count are the per-step wall
  // totals; zero steady-state allocation (transparent string_view lookup
  // against an existing key).
  ctx_->metrics().histogram_record(name_, seconds);
#if DFTFE_ENABLE_TRACING
  if (!t_span_stack.empty() && t_span_stack.back() == id_) t_span_stack.pop_back();
  TraceEvent ev;
  ev.name = std::move(name_);
  ev.category = std::move(category_);
  ev.ts_us = start_us_;
  ev.dur_us = seconds * 1e6;
  ev.tid = TraceRecorder::thread_id();
  ev.id = id_;
  ev.parent = parent_;
  ev.depth = depth_;
  ev.lane = lane_;
  ctx_->trace().record(std::move(ev));
#endif
}

}  // namespace dftfe::obs
