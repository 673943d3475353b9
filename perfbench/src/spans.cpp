#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::SpanRecorder(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)), epoch_(now_s()) {
  if (enabled_) spans_.reserve(4096);
}

std::int64_t SpanRecorder::add(std::string name, double start, double end,
                               std::int64_t parent) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const auto id = static_cast<std::int64_t>(spans_.size()) + 1;
  spans_.push_back({std::move(name), start - epoch_, end - epoch_, id, parent});
  return id;
}

std::int64_t SpanRecorder::open(std::string name, std::int64_t parent) {
  const double t = now_s();
  return add(std::move(name), t, t, parent);
}

void SpanRecorder::close(std::int64_t id) {
  if (!enabled_ || id <= 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id - 1)].end = t - epoch_;
}

double SpanRecorder::time(const std::string& name, std::int64_t parent,
                          const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  const double t1 = now_s();
  add(name, t0, t1, parent);
  return t1 - t0;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> d;
  for (const auto& s : spans_)
    if (s.name == name) d.push_back(s.duration());
  return d;
}

namespace {

std::vector<std::pair<std::string, double>> self_times(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::vector<const Span*>> children;
  for (const auto& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);
  std::map<std::string, double> self;
  for (const auto& s : spans) {
    std::vector<std::pair<double, double>> iv;
    if (auto it = children.find(s.id); it != children.end())
      for (const Span* c : it->second)
        iv.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[s.name] += s.duration() - covered;
  }
  return {self.begin(), self.end()};
}

}  // namespace

bool SpanRecorder::write_json(const std::string& path) const {
  const auto all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"run_id\": \"%s\", \"spans\": [\n", run_id_.c_str());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, \"id\": %lld, "
                 "\"parent\": %lld, \"run_id\": \"%s\"}%s\n",
                 s.name.c_str(), s.start, s.end, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), run_id_.c_str(),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "], \"self_s\": {");
  const auto self = self_times(all);
  for (std::size_t i = 0; i < self.size(); ++i)
    std::fprintf(f, "%s\"%s\": %.9f", i ? ", " : "", self[i].first.c_str(), self[i].second);
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

}  // namespace perfbench
