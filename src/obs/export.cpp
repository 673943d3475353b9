#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace dftfe::obs {

namespace {

/// JSON number: shortest round-trip form; non-finite values become null
/// (strict JSON has no NaN/Inf and chrome://tracing rejects them).
std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Works for both the registry's transparent-comparator maps and the plain
// std::map<std::string,double> the FlopCounter returns.
template <class Map>
void append_scalar_map(std::ostringstream& os, const Map& m) {
  os << '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(k) << "\":" << json_num(v);
  }
  os << '}';
}

}  // namespace

const std::vector<CanonicalStep>& canonical_steps() {
  static const std::vector<CanonicalStep> steps = {
      {"CF", false},       {"CholGS-S", false}, {"CholGS-CI", true},
      {"CholGS-O", false}, {"RR-P", false},     {"RR-D", true},
      {"RR-SR", false},    {"DC", false},
  };
  return steps;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void append_profile_json(std::ostream& os,
                         const std::map<std::string, Histogram, std::less<>>& histograms) {
  os << '{';
  bool first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":{\"seconds\":" << json_num(h.sum)
       << ",\"count\":" << h.count << '}';
  }
  os << '}';
}

std::string chrome_trace_json(const Context& ctx) {
  const TraceRecorder& rec = ctx.trace();
  const auto events = rec.events();
  // Lane-tagged spans render one row per slab-rank lane: the lane id becomes
  // the Chrome tid. Untagged (driver/main) spans keep their OS-thread ids,
  // offset past any plausible lane count so the two namespaces never collide.
  constexpr std::uint32_t kThreadTidBase = 1000;
  auto row_tid = [&](const TraceEvent& ev) -> std::uint32_t {
    return ev.lane >= 0 ? static_cast<std::uint32_t>(ev.lane) : kThreadTidBase + ev.tid;
  };
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"dftfe-mlxc\",\"dropped\":"
     << rec.dropped() << "},\"traceEvents\":[";
  bool first = true;
  // thread_name metadata events so the per-lane rows are labeled in
  // chrome://tracing / Perfetto.
  std::map<std::uint32_t, std::string> row_names;
  for (const auto& ev : events) {
    const std::uint32_t tid = row_tid(ev);
    if (row_names.count(tid)) continue;
    row_names[tid] = ev.lane >= 0 ? "lane " + std::to_string(ev.lane)
                                  : "thread " + std::to_string(ev.tid);
  }
  for (const auto& [tid, name] : row_names) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }
  for (const auto& ev : events) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\"" << json_escape(ev.category)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << row_tid(ev) << ",\"ts\":" << json_num(ev.ts_us)
       << ",\"dur\":" << json_num(ev.dur_us) << ",\"args\":{\"id\":" << ev.id
       << ",\"parent\":" << ev.parent << ",\"depth\":" << ev.depth << ",\"thread\":" << ev.tid;
    if (ev.lane >= 0) os << ",\"lane\":" << ev.lane;
    os << "}}";
  }
  os << "]}";
  return os.str();
}

bool write_chrome_trace(const std::string& path, const Context& ctx) {
  std::ofstream f(path);
  if (!f) return false;
  f << chrome_trace_json(ctx) << '\n';
  return static_cast<bool>(f);
}

std::string metrics_snapshot_json(const Context& ctx) {
  const auto snap = ctx.metrics().snapshot();
  const FlopCounter& flops = ctx.flops();
  std::ostringstream os;
  os << "{\"schema\":\"dftfe.metrics.v1\"";

  os << ",\"counters\":";
  append_scalar_map(os, snap.counters);
  os << ",\"gauges\":";
  append_scalar_map(os, snap.gauges);

  os << ",\"series\":{";
  bool first = true;
  for (const auto& [name, values] : snap.series) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) os << ',';
      os << json_num(values[i]);
    }
    os << ']';
  }
  os << '}';

  os << ",\"profile\":";
  append_profile_json(os, snap.histograms);

  os << ",\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":{\"count\":" << h.count
       << ",\"sum\":" << json_num(h.sum) << ",\"min\":" << json_num(h.min)
       << ",\"max\":" << json_num(h.max) << ",\"p50\":" << json_num(h.quantile(0.5))
       << ",\"p99\":" << json_num(h.quantile(0.99)) << ",\"buckets\":[";
    // Sparse [index, count] pairs: most of the 64 log2 buckets are empty.
    bool bfirst = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      if (!h.buckets[static_cast<std::size_t>(i)]) continue;
      if (!bfirst) os << ',';
      bfirst = false;
      os << '[' << i << ',' << h.buckets[static_cast<std::size_t>(i)] << ']';
    }
    os << "]}";
  }
  os << '}';

  os << ",\"flops\":{\"total\":" << json_num(flops.total()) << ",\"steps\":";
  append_scalar_map(os, flops.steps());
  os << "}}";
  return os.str();
}

bool write_metrics_snapshot(const std::string& path, const Context& ctx) {
  std::ofstream f(path);
  if (!f) return false;
  f << metrics_snapshot_json(ctx) << '\n';
  return static_cast<bool>(f);
}

TextTable step_breakdown_table(double total_wall, double peak_gflops, const Context& ctx) {
  std::vector<std::string> header = {"step", "wall (s)", "GFLOP", "GFLOPS"};
  if (peak_gflops > 0.0) header.push_back("% of calibrated peak");
  TextTable t(header);
  auto pct = [&](double gflops) {
    return TextTable::num(100.0 * gflops / peak_gflops, 1) + "%";
  };
  double accounted = 0.0, gflop_total = 0.0;
  for (const auto& step : canonical_steps()) {
    const double wall = ctx.metrics().histogram(step.name).sum;
    const double gf = ctx.flops().step(step.name) / 1e9;
    accounted += wall;
    if (!step.minor) gflop_total += gf;
    const double rate = gf / std::max(wall, 1e-9);
    std::vector<std::string> row = {step.name, TextTable::num(wall, 3),
                                    step.minor ? "-" : TextTable::num(gf, 2),
                                    step.minor ? "-" : TextTable::num(rate, 2)};
    if (peak_gflops > 0.0) row.push_back(step.minor ? "-" : pct(rate));
    t.add_row(std::move(row));
  }
  const double others = std::max(total_wall - accounted, 0.0);
  {
    std::vector<std::string> row = {"DH+EP+Others", TextTable::num(others, 3), "-", "-"};
    if (peak_gflops > 0.0) row.push_back("-");
    t.add_row(std::move(row));
  }
  {
    const double rate = gflop_total / std::max(total_wall, 1e-9);
    std::vector<std::string> row = {"TOTAL", TextTable::num(total_wall, 3),
                                    TextTable::num(gflop_total, 2), TextTable::num(rate, 2)};
    if (peak_gflops > 0.0) row.push_back(pct(rate));
    t.add_row(std::move(row));
  }
  return t;
}

TextTable lane_breakdown_table(const Context& ctx) {
  const auto events = ctx.trace().events();
  int nlanes = 0;
  for (const auto& ev : events) nlanes = std::max(nlanes, ev.lane + 1);
  // Aggregate by (name, lane), keeping first-seen name order for the rows.
  std::vector<std::string> names;
  std::map<std::string, std::vector<double>> seconds;
  for (const auto& ev : events) {
    if (ev.lane < 0) continue;
    auto it = seconds.find(ev.name);
    if (it == seconds.end()) {
      names.push_back(ev.name);
      it = seconds.emplace(ev.name, std::vector<double>(nlanes, 0.0)).first;
    }
    it->second[static_cast<std::size_t>(ev.lane)] += ev.dur_us * 1e-6;
  }
  std::vector<std::string> header = {"span"};
  for (int r = 0; r < nlanes; ++r) header.push_back("lane " + std::to_string(r) + " (s)");
  TextTable t(header);
  for (const auto& name : names) {
    std::vector<std::string> row = {name};
    for (int r = 0; r < nlanes; ++r)
      row.push_back(TextTable::num(seconds[name][static_cast<std::size_t>(r)], 3));
    t.add_row(std::move(row));
  }
  return t;
}

}  // namespace dftfe::obs
