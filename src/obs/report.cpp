#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "obs/export.hpp"
#include "obs/json.hpp"

namespace dftfe::obs {

namespace {

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Span-tree aggregation
// ---------------------------------------------------------------------------

struct BuildNode {
  std::int64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  std::map<int, double> lane_us;
  std::map<std::string, BuildNode> children;
};

void convert_nodes(const std::map<std::string, BuildNode>& nodes,
                   std::vector<ReportSpan>& out) {
  out.reserve(nodes.size());
  for (const auto& [name, node] : nodes) {
    ReportSpan s;
    s.name = name;
    s.count = node.count;
    s.total_s = node.total_us * 1e-6;
    s.self_s = std::max(node.self_us, 0.0) * 1e-6;
    for (const auto& [lane, us] : node.lane_us) s.lane_s[lane] = us * 1e-6;
    convert_nodes(node.children, s.children);
    out.push_back(std::move(s));
  }
}

std::vector<ReportSpan> aggregate_spans(const std::vector<TraceEvent>& events) {
  std::map<std::uint64_t, const TraceEvent*> by_id;
  for (const auto& ev : events) by_id.emplace(ev.id, &ev);
  // Wall spent inside child spans, per parent event — yields self time.
  std::map<std::uint64_t, double> child_us;
  for (const auto& ev : events)
    if (ev.parent != 0 && by_id.count(ev.parent)) child_us[ev.parent] += ev.dur_us;

  std::map<std::string, BuildNode> roots;
  std::vector<const std::string*> path;
  for (const auto& ev : events) {
    // Name-path from the outermost recorded ancestor down to this event.
    // A parent missing from the recorder (evicted after the capacity cap)
    // promotes the subtree to a root rather than dropping it.
    path.clear();
    for (const TraceEvent* cur = &ev;;) {
      path.push_back(&cur->name);
      auto it = cur->parent != 0 ? by_id.find(cur->parent) : by_id.end();
      if (it == by_id.end()) break;
      cur = it->second;
      if (path.size() > 512) break;  // defensive: corrupt parent chain
    }
    std::map<std::string, BuildNode>* level = &roots;
    BuildNode* node = nullptr;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      node = &(*level)[**it];
      level = &node->children;
    }
    node->count += 1;
    node->total_us += ev.dur_us;
    auto cit = child_us.find(ev.id);
    node->self_us += ev.dur_us - (cit == child_us.end() ? 0.0 : cit->second);
    if (ev.lane >= 0) node->lane_us[ev.lane] += ev.dur_us;
  }
  std::vector<ReportSpan> out;
  convert_nodes(roots, out);
  return out;
}

// ---------------------------------------------------------------------------
// Ledger-vocabulary helpers
// ---------------------------------------------------------------------------

template <class Map>
double lookup(const Map& m, std::string_view key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// For a key like "comm.lane3.bytes" with prefix "comm.lane": parse the lane
/// index and return the field suffix ("bytes"). Returns lane -1 on mismatch.
int split_lane_key(std::string_view key, std::string_view prefix, std::string_view& field) {
  if (key.substr(0, prefix.size()) != prefix) return -1;
  std::size_t i = prefix.size(), start = i;
  while (i < key.size() && key[i] >= '0' && key[i] <= '9') ++i;
  if (i == start || i >= key.size() || key[i] != '.') return -1;
  field = key.substr(i + 1);
  int lane = 0;
  for (std::size_t j = start; j < i; ++j) lane = lane * 10 + (key[j] - '0');
  return lane;
}

// ---------------------------------------------------------------------------
// Emission (deterministic; pure function of the struct)
// ---------------------------------------------------------------------------

void emit_span(std::ostringstream& os, const ReportSpan& s) {
  os << "{\"name\":\"" << json_escape(s.name) << "\",\"count\":" << s.count
     << ",\"total_s\":" << json_num(s.total_s) << ",\"self_s\":" << json_num(s.self_s)
     << ",\"lanes\":{";
  bool first = true;
  for (const auto& [lane, sec] : s.lane_s) {
    if (!first) os << ',';
    first = false;
    os << '"' << lane << "\":" << json_num(sec);
  }
  os << "},\"children\":[";
  first = true;
  for (const auto& c : s.children) {
    if (!first) os << ',';
    first = false;
    emit_span(os, c);
  }
  os << "]}";
}

void emit_histogram(std::ostringstream& os, const Histogram& h) {
  os << "{\"count\":" << h.count << ",\"sum\":" << json_num(h.sum)
     << ",\"min\":" << json_num(h.min) << ",\"max\":" << json_num(h.max)
     << ",\"p50\":" << json_num(h.quantile(0.5)) << ",\"p99\":" << json_num(h.quantile(0.99))
     << ",\"buckets\":[";
  bool first = true;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    if (!h.buckets[static_cast<std::size_t>(i)]) continue;
    if (!first) os << ',';
    first = false;
    os << '[' << i << ',' << h.buckets[static_cast<std::size_t>(i)] << ']';
  }
  os << "]}";
}

template <class Map>
void emit_scalar_map(std::ostringstream& os, const Map& m) {
  os << '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(k) << "\":" << json_num(v);
  }
  os << '}';
}

// ---------------------------------------------------------------------------
// Parsing helpers (DOM -> struct; unknown keys ignored)
// ---------------------------------------------------------------------------

double num_at(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v ? v->as_num() : 0.0;
}

std::int64_t int_at(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v ? v->as_int() : 0;
}

void parse_span(const JsonValue& v, ReportSpan& out) {
  if (const JsonValue* p = v.find("name")) out.name = p->as_str();
  out.count = int_at(v, "count");
  out.total_s = num_at(v, "total_s");
  out.self_s = num_at(v, "self_s");
  if (const JsonValue* lanes = v.find("lanes"); lanes && lanes->is_object())
    for (const auto& [k, val] : lanes->obj)
      out.lane_s[std::atoi(k.c_str())] = val.as_num();
  if (const JsonValue* kids = v.find("children"); kids && kids->is_array())
    for (const auto& c : kids->arr) {
      ReportSpan child;
      parse_span(c, child);
      out.children.push_back(std::move(child));
    }
}

void parse_histogram(const JsonValue& v, Histogram& h) {
  h.count = static_cast<std::uint64_t>(int_at(v, "count"));
  h.sum = num_at(v, "sum");
  h.min = num_at(v, "min");
  h.max = num_at(v, "max");
  if (const JsonValue* b = v.find("buckets"); b && b->is_array())
    for (const auto& pair : b->arr) {
      if (!pair.is_array() || pair.arr.size() != 2) continue;
      const std::int64_t idx = pair.arr[0].as_int();
      if (idx >= 0 && idx < Histogram::kBuckets)
        h.buckets[static_cast<std::size_t>(idx)] =
            static_cast<std::uint64_t>(pair.arr[1].as_int());
    }
}

}  // namespace

RunReport build_run_report(const std::string& label, double wall_s, const Context& ctx) {
  RunReport r;
  r.label = label;

  const auto snap = ctx.metrics().snapshot();
  r.counters = snap.counters;
  r.gauges = snap.gauges;
  r.histograms = snap.histograms;
  r.flops_total = ctx.flops().total();
  r.flop_steps = ctx.flops().steps();

  const auto events = ctx.trace().events();
  r.spans = aggregate_spans(events);

  if (wall_s >= 0.0) {
    r.wall_s = wall_s;
  } else if (!events.empty()) {
    double t0 = events.front().ts_us, t1 = t0;
    for (const auto& ev : events) {
      t0 = std::min(t0, ev.ts_us);
      t1 = std::max(t1, ev.ts_us + ev.dur_us);
    }
    r.wall_s = (t1 - t0) * 1e-6;
  } else {
    r.wall_s = ctx.metrics().histogram("Simulation-run").sum;
  }

  // Communication ledger: the engine publishes per-job deltas under the
  // comm.* vocabulary (see dd::RankEngine::publish_job_metrics).
  r.comm.fp64.bytes = lookup(snap.counters, "comm.wire.fp64.bytes");
  r.comm.fp64.messages = lookup(snap.counters, "comm.wire.fp64.messages");
  r.comm.fp32.bytes = lookup(snap.counters, "comm.wire.fp32.bytes");
  r.comm.fp32.messages = lookup(snap.counters, "comm.wire.fp32.messages");
  r.comm.bf16.bytes = lookup(snap.counters, "comm.wire.bf16.bytes");
  r.comm.bf16.messages = lookup(snap.counters, "comm.wire.bf16.messages");
  r.comm.exposed_wait_s = lookup(snap.counters, "comm.halo.exposed_wait_s");
  r.comm.modeled_s = lookup(snap.counters, "comm.halo.modeled_s");
  r.comm.pack_s = lookup(snap.counters, "comm.halo.pack_s");
  r.comm.fp32_drift_rms = lookup(snap.gauges, "comm.wire.fp32.drift_rms");
  r.comm.bf16_drift_rms = lookup(snap.gauges, "comm.wire.bf16.drift_rms");
  r.comm.drift_budget_used = lookup(snap.gauges, "comm.wire.drift_budget_used");
  {
    std::map<int, CommLedger::LaneLine> lanes;
    for (const auto& [key, value] : snap.counters) {
      std::string_view field;
      const int lane = split_lane_key(key, "comm.lane", field);
      if (lane < 0) continue;
      auto& line = lanes[lane];
      line.lane = lane;
      if (field == "bytes") line.bytes = value;
      else if (field == "messages") line.messages = value;
      else if (field == "exposed_wait_s") line.exposed_wait_s = value;
    }
    for (auto& [lane, line] : lanes) r.comm.lanes.push_back(line);
  }

  // Memory ledger: la::publish_workspace_metrics + engine per-lane gauges.
  r.memory.allocations = lookup(snap.gauges, "mem.workspace.allocations");
  r.memory.bytes_allocated = lookup(snap.gauges, "mem.workspace.bytes_allocated");
  r.memory.checkouts = lookup(snap.gauges, "mem.workspace.checkouts");
  {
    std::map<int, MemoryLedger::LaneLine> lanes;
    for (const auto& [key, value] : snap.gauges) {
      std::string_view field;
      const int lane = split_lane_key(key, "mem.lane", field);
      if (lane >= 0) {
        if (field == "highwater_bytes") {
          lanes[lane].lane = lane;
          lanes[lane].highwater_bytes = value;
        }
        continue;
      }
      constexpr std::string_view kPool = "mem.pool.";
      std::string_view sv{key};
      if (sv.substr(0, kPool.size()) != kPool) continue;
      const std::size_t dot = sv.rfind('.');
      if (dot == std::string_view::npos || dot <= kPool.size()) continue;
      const std::string pool{sv.substr(kPool.size(), dot - kPool.size())};
      const std::string_view field2 = sv.substr(dot + 1);
      if (field2 == "highwater_bytes") r.memory.pools[pool].highwater_bytes = value;
      else if (field2 == "leases") r.memory.pools[pool].leases = value;
    }
    for (auto& [lane, line] : lanes) r.memory.lanes.push_back(line);
  }

  // Convergence record: every series, so the inner solves' iteration counts
  // (poisson.*, invdft*.minres_iterations, relax.*) explain their wall.
  r.convergence.series = snap.series;
  {
    auto it = r.convergence.series.find("scf.residual");
    if (it != r.convergence.series.end() && !it->second.empty()) {
      r.convergence.iterations = static_cast<std::int64_t>(it->second.size());
      r.convergence.residual_final = it->second.back();
    }
  }
  r.convergence.converged = lookup(snap.gauges, "scf.converged") != 0.0;
  r.convergence.fp32_drift_rms = r.comm.fp32_drift_rms;
  r.convergence.trace_dropped = static_cast<std::int64_t>(ctx.trace().dropped());

  // Lane count: whatever dimension the run actually exercised.
  std::int64_t nlanes = static_cast<std::int64_t>(lookup(snap.gauges, "scf.backend.nlanes"));
  for (const auto& ev : events) nlanes = std::max<std::int64_t>(nlanes, ev.lane + 1);
  for (const auto& line : r.comm.lanes) nlanes = std::max<std::int64_t>(nlanes, line.lane + 1);
  for (const auto& line : r.memory.lanes) nlanes = std::max<std::int64_t>(nlanes, line.lane + 1);
  r.nlanes = nlanes;

  return r;
}

std::string run_report_json(const RunReport& r) {
  std::ostringstream os;
  os << "{\"schema\":\"dftfe.runreport.v1\",\"label\":\"" << json_escape(r.label)
     << "\",\"wall_s\":" << json_num(r.wall_s) << ",\"nlanes\":" << r.nlanes;

  os << ",\"spans\":[";
  bool first = true;
  for (const auto& s : r.spans) {
    if (!first) os << ',';
    first = false;
    emit_span(os, s);
  }
  os << ']';

  os << ",\"comm\":{\"wire\":{\"fp64\":{\"bytes\":" << json_num(r.comm.fp64.bytes)
     << ",\"messages\":" << json_num(r.comm.fp64.messages)
     << "},\"fp32\":{\"bytes\":" << json_num(r.comm.fp32.bytes)
     << ",\"messages\":" << json_num(r.comm.fp32.messages)
     << "},\"bf16\":{\"bytes\":" << json_num(r.comm.bf16.bytes)
     << ",\"messages\":" << json_num(r.comm.bf16.messages)
     << "}},\"halo\":{\"exposed_wait_s\":" << json_num(r.comm.exposed_wait_s)
     << ",\"modeled_s\":" << json_num(r.comm.modeled_s)
     << ",\"pack_s\":" << json_num(r.comm.pack_s)
     << "},\"fp32_drift_rms\":" << json_num(r.comm.fp32_drift_rms)
     << ",\"bf16_drift_rms\":" << json_num(r.comm.bf16_drift_rms)
     << ",\"drift_budget_used\":" << json_num(r.comm.drift_budget_used) << ",\"lanes\":[";
  first = true;
  for (const auto& line : r.comm.lanes) {
    if (!first) os << ',';
    first = false;
    os << "{\"lane\":" << line.lane << ",\"bytes\":" << json_num(line.bytes)
       << ",\"messages\":" << json_num(line.messages)
       << ",\"exposed_wait_s\":" << json_num(line.exposed_wait_s) << '}';
  }
  os << "]}";

  os << ",\"memory\":{\"allocations\":" << json_num(r.memory.allocations)
     << ",\"bytes_allocated\":" << json_num(r.memory.bytes_allocated)
     << ",\"checkouts\":" << json_num(r.memory.checkouts) << ",\"pools\":{";
  first = true;
  for (const auto& [name, pool] : r.memory.pools) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":{\"highwater_bytes\":" << json_num(pool.highwater_bytes)
       << ",\"leases\":" << json_num(pool.leases) << '}';
  }
  os << "},\"lanes\":[";
  first = true;
  for (const auto& line : r.memory.lanes) {
    if (!first) os << ',';
    first = false;
    os << "{\"lane\":" << line.lane
       << ",\"highwater_bytes\":" << json_num(line.highwater_bytes) << '}';
  }
  os << "]}";

  os << ",\"convergence\":{\"iterations\":" << r.convergence.iterations
     << ",\"converged\":" << (r.convergence.converged ? "true" : "false")
     << ",\"residual_final\":" << json_num(r.convergence.residual_final) << ",\"series\":{";
  first = true;
  for (const auto& [name, values] : r.convergence.series) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) os << ',';
      os << json_num(values[i]);
    }
    os << ']';
  }
  os << "},\"health\":{\"fp32_drift_rms\":" << json_num(r.convergence.fp32_drift_rms)
     << ",\"trace_dropped\":" << r.convergence.trace_dropped << "}}";

  os << ",\"histograms\":{";
  first = true;
  for (const auto& [name, h] : r.histograms) {
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(name) << "\":";
    emit_histogram(os, h);
  }
  os << '}';

  os << ",\"profile\":";
  append_profile_json(os, r.histograms);

  os << ",\"counters\":";
  emit_scalar_map(os, r.counters);
  os << ",\"gauges\":";
  emit_scalar_map(os, r.gauges);

  os << ",\"flops\":{\"total\":" << json_num(r.flops_total) << ",\"steps\":";
  emit_scalar_map(os, r.flop_steps);
  os << "}}";
  return os.str();
}

bool write_run_report(const std::string& path, const RunReport& report) {
  std::ofstream f(path);
  if (!f) return false;
  f << run_report_json(report) << '\n';
  return static_cast<bool>(f);
}

bool parse_run_report(const std::string& text, RunReport& out) {
  JsonValue doc;
  if (!json_parse(text, doc) || !doc.is_object()) return false;
  const JsonValue* schema = doc.find("schema");
  if (!schema || schema->as_str() != "dftfe.runreport.v1") return false;

  out = RunReport{};
  if (const JsonValue* v = doc.find("label")) out.label = v->as_str();
  out.wall_s = num_at(doc, "wall_s");
  out.nlanes = int_at(doc, "nlanes");

  if (const JsonValue* spans = doc.find("spans"); spans && spans->is_array())
    for (const auto& s : spans->arr) {
      ReportSpan span;
      parse_span(s, span);
      out.spans.push_back(std::move(span));
    }

  if (const JsonValue* comm = doc.find("comm"); comm && comm->is_object()) {
    if (const JsonValue* wire = comm->find("wire"); wire && wire->is_object()) {
      if (const JsonValue* p = wire->find("fp64")) {
        out.comm.fp64.bytes = num_at(*p, "bytes");
        out.comm.fp64.messages = num_at(*p, "messages");
      }
      if (const JsonValue* p = wire->find("fp32")) {
        out.comm.fp32.bytes = num_at(*p, "bytes");
        out.comm.fp32.messages = num_at(*p, "messages");
      }
      if (const JsonValue* p = wire->find("bf16")) {
        out.comm.bf16.bytes = num_at(*p, "bytes");
        out.comm.bf16.messages = num_at(*p, "messages");
      }
    }
    if (const JsonValue* halo = comm->find("halo"); halo && halo->is_object()) {
      out.comm.exposed_wait_s = num_at(*halo, "exposed_wait_s");
      out.comm.modeled_s = num_at(*halo, "modeled_s");
      out.comm.pack_s = num_at(*halo, "pack_s");
    }
    out.comm.fp32_drift_rms = num_at(*comm, "fp32_drift_rms");
    out.comm.bf16_drift_rms = num_at(*comm, "bf16_drift_rms");
    out.comm.drift_budget_used = num_at(*comm, "drift_budget_used");
    if (const JsonValue* lanes = comm->find("lanes"); lanes && lanes->is_array())
      for (const auto& l : lanes->arr) {
        CommLedger::LaneLine line;
        line.lane = static_cast<int>(int_at(l, "lane"));
        line.bytes = num_at(l, "bytes");
        line.messages = num_at(l, "messages");
        line.exposed_wait_s = num_at(l, "exposed_wait_s");
        out.comm.lanes.push_back(line);
      }
  }

  if (const JsonValue* mem = doc.find("memory"); mem && mem->is_object()) {
    out.memory.allocations = num_at(*mem, "allocations");
    out.memory.bytes_allocated = num_at(*mem, "bytes_allocated");
    out.memory.checkouts = num_at(*mem, "checkouts");
    if (const JsonValue* pools = mem->find("pools"); pools && pools->is_object())
      for (const auto& [name, p] : pools->obj) {
        auto& pool = out.memory.pools[name];
        pool.highwater_bytes = num_at(p, "highwater_bytes");
        pool.leases = num_at(p, "leases");
      }
    if (const JsonValue* lanes = mem->find("lanes"); lanes && lanes->is_array())
      for (const auto& l : lanes->arr) {
        MemoryLedger::LaneLine line;
        line.lane = static_cast<int>(int_at(l, "lane"));
        line.highwater_bytes = num_at(l, "highwater_bytes");
        out.memory.lanes.push_back(line);
      }
  }

  if (const JsonValue* conv = doc.find("convergence"); conv && conv->is_object()) {
    out.convergence.iterations = int_at(*conv, "iterations");
    if (const JsonValue* c = conv->find("converged"))
      out.convergence.converged = c->kind == JsonValue::Kind::boolean && c->b;
    out.convergence.residual_final = num_at(*conv, "residual_final");
    if (const JsonValue* series = conv->find("series"); series && series->is_object())
      for (const auto& [name, arr] : series->obj) {
        auto& vec = out.convergence.series[name];
        for (const auto& x : arr.arr) vec.push_back(x.as_num());
      }
    if (const JsonValue* health = conv->find("health"); health && health->is_object()) {
      out.convergence.fp32_drift_rms = num_at(*health, "fp32_drift_rms");
      out.convergence.trace_dropped = int_at(*health, "trace_dropped");
    }
  }

  if (const JsonValue* hists = doc.find("histograms"); hists && hists->is_object())
    for (const auto& [name, h] : hists->obj) parse_histogram(h, out.histograms[name]);

  if (const JsonValue* counters = doc.find("counters"); counters && counters->is_object())
    for (const auto& [name, v] : counters->obj) out.counters[name] = v.as_num();
  if (const JsonValue* gauges = doc.find("gauges"); gauges && gauges->is_object())
    for (const auto& [name, v] : gauges->obj) out.gauges[name] = v.as_num();

  if (const JsonValue* flops = doc.find("flops"); flops && flops->is_object()) {
    out.flops_total = num_at(*flops, "total");
    if (const JsonValue* steps = flops->find("steps"); steps && steps->is_object())
      for (const auto& [name, v] : steps->obj) out.flop_steps[name] = v.as_num();
  }

  return true;
}

}  // namespace dftfe::obs
