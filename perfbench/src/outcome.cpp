#include "outcome.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

bool Tally::record(const SolveRecord& r) {
  ++attempted_;
  std::string why;
  if (r.threw) {
    why = "threw: " + r.error;
  } else if (!r.converged) {
    why = "did not converge";
  } else if (!std::isfinite(r.energy)) {
    why = "non-finite energy";
  } else if (r.reference && !(std::abs(r.energy - *r.reference) <= r.tolerance)) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "energy %.12f misses reference %.12f by %.3g (tol %.1g)",
                  r.energy, *r.reference, r.energy - *r.reference, r.tolerance);
    why = buf;
  }
  if (why.empty()) return true;
  ++failed_;
  problems_.push_back(r.name + ": " + why);
  return false;
}

void Tally::check(bool ok, const std::string& what) {
  if (ok) return;
  checks_ok_ = false;
  problems_.push_back("check failed: " + what);
}

std::string result_json(const Tally& t, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += t.correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(t.attempted());
  s += ", \"failed\": " + std::to_string(t.failed());
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    s += buf;
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
