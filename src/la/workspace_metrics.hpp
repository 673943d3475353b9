#pragma once

// Bridge from the workspace memory layer to the observability registry: one
// call publishes the WorkspaceCounters totals and the global pool high-water
// marks / lease counts as gauges under the RunReport memory-ledger
// vocabulary (mem.workspace.*, mem.pool.<name>.*).
//
// Kept out of workspace.hpp so the allocation layer does not pull in the
// registry; it is called at report-emission points (core, bench, examples,
// tests) — everything here is inline and instantiated at the call site.

#include <complex>

#include "la/workspace.hpp"
#include "obs/context.hpp"

namespace dftfe::la {

template <class T>
inline void publish_pool_metrics(const char* name, const Workspace<T>& pool,
                                 obs::MetricsRegistry& metrics) {
  const std::string prefix = std::string("mem.pool.") + name;
  metrics.gauge_set(prefix + ".highwater_bytes",
                    static_cast<double>(pool.highwater_bytes()));
  metrics.gauge_set(prefix + ".leases", static_cast<double>(pool.leases()));
}

/// Snapshot the workspace layer into the current context's gauges. Call at
/// report-emission points (end of a simulation or bench), not on the hot path.
inline void publish_workspace_metrics() {
  obs::MetricsRegistry& metrics = obs::Context::current().metrics();
  metrics.gauge_set("mem.workspace.allocations",
                    static_cast<double>(WorkspaceCounters::allocations()));
  metrics.gauge_set("mem.workspace.bytes_allocated",
                    static_cast<double>(WorkspaceCounters::bytes_allocated()));
  metrics.gauge_set("mem.workspace.checkouts",
                    static_cast<double>(WorkspaceCounters::checkouts()));
  publish_pool_metrics("fp64", Workspace<double>::global(), metrics);
  publish_pool_metrics("fp32", Workspace<float>::global(), metrics);
  publish_pool_metrics("z128", Workspace<std::complex<double>>::global(), metrics);
}

}  // namespace dftfe::la
