// Replicated simulation runs with confidence intervals.
//
// A single simulation run is one sample; credible comparisons need
// replicas with independent seeds. Replicas are embarrassingly parallel
// and run through support::parallel_for (OpenMP when available).
#pragma once

#include <array>
#include <vector>

#include "sim/simulator.hpp"

namespace wdm::sim {

struct MetricSummary {
  double mean = 0.0;
  double ci95 = 0.0;  // normal-approximation half width
  double min = 0.0;
  double max = 0.0;
};

struct ReplicationSummary {
  int replicas = 0;
  MetricSummary blocking;
  MetricSummary mean_network_load;
  MetricSummary peak_load;
  MetricSummary reconfigurations;
  MetricSummary route_cost;
  MetricSummary recovery_success;  // 0 when no failures were injected
  MetricSummary availability;      // per-run reliability() aggregate
  /// Blocked requests per rwa::BlockedBy cause, summed over the replicas.
  std::array<long, rwa::kNumBlockedCauses> blocked_by{};
};

/// Runs `replicas` independent simulations (seeds opts.seed, opts.seed+1,
/// ...) against copies of `base_network` and aggregates the headline
/// metrics. The router must be safe for concurrent route() calls (all
/// in-tree routers are: the aux-graph routers lease a per-call RouteScratch
/// from a thread-safe RouteScratchPool; the rest hold no mutable state).
/// With more than one replica, telemetry time-series sampling is off in
/// every replica (SimOptions::series_interval is forced to -1): replicas run
/// concurrently into the one process-wide registry, and their interleaved
/// sim-time clocks would make the `sim.series.*` / `rwa.series.*` sample
/// times go backwards. Counters and histograms are still recorded.
/// A single replica keeps the caller's series_interval.
ReplicationSummary replicate(const net::WdmNetwork& base_network,
                             const rwa::Router& router, SimOptions options,
                             int replicas);

}  // namespace wdm::sim
