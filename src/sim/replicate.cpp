#include "sim/replicate.hpp"

#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"

namespace wdm::sim {

namespace {

MetricSummary summarize(const support::RunningStats& s) {
  MetricSummary m;
  m.mean = s.mean();
  m.ci95 = support::ci95_halfwidth(s);
  m.min = s.min();
  m.max = s.max();
  return m;
}

}  // namespace

ReplicationSummary replicate(const net::WdmNetwork& base_network,
                             const rwa::Router& router, SimOptions options,
                             int replicas) {
  WDM_CHECK(replicas >= 1);
  std::vector<SimMetrics> results(static_cast<std::size_t>(replicas));
  // Concurrent replicas would interleave their sim-time clocks in the
  // process-wide telemetry series (see replicate.hpp).
  if (replicas > 1) options.series_interval = -1.0;
  support::parallel_for(static_cast<std::size_t>(replicas), [&](std::size_t i) {
    SimOptions opt = options;
    opt.seed = options.seed + i;
    Simulator sim(base_network, router, std::move(opt));
    results[i] = sim.run();
  });

  support::RunningStats blocking, load, peak, reconf, cost, recovery, avail;
  ReplicationSummary out;
  for (const SimMetrics& m : results) {
    for (std::size_t c = 0; c < out.blocked_by.size(); ++c) {
      out.blocked_by[c] += m.blocked_by[c];
    }
    blocking.add(m.blocking_probability());
    avail.add(m.reliability());
    load.add(m.network_load.mean());
    peak.add(m.peak_load);
    reconf.add(static_cast<double>(m.reconfigurations));
    cost.add(m.route_cost.mean());
    if (m.recoveries_attempted > 0) {
      recovery.add(static_cast<double>(m.recoveries_succeeded) /
                   static_cast<double>(m.recoveries_attempted));
    }
  }
  out.replicas = replicas;
  out.blocking = summarize(blocking);
  out.mean_network_load = summarize(load);
  out.peak_load = summarize(peak);
  out.reconfigurations = summarize(reconf);
  out.route_cost = summarize(cost);
  out.recovery_success = summarize(recovery);
  out.availability = summarize(avail);
  return out;
}

}  // namespace wdm::sim
