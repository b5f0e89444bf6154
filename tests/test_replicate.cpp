#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "rwa/approx_router.hpp"
#include "sim/replicate.hpp"
#include "support/telemetry.hpp"
#include "topology/network_builder.hpp"

namespace wdm::sim {
namespace {

SimOptions fast_options() {
  SimOptions opt;
  opt.traffic.arrival_rate = 20.0;
  opt.traffic.mean_holding = 1.0;
  opt.duration = 20.0;
  opt.seed = 100;
  return opt;
}

TEST(Replicate, AggregatesAcrossSeeds) {
  rwa::ApproxDisjointRouter router;
  const net::WdmNetwork base = topo::nsfnet_network(4, 0.5);
  const ReplicationSummary s = replicate(base, router, fast_options(), 8);
  EXPECT_EQ(s.replicas, 8);
  EXPECT_GT(s.blocking.mean, 0.0);
  EXPECT_GT(s.blocking.ci95, 0.0);  // seeds differ, so there is variance
  EXPECT_LE(s.blocking.min, s.blocking.mean);
  EXPECT_GE(s.blocking.max, s.blocking.mean);
  EXPECT_GT(s.route_cost.mean, 0.0);
}

TEST(Replicate, SingleReplicaHasNoInterval) {
  rwa::ApproxDisjointRouter router;
  const net::WdmNetwork base = topo::nsfnet_network(4, 0.5);
  const ReplicationSummary s = replicate(base, router, fast_options(), 1);
  EXPECT_EQ(s.replicas, 1);
  EXPECT_DOUBLE_EQ(s.blocking.ci95, 0.0);
}

TEST(Replicate, DeterministicGivenBaseSeed) {
  rwa::ApproxDisjointRouter router;
  const net::WdmNetwork base = topo::nsfnet_network(4, 0.5);
  const ReplicationSummary a = replicate(base, router, fast_options(), 4);
  const ReplicationSummary b = replicate(base, router, fast_options(), 4);
  EXPECT_DOUBLE_EQ(a.blocking.mean, b.blocking.mean);
  EXPECT_DOUBLE_EQ(a.mean_network_load.mean, b.mean_network_load.mean);
}

TEST(Replicate, IntervalShrinksWithMoreReplicas) {
  rwa::ApproxDisjointRouter router;
  const net::WdmNetwork base = topo::nsfnet_network(4, 0.5);
  const ReplicationSummary few = replicate(base, router, fast_options(), 6);
  const ReplicationSummary many = replicate(base, router, fast_options(), 24);
  // Not guaranteed sample-by-sample, but with 4x the replicas the interval
  // should not grow substantially. (The lower count is 6, not 2–3: a
  // 2-dof variance estimate can land freakishly small and make any honest
  // larger sample look "worse".)
  EXPECT_LT(many.blocking.ci95, few.blocking.ci95 * 2.0 + 1e-12);
}

TEST(Replicate, RecoverySummaryWithFailures) {
  rwa::ApproxDisjointRouter router;
  const topo::Topology t = topo::nsfnet();
  const net::WdmNetwork base = topo::nsfnet_network(8, 0.5);
  SimOptions opt = fast_options();
  opt.duration = 80.0;
  opt.failures.duplex_failure_rate = 0.03;
  opt.reverse_of = t.reverse_of;
  const ReplicationSummary s = replicate(base, router, opt, 4);
  EXPECT_GT(s.recovery_success.mean, 0.5);
  EXPECT_LE(s.recovery_success.max, 1.0);
}

TEST(Replicate, RejectsZeroReplicas) {
  rwa::ApproxDisjointRouter router;
  const net::WdmNetwork base = topo::nsfnet_network(4, 0.5);
  EXPECT_THROW(replicate(base, router, fast_options(), 0), std::logic_error);
}

// Runs replicate() with telemetry on and series sampling requested, and
// returns the number of points recorded per sim.series.* / rwa.series.*
// series plus the sim.offered counter.
struct SeriesCapture {
  std::map<std::string, std::size_t> points;
  std::uint64_t offered = 0;
};

SeriesCapture capture_series(int replicas) {
  namespace tel = support::telemetry;
  tel::reset();
  tel::set_enabled(true);
  rwa::ApproxDisjointRouter router;
  SimOptions opt = fast_options();
  opt.series_interval = 0.5;
  (void)replicate(topo::nsfnet_network(4, 0.5), router, opt, replicas);
  const auto series = tel::series_values();
  const auto counters = tel::counter_values();
  tel::set_enabled(false);
  tel::reset();
  SeriesCapture out;
  for (const auto& [name, points] : series) {
    if (name.rfind("sim.series.", 0) == 0 || name.rfind("rwa.series.", 0) == 0) {
      out.points[name] = points.size();
    }
  }
  if (counters.count("sim.offered")) out.offered = counters.at("sim.offered");
  return out;
}

// Replicas run concurrently into the one process-wide registry, so a
// series sampled by several of them would go backwards in time. With more
// than one replica, replicate() turns sampling off per replica, even when
// the caller asked for it; the counters still aggregate.
TEST(Replicate, RecordsNoTelemetrySeries) {
  if (!support::telemetry::compiled_in()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const SeriesCapture c = capture_series(3);
  for (const auto& [name, n] : c.points) {
    EXPECT_EQ(n, 0u) << name << " has " << n << " points";
  }
  EXPECT_GT(c.offered, 0u);
}

// One replica has a single sim-time clock, so it keeps the caller's
// series_interval (wdmtool simulate at --replicas 1 relies on this).
TEST(Replicate, SingleReplicaKeepsTelemetrySeries) {
  if (!support::telemetry::compiled_in()) {
    GTEST_SKIP() << "telemetry compiled out";
  }
  const SeriesCapture c = capture_series(1);
  ASSERT_TRUE(c.points.count("sim.series.offered"));
  EXPECT_GT(c.points.at("sim.series.offered"), 0u);
  EXPECT_GT(c.offered, 0u);
}

}  // namespace
}  // namespace wdm::sim
