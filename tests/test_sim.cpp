#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "rwa/approx_router.hpp"
#include "rwa/loadcost_router.hpp"
#include "rwa/node_disjoint_router.hpp"
#include "rwa/srlg.hpp"
#include "sim/simulator.hpp"
#include "support/telemetry.hpp"
#include "topology/network_builder.hpp"

namespace wdm::sim {
namespace {

net::WdmNetwork small_net(int W = 8) {
  return topo::nsfnet_network(W, 0.5);
}

SimOptions base_options(double erlang = 10.0, double duration = 50.0) {
  SimOptions opt;
  opt.traffic.arrival_rate = erlang;
  opt.traffic.mean_holding = 1.0;
  opt.duration = duration;
  opt.seed = 7;
  return opt;
}

TEST(Simulator, RunsAndBalancesReservations) {
  rwa::ApproxDisjointRouter router;
  Simulator sim(small_net(), router, base_options());
  const SimMetrics m = sim.run();
  EXPECT_GT(m.offered, 0);
  EXPECT_EQ(m.offered, m.accepted + m.blocked);
  EXPECT_EQ(m.final_reserved_wavelength_links, 0);
}

TEST(Simulator, DeterministicForSeed) {
  rwa::ApproxDisjointRouter router;
  Simulator a(small_net(), router, base_options());
  Simulator b(small_net(), router, base_options());
  const SimMetrics ma = a.run();
  const SimMetrics mb = b.run();
  EXPECT_EQ(ma.offered, mb.offered);
  EXPECT_EQ(ma.accepted, mb.accepted);
  EXPECT_DOUBLE_EQ(ma.network_load.mean(), mb.network_load.mean());
}

TEST(Simulator, DifferentSeedsDiffer) {
  rwa::ApproxDisjointRouter router;
  SimOptions o1 = base_options();
  SimOptions o2 = base_options();
  o2.seed = 99;
  Simulator a(small_net(), router, o1);
  Simulator b(small_net(), router, o2);
  EXPECT_NE(a.run().offered, b.run().offered);
}

TEST(Simulator, ArrivalCountMatchesPoissonRate) {
  rwa::ApproxDisjointRouter router;
  SimOptions opt = base_options(/*erlang=*/20.0, /*duration=*/100.0);
  Simulator sim(small_net(16), router, opt);
  const SimMetrics m = sim.run();
  // E[offered] = rate * duration = 2000; Poisson sd ~ 45.
  EXPECT_NEAR(static_cast<double>(m.offered), 2000.0, 200.0);
}

TEST(Simulator, BlockingIncreasesWithLoad) {
  rwa::ApproxDisjointRouter router;
  SimOptions light = base_options(2.0, 100.0);
  SimOptions heavy = base_options(80.0, 100.0);
  Simulator a(small_net(4), router, light);
  Simulator b(small_net(4), router, heavy);
  const double bp_light = a.run().blocking_probability();
  const double bp_heavy = b.run().blocking_probability();
  EXPECT_LT(bp_light, bp_heavy);
  EXPECT_GT(bp_heavy, 0.05);
}

TEST(Simulator, UnloadedNetworkAcceptsEverything) {
  rwa::ApproxDisjointRouter router;
  SimOptions opt = base_options(0.5, 50.0);
  Simulator sim(small_net(32), router, opt);
  const SimMetrics m = sim.run();
  EXPECT_EQ(m.blocked, 0);
}

TEST(Simulator, ActiveRestorationSurvivesFailures) {
  rwa::ApproxDisjointRouter router;
  SimOptions opt = base_options(10.0, 100.0);
  opt.failures.duplex_failure_rate = 0.02;
  opt.failures.mean_repair = 2.0;
  opt.restoration = RestorationMode::kActive;
  const topo::Topology t = topo::nsfnet();
  opt.reverse_of = t.reverse_of;
  Simulator sim(small_net(), router, opt);
  const SimMetrics m = sim.run();
  EXPECT_GT(m.primary_failures, 0) << "failure process never hit a primary";
  EXPECT_GT(m.recoveries_succeeded, 0);
  // Active restoration with pre-reserved backups succeeds overwhelmingly.
  EXPECT_GT(static_cast<double>(m.recoveries_succeeded) /
                static_cast<double>(m.recoveries_attempted),
            0.9);
  EXPECT_EQ(m.final_reserved_wavelength_links, 0);
}

TEST(Simulator, PassiveRestorationSlowerThanActive) {
  rwa::ApproxDisjointRouter router;
  SimOptions opt = base_options(10.0, 100.0);
  opt.failures.duplex_failure_rate = 0.02;
  const topo::Topology t = topo::nsfnet();
  opt.reverse_of = t.reverse_of;

  opt.restoration = RestorationMode::kActive;
  Simulator a(small_net(), router, opt);
  const SimMetrics ma = a.run();

  opt.restoration = RestorationMode::kPassive;
  Simulator p(small_net(), router, opt);
  const SimMetrics mp = p.run();

  ASSERT_GT(ma.recovery_delay.count(), 0);
  ASSERT_GT(mp.recovery_delay.count(), 0);
  // Raw per-recovery vectors stay empty unless explicitly requested.
  EXPECT_TRUE(ma.recovery_delays.empty());
  EXPECT_TRUE(mp.recovery_delays.empty());
  const double mean_active = ma.recovery_delay.mean();
  const double mean_passive = mp.recovery_delay.mean();
  EXPECT_LT(mean_active * 5, mean_passive);
}

TEST(Simulator, NoneModeDropsOnFailure) {
  rwa::ApproxDisjointRouter router;
  SimOptions opt = base_options(10.0, 100.0);
  opt.failures.duplex_failure_rate = 0.05;
  opt.restoration = RestorationMode::kNone;
  const topo::Topology t = topo::nsfnet();
  opt.reverse_of = t.reverse_of;
  Simulator sim(small_net(), router, opt);
  const SimMetrics m = sim.run();
  EXPECT_GT(m.primary_failures, 0);
  EXPECT_EQ(m.recoveries_attempted, 0);
  EXPECT_EQ(m.dropped_on_failure, m.primary_failures);
}

TEST(Simulator, ReconfigurationTriggersUnderPressure) {
  rwa::ApproxDisjointRouter router;
  SimOptions opt = base_options(40.0, 50.0);
  opt.reconfig.load_trigger = 0.6;
  opt.reconfig.min_interval = 1.0;
  Simulator sim(small_net(4), router, opt);
  const SimMetrics m = sim.run();
  EXPECT_GT(m.reconfigurations, 0);
  EXPECT_EQ(m.final_reserved_wavelength_links, 0);
}

TEST(Simulator, ReconfigurationDisabledByHighTrigger) {
  rwa::ApproxDisjointRouter router;
  SimOptions opt = base_options(40.0, 50.0);
  opt.reconfig.load_trigger = 2.0;  // ρ can never reach 2
  Simulator sim(small_net(4), router, opt);
  EXPECT_EQ(sim.run().reconfigurations, 0);
}

TEST(Simulator, LoadSeriesRecordedWhenRequested) {
  rwa::ApproxDisjointRouter router;
  Simulator sim(small_net(), router, base_options(5.0, 20.0));
  const SimMetrics m = sim.run();
  // ρ is sampled at every arrival.
  EXPECT_EQ(m.network_load.count(), static_cast<std::size_t>(m.offered));
  EXPECT_GE(m.network_load.min(), 0.0);
  EXPECT_LE(m.network_load.max(), 1.0);
}

TEST(Simulator, RouteCostStatsPopulated) {
  rwa::ApproxDisjointRouter router;
  Simulator sim(small_net(), router, base_options());
  const SimMetrics m = sim.run();
  EXPECT_EQ(m.route_cost.count(), static_cast<std::size_t>(m.accepted));
  EXPECT_GT(m.route_cost.mean(), 0.0);
}

TEST(Simulator, ThetaIterationsTrackedForLoadAwareRouter) {
  rwa::LoadCostRouter router;
  SimOptions opt = base_options(10.0, 20.0);
  Simulator sim(small_net(), router, opt);
  const SimMetrics m = sim.run();
  EXPECT_GT(m.theta_iterations.count(), 0u);
  EXPECT_GE(m.theta_iterations.mean(), 1.0);
}

/// NSFNET with the first `groups` fiber pairs annotated as shared conduits.
net::WdmNetwork srlg_net(int groups = 3) {
  net::WdmNetwork n = small_net();
  for (int g = 0; g < groups; ++g) {
    n.add_srlg({static_cast<graph::EdgeId>(2 * g),
                static_cast<graph::EdgeId>(2 * g + 1)},
               0.5);
  }
  return n;
}

TEST(SimulatorSrlg, CorrelatedFailuresFireAndBalance) {
  rwa::ApproxDisjointRouter router;
  SimOptions opt = base_options(10.0, 100.0);
  opt.failures.srlg_failure_rate = 0.3;
  opt.failures.mean_repair = 2.0;
  opt.restoration = RestorationMode::kActive;
  Simulator sim(srlg_net(), router, opt);
  const SimMetrics m = sim.run();
  EXPECT_GT(m.srlg_failures, 0) << "SRLG failure process never fired";
  EXPECT_EQ(m.final_reserved_wavelength_links, 0);
  EXPECT_GE(m.reliability(), 0.0);
  EXPECT_LE(m.reliability(), 1.0);
  EXPECT_GT(m.availability.count(), 0u);
}

TEST(SimulatorSrlg, DeterministicForSeed) {
  rwa::ApproxDisjointRouter router;
  SimOptions opt = base_options(10.0, 60.0);
  opt.failures.srlg_failure_rate = 0.2;
  Simulator a(srlg_net(), router, opt);
  Simulator b(srlg_net(), router, opt);
  const SimMetrics ma = a.run();
  const SimMetrics mb = b.run();
  EXPECT_EQ(ma.offered, mb.offered);
  EXPECT_EQ(ma.srlg_failures, mb.srlg_failures);
  EXPECT_DOUBLE_EQ(ma.service_requested, mb.service_requested);
  EXPECT_DOUBLE_EQ(ma.service_delivered, mb.service_delivered);
}

TEST(SimulatorSrlg, DisabledRateLeavesSimulationIdentical) {
  // srlg_failure_rate == 0 must not touch the RNG stream: a run on an
  // annotated network is bit-identical to the same run on the plain one.
  rwa::ApproxDisjointRouter router;
  const SimOptions opt = base_options(10.0, 60.0);
  Simulator plain(small_net(), router, opt);
  Simulator annotated(srlg_net(), router, opt);
  const SimMetrics mp = plain.run();
  const SimMetrics ma = annotated.run();
  EXPECT_EQ(mp.offered, ma.offered);
  EXPECT_EQ(mp.accepted, ma.accepted);
  EXPECT_EQ(mp.blocked, ma.blocked);
  EXPECT_EQ(ma.srlg_failures, 0);
  EXPECT_DOUBLE_EQ(mp.network_load.mean(), ma.network_load.mean());
  EXPECT_DOUBLE_EQ(mp.service_delivered, ma.service_delivered);
}

TEST(SimulatorSrlg, GroupFailureIsAtomic) {
  // Every fiber in one conduit: an SRLG event takes primary AND backup down
  // in the same instant, so the pre-reserved backup must never absorb the
  // switchover. A non-atomic implementation (fail one member, sweep, fail
  // the next) would count switchover recoveries here.
  rwa::ApproxDisjointRouter router;
  net::WdmNetwork n = small_net();
  std::vector<graph::EdgeId> all;
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) all.push_back(e);
  n.add_srlg(std::move(all), 1.0);

  SimOptions opt = base_options(10.0, 100.0);
  opt.failures.srlg_failure_rate = 0.1;
  opt.failures.mean_repair = 1.0;
  opt.restoration = RestorationMode::kActive;
  Simulator sim(std::move(n), router, opt);
  const SimMetrics m = sim.run();
  EXPECT_GT(m.srlg_failures, 0);
  EXPECT_GT(m.primary_failures, 0);
  EXPECT_EQ(m.switchover_recoveries, 0)
      << "backup sharing the primary's SRLG absorbed a switchover";
  EXPECT_EQ(m.recoveries_succeeded, 0);  // nothing survives a total blackout
  EXPECT_EQ(m.dropped_on_failure, m.primary_failures);
  EXPECT_EQ(m.final_reserved_wavelength_links, 0);
}

// Golden values of the §2 batch mode (rwa::provision_batch, arrival order)
// on fixed seeds. Any change to the batch accept rule, the RNG stream or the
// router's decisions moves them (tie rules included: they were re-recorded
// when Suurballe's round 1 began stopping at t, when Suurballe became
// goal-directed, and when the heap began popping equal keys in id order).
TEST(SimulatorSrlg, AvailabilityUnderBatchingMatchesGolden) {
  rwa::ApproxDisjointRouter router;
  SimOptions opt = base_options(10.0, 60.0);
  opt.failures.srlg_failure_rate = 0.2;
  opt.restoration = RestorationMode::kActive;
  opt.batching.interval = 0.5;
  Simulator sim(srlg_net(), router, opt);
  const SimMetrics m = sim.run();

  EXPECT_EQ(m.offered, 608);
  EXPECT_EQ(m.accepted, 606);
  EXPECT_EQ(m.blocked, 2);
  EXPECT_EQ(m.srlg_failures, 17);
  EXPECT_EQ(m.availability.count(), 606u);
  EXPECT_EQ(m.route_cost.mean(), 0x1.741e6a7498145p+2);     // 5.814356435643565
  EXPECT_EQ(m.network_load.mean(), 0x1.387878787878bp-1);  // 0.6102941176470592
  EXPECT_EQ(m.service_requested, 0x1.36cb27b557486p+9);    // 621.5871493030725
  EXPECT_EQ(m.service_delivered, 0x1.36c97db96fdbcp+9);    // 621.5741493030723
  EXPECT_EQ(m.reliability(), 0x1.fffd423c5c9aap-1);        // 0.9999790857967146
}

TEST(SimulatorBatch, BatchModeMatchesGolden) {
  SimOptions opt;
  opt.duration = 40.0;
  opt.seed = 5;
  opt.traffic.arrival_rate = 4.0;
  opt.traffic.mean_holding = 3.0;
  opt.batching.interval = 1.0;
  rwa::ApproxDisjointRouter router;
  Simulator sim(topo::nsfnet_network(4, 0.5), router, opt);
  const SimMetrics m = sim.run();

  EXPECT_EQ(m.offered, 157);
  EXPECT_EQ(m.accepted, 144);
  EXPECT_EQ(m.blocked, 13);  // contended enough to exercise the drop path
  EXPECT_EQ(m.route_cost.mean(), 0x1.86e38e38e38e2p+2);   // 6.107638888888888
  EXPECT_EQ(m.network_load.mean(), 0x1.fcccccccccccdp-1);  // 0.99375
}

TEST(SimulatorBatch, BatchModeBalancesLedger) {
  SimOptions opt;
  opt.duration = 30.0;
  opt.seed = 8;
  opt.traffic.arrival_rate = 5.0;
  opt.traffic.mean_holding = 2.0;
  opt.batching.interval = 0.5;
  opt.restoration = RestorationMode::kPassive;  // backups released
  rwa::ApproxDisjointRouter router;
  Simulator sim(topo::nsfnet_network(8, 0.5), router, opt);
  const SimMetrics m = sim.run();
  EXPECT_GT(m.offered, 0);
  EXPECT_EQ(m.offered, m.accepted + m.blocked);
  EXPECT_EQ(m.final_reserved_wavelength_links, 0);  // run() checks too
}

TEST(SimulatorSrlg, PerfectNetworkDeliversFullAvailability) {
  rwa::ApproxDisjointRouter router;
  SimOptions opt = base_options(5.0, 50.0);
  Simulator sim(srlg_net(), router, opt);
  const SimMetrics m = sim.run();
  ASSERT_GT(m.availability.count(), 0u);
  EXPECT_DOUBLE_EQ(m.reliability(), 1.0);
  EXPECT_DOUBLE_EQ(m.availability.mean(), 1.0);
}

TEST(SimulatorSrlg, FailuresDegradeAvailability) {
  rwa::ApproxDisjointRouter router;
  SimOptions opt = base_options(10.0, 100.0);
  opt.restoration = RestorationMode::kNone;  // drops forfeit holding time
  opt.failures.srlg_failure_rate = 0.3;
  opt.failures.mean_repair = 2.0;
  Simulator sim(srlg_net(), router, opt);
  const SimMetrics m = sim.run();
  ASSERT_GT(m.srlg_failures, 0);
  if (m.dropped_on_failure > 0) {
    EXPECT_LT(m.reliability(), 1.0);
  }
  EXPECT_GT(m.reliability(), 0.0);
}

// Every blocked request counts under exactly one rwa::BlockedBy cause, in
// SimMetrics and in the sim.blocked_by.<cause> counters, and the paper's
// routers attribute every one of theirs.
TEST(BlockedCause, CausesSumToBlocked) {
  namespace tel = support::telemetry;
  const rwa::ApproxDisjointRouter approx;
  const rwa::LoadCostRouter loadcost;
  const rwa::NodeDisjointRouter node_disjoint;
  const rwa::Router* routers[] = {&approx, &loadcost, &node_disjoint};
  for (const rwa::Router* router : routers) {
    tel::reset();
    tel::set_enabled(true);
    Simulator sim(small_net(4), *router, base_options(40.0, 30.0));
    const SimMetrics m = sim.run();
    tel::set_enabled(false);
    ASSERT_GT(m.blocked, 0) << router->name();
    EXPECT_EQ(std::accumulate(m.blocked_by.begin(), m.blocked_by.end(), 0L),
              m.blocked)
        << router->name();
    EXPECT_EQ(m.blocked_by[static_cast<std::size_t>(rwa::BlockedBy::kNone)],
              0)
        << router->name();
    if (!tel::compiled_in()) continue;
    std::uint64_t counted = 0;
    for (int c = 0; c < rwa::kNumBlockedCauses; ++c) {
      const std::uint64_t k =
          tel::counter(std::string("sim.blocked_by.") +
                       rwa::blocked_by_name(static_cast<rwa::BlockedBy>(c)))
              .value();
      EXPECT_EQ(k, static_cast<std::uint64_t>(
                       m.blocked_by[static_cast<std::size_t>(c)]))
          << router->name() << " cause " << c;
      counted += k;
    }
    EXPECT_EQ(counted, tel::counter("sim.blocked").value()) << router->name();
  }
  tel::reset();
}

// On a path graph no two link-disjoint routes exist: each stage names the
// exit it blocked at.
TEST(BlockedCause, RoutersNameTheirExit) {
  net::WdmNetwork line(3, 4);
  for (net::NodeId v = 0; v < 3; ++v) {
    line.set_conversion(v, net::ConversionTable::full(4, 0.5));
  }
  line.add_duplex(0, 1, net::WavelengthSet::all(4), 1.0);
  line.add_duplex(1, 2, net::WavelengthSet::all(4), 1.0);
  line.add_srlg({0}, 0.5);

  const rwa::RouteResult a = rwa::ApproxDisjointRouter().route(line, 0, 2);
  EXPECT_FALSE(a.found);
  EXPECT_EQ(a.blocked_by, rwa::BlockedBy::kNoAuxPair);
  const rwa::RouteResult l = rwa::LoadCostRouter().route(line, 0, 2);
  EXPECT_FALSE(l.found);
  EXPECT_EQ(l.blocked_by, rwa::BlockedBy::kThetaExhausted);
  // Link 0 (0 -> 1) is risky at threshold 0.1 and the only way out of 0.
  const rwa::RouteResult p = rwa::route_partial(line, 0, 2, 0.1);
  EXPECT_FALSE(p.found);
  EXPECT_EQ(p.blocked_by, rwa::BlockedBy::kPartialClosure);
  const rwa::RouteResult ok = rwa::route_partial(line, 0, 2, 0.9);
  EXPECT_TRUE(ok.found);
  EXPECT_EQ(ok.blocked_by, rwa::BlockedBy::kNone);
}

}  // namespace
}  // namespace wdm::sim
