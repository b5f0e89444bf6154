#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "rwa/approx_router.hpp"
#include "rwa/baselines.hpp"
#include "rwa/exact_router.hpp"
#include "rwa/loadcost_router.hpp"
#include "rwa/mincog.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "test_util.hpp"
#include "topology/network_builder.hpp"

namespace wdm::rwa {
namespace {

net::WdmNetwork square_net(int W = 2, double conv = 0.5) {
  net::WdmNetwork n(4, W);
  for (net::NodeId v = 0; v < 4; ++v) {
    n.set_conversion(v, net::ConversionTable::full(W, conv));
  }
  n.add_link(0, 1, net::WavelengthSet::all(W), 1.0);
  n.add_link(1, 3, net::WavelengthSet::all(W), 1.0);
  n.add_link(0, 2, net::WavelengthSet::all(W), 1.0);
  n.add_link(2, 3, net::WavelengthSet::all(W), 1.0);
  return n;
}

TEST(ApproxRouter, FindsDisjointPairOnSquare) {
  const net::WdmNetwork n = square_net();
  const RouteResult r = ApproxDisjointRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.route.feasible(n));
  EXPECT_TRUE(net::edge_disjoint(r.route.primary, r.route.backup));
  EXPECT_DOUBLE_EQ(r.total_cost(n), 4.0);
}

TEST(ApproxRouter, BlocksWhenNoPairExists) {
  net::WdmNetwork n(3, 2);
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(2), 1.0);
  EXPECT_FALSE(ApproxDisjointRouter().route(n, 0, 2).found);
}

TEST(ApproxRouter, UsesResidualAvailability) {
  net::WdmNetwork n = square_net(2);
  // Exhaust one side: pair impossible.
  n.reserve(0, 0);
  n.reserve(0, 1);
  EXPECT_FALSE(ApproxDisjointRouter().route(n, 0, 3).found);
}

TEST(ApproxRouter, PrimaryIsCheaperPath) {
  net::WdmNetwork n(4, 2);
  for (net::NodeId v = 0; v < 4; ++v) {
    n.set_conversion(v, net::ConversionTable::full(2, 0.0));
  }
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.add_link(1, 3, net::WavelengthSet::all(2), 1.0);
  n.add_link(0, 2, net::WavelengthSet::all(2), 5.0);
  n.add_link(2, 3, net::WavelengthSet::all(2), 5.0);
  const RouteResult r = ApproxDisjointRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_LE(r.route.primary.cost(n), r.route.backup.cost(n));
  EXPECT_DOUBLE_EQ(r.route.primary.cost(n), 2.0);
}

TEST(ApproxRouter, AuxCostUpperBoundsDeliveredCost) {
  // Lemma 2: C(P'_1) + C(P'_2) <= ω(P_1) + ω(P_2).
  net::WdmNetwork n = test::random_network(8, 8, 3, 7);
  const RouteResult r = ApproxDisjointRouter().route(n, 0, 7);
  if (r.found) {
    EXPECT_LE(r.total_cost(n), r.aux_cost + 1e-9);
  }
}

TEST(MinCog, UnloadedNetworkAcceptsThetaMin) {
  const net::WdmNetwork n = square_net();
  const MinCogResult mc = find_two_paths_mincog(n, 0, 3);
  ASSERT_TRUE(mc.found);
  EXPECT_DOUBLE_EQ(mc.theta, n.theta_min());
  EXPECT_EQ(mc.iterations, 1);
}

TEST(MinCog, RaisesThetaUnderLoad) {
  net::WdmNetwork n = square_net(4);
  // Load the upper route heavily: link 0 gets 3/4 used.
  n.reserve(0, 0);
  n.reserve(0, 1);
  n.reserve(0, 2);
  const MinCogResult mc = find_two_paths_mincog(n, 0, 3);
  ASSERT_TRUE(mc.found);
  // A pair must use link 0 (load .75), so ϑ must exceed .75.
  EXPECT_GT(mc.theta, 0.75);
  EXPECT_GT(mc.iterations, 1);
}

TEST(MinCog, DropsWhenNoPairAtThetaMax) {
  net::WdmNetwork n(3, 2);
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(2), 1.0);
  const MinCogResult mc = find_two_paths_mincog(n, 0, 2);
  EXPECT_FALSE(mc.found);
}

TEST(MinCog, ExactThresholdOracleAgreesOnFeasibility) {
  net::WdmNetwork n = square_net(4);
  n.reserve(0, 0);
  double exact = 0.0;
  ASSERT_TRUE(exact_min_threshold(n, 0, 3, &exact));
  const MinCogResult mc = find_two_paths_mincog(n, 0, 3);
  ASSERT_TRUE(mc.found);
  // Strict filter: feasible ϑ are exactly those > L*, so the accepted ϑ
  // strictly dominates the exact minimum bottleneck load.
  EXPECT_GT(mc.theta, exact);
}

TEST(MinCog, ExactOracleIsBottleneckLoad) {
  net::WdmNetwork n = square_net(4);
  // Load both disjoint routes differently: upper 2/4, lower 1/4.
  n.reserve(0, 0);
  n.reserve(0, 1);
  n.reserve(2, 0);
  double exact = 0.0;
  ASSERT_TRUE(exact_min_threshold(n, 0, 3, &exact));
  // Any pair must use links 0 (load .5) and 2 (load .25): L* = 0.5.
  EXPECT_DOUBLE_EQ(exact, 0.5);
}

// Without conversion, wavelength continuity can block a route the physical
// graph offers. Three routes 0 -> 3 over W = 4: the lower (0-2-3) is idle;
// the upper (0-1-3) is half loaded, with {λ0, λ1} free into node 1 and
// {λ2, λ3} free out of it, so no lightpath crosses node 1; the side route
// (0-4-3) is 3/4 loaded with λ3 free end to end. The doubling ladder probes
// ϑ = 0.25 (lower route only: no link-disjoint pair), 0.625 (lower and
// upper: the physical check passes, but the G_c arena has no pair, so the
// confirm misses) and 1.0 (lower and side: accepted).
TEST(MinCog, ContinuityBlockedRungIsAConfirmMissAndTheLadderAdvances) {
  namespace tel = support::telemetry;
  net::WdmNetwork n(5, 4);
  const net::WavelengthSet all = net::WavelengthSet::all(4);
  const net::EdgeId up_in = n.add_link(0, 1, all, 1.0);
  const net::EdgeId up_out = n.add_link(1, 3, all, 1.0);
  const net::EdgeId low_in = n.add_link(0, 2, all, 1.0);
  const net::EdgeId low_out = n.add_link(2, 3, all, 1.0);
  const net::EdgeId side_in = n.add_link(0, 4, all, 1.0);
  const net::EdgeId side_out = n.add_link(4, 3, all, 1.0);
  n.reserve(up_in, 2);
  n.reserve(up_in, 3);
  n.reserve(up_out, 0);
  n.reserve(up_out, 1);
  for (const net::Wavelength l : {0, 1, 2}) {
    n.reserve(side_in, l);
    n.reserve(side_out, l);
  }
  ASSERT_EQ(n.theta_min(), 0.25);
  ASSERT_EQ(n.theta_max(), 1.0);

  tel::reset();
  tel::set_enabled(true);
  AuxGraphBuilder builder;
  graph::DisjointPair pair;
  const MinCogResult mc =
      find_two_paths_mincog(n, 0, 3, {}, &builder, nullptr, &pair);
  tel::set_enabled(false);
  ASSERT_TRUE(mc.found);
  EXPECT_EQ(mc.theta, 1.0);
  EXPECT_EQ(mc.iterations, 3);
  EXPECT_EQ(mc.last_infeasible_theta, 0.625);
  EXPECT_EQ(mc.confirms, 2);  // the miss at 0.625 and the hit at 1.0
  EXPECT_EQ(mc.confirm_misses, 1);
  ASSERT_TRUE(pair.found);
  std::vector<graph::EdgeId> links = builder.last().project(pair.first);
  for (graph::EdgeId e : builder.last().project(pair.second)) {
    links.push_back(e);
  }
  std::sort(links.begin(), links.end());
  EXPECT_EQ(links, (std::vector<graph::EdgeId>{low_in, low_out, side_in,
                                               side_out}));
  if (tel::compiled_in()) {
    auto counters = tel::counter_values();
    EXPECT_EQ(counters["rwa.mincog.probes"], 3u);
    EXPECT_EQ(counters["rwa.mincog.confirm_misses"], 1u);
    // One suurballe sample per confirm, one theta_search sample for the
    // search work before each.
    EXPECT_EQ(tel::histogram("rwa.mincog.suurballe_ns").count(), 2u);
    EXPECT_EQ(tel::histogram("rwa.mincog.theta_search_ns").count(), 2u);
    EXPECT_EQ(tel::histogram("rwa.mincog.pair_check_ns").count(), 3u);
  }
  tel::reset();

  // The router climbs the same ladder, realizes the confirmed pair over the
  // lower and side routes and runs no Suurballe of its own.
  tel::set_enabled(true);
  const RouteResult r = MinLoadRouter().route(n, 0, 3);
  tel::set_enabled(false);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.theta, 1.0);
  EXPECT_EQ(r.theta_iterations, 3);
  if (tel::compiled_in()) {
    EXPECT_EQ(tel::histogram("rwa.minload.suurballe_ns").count(), 2u);
    EXPECT_EQ(tel::histogram("rwa.minload.theta_search_ns").count(), 2u);
    EXPECT_EQ(tel::histogram("rwa.minload.liang_shen_ns").count(), 1u);
    EXPECT_EQ(tel::counter_values()["rwa.mincog.confirm_misses"], 1u);
  }
  tel::reset();
}

class MinCogRatioTest : public ::testing::TestWithParam<int> {};

TEST_P(MinCogRatioTest, Theorem3RatioBelow3) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  net::WdmNetwork n = test::random_network(8, 10, 4, seed * 71 + 11);
  support::Rng rng(seed + 1000);
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
    n.available(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(0.4)) n.reserve(e, l);
    });
  }
  const net::NodeId s = 0, t = 7;
  double exact = 0.0;
  const bool exact_ok = exact_min_threshold(n, s, t, &exact);
  const MinCogResult mc = find_two_paths_mincog(n, s, t);
  ASSERT_EQ(mc.found, exact_ok);
  if (mc.found) {
    // Soundness: the accepted ϑ strictly exceeds the exact bottleneck L*.
    EXPECT_GT(mc.theta, exact);
    if (mc.iterations > 1) {
      ASSERT_FALSE(std::isnan(mc.last_infeasible_theta));
      // An infeasible probe never exceeds the exact bottleneck.
      EXPECT_LE(mc.last_infeasible_theta, exact + 1e-12);
      // Theorem 3's telescoping argument: from the second increment on, the
      // accepted ϑ overshoots the last infeasible probe (itself a lower
      // bound on every feasible ϑ) by < 3x. The very first increment can be
      // coarser — the paper's proof assumes ϑ* clears the penultimate probe.
      if (mc.iterations > 2) {
        EXPECT_LT(mc.theta / mc.last_infeasible_theta, 3.0 + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLoadedNetworks, MinCogRatioTest,
                         ::testing::Range(0, 20));

TEST(MinLoadRouter, DeliversFeasibleDisjointPair) {
  net::WdmNetwork n = square_net(4);
  n.reserve(0, 0);
  const RouteResult r = MinLoadRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.route.feasible(n));
  EXPECT_GT(r.theta_iterations, 0);
}

TEST(LoadCostRouter, DeliversFeasibleDisjointPair) {
  net::WdmNetwork n = square_net(4);
  n.reserve(2, 0);
  const RouteResult r = LoadCostRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.route.feasible(n));
}

TEST(LoadCostRouter, AvoidsLoadedLinksWhenAlternativesExist) {
  // 5-node network: two short routes and one long detour. Load one short
  // route; the load-aware router must route around it, the cost-only router
  // will still use it.
  net::WdmNetwork n(5, 4);
  for (net::NodeId v = 0; v < 5; ++v) {
    n.set_conversion(v, net::ConversionTable::full(4, 0.0));
  }
  const auto all = net::WavelengthSet::all(4);
  n.add_link(0, 1, all, 1.0);   // e0 upper
  n.add_link(1, 4, all, 1.0);   // e1 upper
  n.add_link(0, 2, all, 1.0);   // e2 middle
  n.add_link(2, 4, all, 1.0);   // e3 middle
  n.add_link(0, 3, all, 10.0);  // e4 detour
  n.add_link(3, 4, all, 10.0);  // e5 detour
  // Load the upper route to 3/4.
  for (net::Wavelength l = 0; l < 3; ++l) {
    n.reserve(0, l);
    n.reserve(1, l);
  }
  const RouteResult cost_only = ApproxDisjointRouter().route(n, 0, 4);
  ASSERT_TRUE(cost_only.found);
  // Cost-only: cheapest pair uses the loaded upper route (cost 4 total).
  EXPECT_DOUBLE_EQ(cost_only.total_cost(n), 4.0);

  const RouteResult load_aware = LoadCostRouter().route(n, 0, 4);
  ASSERT_TRUE(load_aware.found);
  // Load-aware: ϑ search settles below 3/4, excluding the hot links.
  EXPECT_LE(load_aware.theta, 0.75);
  for (const net::Hop& h : load_aware.route.primary.hops) {
    EXPECT_NE(h.edge, 0);
    EXPECT_NE(h.edge, 1);
  }
  for (const net::Hop& h : load_aware.route.backup.hops) {
    EXPECT_NE(h.edge, 0);
    EXPECT_NE(h.edge, 1);
  }
}

TEST(UnprotectedRouter, SinglePathNoBackup) {
  const net::WdmNetwork n = square_net();
  const RouteResult r = UnprotectedRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.route.primary.fits_residual(n));
  EXPECT_FALSE(r.route.backup.found);
}

TEST(FirstFitAssign, KeepsWavelengthContinuity) {
  net::WdmNetwork n(3, 3);
  n.set_conversion(1, net::ConversionTable::full(3, 0.5));
  n.add_link(0, 1, net::WavelengthSet::all(3), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(3), 1.0);
  const net::Semilightpath p =
      assign_wavelengths(n, {0, 1}, WaPolicy::kFirstFit);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.hops[0].lambda, 0);
  EXPECT_EQ(p.hops[1].lambda, 0);  // continuity preferred
  EXPECT_EQ(p.conversions(n), 0);
}

TEST(FirstFitAssign, ConvertsWhenForced) {
  net::WdmNetwork n(3, 2);
  n.set_conversion(1, net::ConversionTable::full(2, 0.5));
  net::WavelengthSet only0, only1;
  only0.insert(0);
  only1.insert(1);
  n.add_link(0, 1, only0, 1.0);
  n.add_link(1, 2, only1, 1.0);  // continuity impossible: conversion forced
  const net::Semilightpath p =
      assign_wavelengths(n, {0, 1}, WaPolicy::kFirstFit);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.hops[0].lambda, 0);
  EXPECT_EQ(p.hops[1].lambda, 1);
  EXPECT_EQ(p.conversions(n), 1);
}

TEST(FirstFitAssign, BlocksWithoutConversion) {
  net::WdmNetwork n(3, 2);  // no conversion at node 1
  net::WavelengthSet only0, only1;
  only0.insert(0);
  only1.insert(1);
  n.add_link(0, 1, only0, 1.0);
  n.add_link(1, 2, only1, 1.0);  // empty intersection, no converter: blocked
  const net::Semilightpath p =
      assign_wavelengths(n, {0, 1}, WaPolicy::kFirstFit);
  EXPECT_FALSE(p.found);
}

TEST(PhysicalFirstFitRouter, WorksOnCleanNetwork) {
  const net::WdmNetwork n = square_net();
  const RouteResult r = PhysicalFirstFitRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.route.feasible(n));
}

TEST(TwoStepRouter, WorksOnSquare) {
  const net::WdmNetwork n = square_net();
  const RouteResult r = TwoStepRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.route.feasible(n));
}

TEST(TwoStepRouter, FailsOnTrapWhereApproxSucceeds) {
  // WDM version of the Suurballe trap.
  net::WdmNetwork n(4, 2);
  for (net::NodeId v = 0; v < 4; ++v) {
    n.set_conversion(v, net::ConversionTable::full(2, 0.0));
  }
  const auto all = net::WavelengthSet::all(2);
  n.add_link(0, 1, all, 1.0);
  n.add_link(1, 2, all, 0.1);
  n.add_link(2, 3, all, 1.0);
  n.add_link(1, 3, all, 3.0);
  n.add_link(0, 2, all, 3.0);
  EXPECT_FALSE(TwoStepRouter().route(n, 0, 3).found);
  const RouteResult r = ApproxDisjointRouter().route(n, 0, 3);
  ASSERT_TRUE(r.found);
  EXPECT_DOUBLE_EQ(r.total_cost(n), 8.0);
}

TEST(RouterNames, AreDistinct) {
  EXPECT_NE(ApproxDisjointRouter().name(), MinLoadRouter().name());
  EXPECT_NE(MinLoadRouter().name(), LoadCostRouter().name());
  EXPECT_NE(UnprotectedRouter().name(), TwoStepRouter().name());
}

}  // namespace
}  // namespace wdm::rwa
