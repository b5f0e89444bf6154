// Tests for the ablation knobs: ϑ search strategies, the G_rc weight
// normalization switch, the refinement toggle, and the simulator's backup
// reprovisioning.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/suurballe.hpp"
#include "rwa/approx_router.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/layered_graph.hpp"
#include "rwa/loadcost_router.hpp"
#include "rwa/mincog.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "theta_oracle.hpp"
#include "topology/network_builder.hpp"

namespace wdm::rwa {
namespace {

net::WdmNetwork loaded_net(std::uint64_t seed, double occupancy = 0.5) {
  net::WdmNetwork n = topo::nsfnet_network(8, 0.5);
  support::Rng rng(seed);
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
    n.available(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(occupancy)) n.reserve(e, l);
    });
  }
  return n;
}

class ThetaSearchTest : public ::testing::TestWithParam<int> {};

TEST_P(ThetaSearchTest, AllStrategiesAgreeOnFeasibility) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  net::WdmNetwork n = loaded_net(seed * 31 + 7, 0.6);
  support::Rng rng(seed);
  const auto s = static_cast<net::NodeId>(rng.uniform_int(0, 13));
  auto t = s;
  while (t == s) t = static_cast<net::NodeId>(rng.uniform_int(0, 13));

  MinCogOptions doubling, linear, bisect;
  linear.search = ThetaSearch::kLinearScan;
  bisect.search = ThetaSearch::kBisection;
  const MinCogResult rd = find_two_paths_mincog(n, s, t, doubling);
  const MinCogResult rl = find_two_paths_mincog(n, s, t, linear);
  const MinCogResult rb = find_two_paths_mincog(n, s, t, bisect);
  EXPECT_EQ(rd.found, rl.found);
  EXPECT_EQ(rd.found, rb.found);
  if (rd.found) {
    // The linear scan is the exact grid optimum: no strategy beats it.
    EXPECT_GE(rd.theta, rl.theta - 1e-12);
    EXPECT_GE(rb.theta, rl.theta - 1e-9);
    // Bisection honors its tolerance relative to the exact optimum.
    EXPECT_LE(rb.theta, rl.theta + 2e-3);
    // Exact oracle agrees with the linear scan's accepted threshold side.
    double lstar = 0.0;
    ASSERT_TRUE(exact_min_threshold(n, s, t, &lstar));
    EXPECT_GT(rl.theta, lstar);
  }
}

// Every strategy hands back the accepted probe's pair (bisection keeps it
// aside while later probes fail), and MinLoadRouter realizes that pair on
// the builder's arena as the search left it. Both must equal a fresh
// build of G_c(ϑ) at the accepted ϑ: Suurballe, then Liang–Shen in each
// induced subgraph.
TEST_P(ThetaSearchTest, MinLoadRealizesTheAcceptedProbesPair) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  net::WdmNetwork n = loaded_net(seed * 31 + 7, 0.6);
  support::Rng rng(seed);
  const auto s = static_cast<net::NodeId>(rng.uniform_int(0, 13));
  auto t = s;
  while (t == s) t = static_cast<net::NodeId>(rng.uniform_int(0, 13));

  for (const ThetaSearch search : {ThetaSearch::kDoubling,
                                   ThetaSearch::kLinearScan,
                                   ThetaSearch::kBisection}) {
    SCOPED_TRACE(static_cast<int>(search));
    MinCogOptions opt;
    opt.search = search;
    graph::DisjointPair pair;
    const MinCogResult mc =
        find_two_paths_mincog(n, s, t, opt, nullptr, nullptr, &pair);
    EXPECT_EQ(pair.found, mc.found);
    const RouteResult r = MinLoadRouter(opt).route(n, s, t);
    if (!mc.found) {
      EXPECT_FALSE(r.found);
      continue;
    }

    AuxGraphOptions gc;
    gc.weighting = AuxWeighting::kLoadExponential;
    gc.theta = mc.theta;
    gc.load_base = opt.load_base;
    AuxGraphBuilder fresh;  // same arena layout, so the same tie-breaks
    const AuxGraph& aux = fresh.build(n, s, t, gc);
    const graph::DisjointPair want =
        graph::suurballe(aux.g, aux.w, aux.s_prime, aux.t_second);
    ASSERT_TRUE(want.found);
    EXPECT_EQ(pair.total_cost(), want.total_cost());
    EXPECT_EQ(r.aux_cost, want.total_cost());
    EXPECT_EQ(r.theta, mc.theta);

    std::vector<std::uint8_t> m1, m2;
    aux.induced_link_mask_into(want.first, n.num_links(), &m1);
    aux.induced_link_mask_into(want.second, n.num_links(), &m2);
    net::Semilightpath p1 = optimal_semilightpath(n, s, t, m1);
    net::Semilightpath p2 = optimal_semilightpath(n, s, t, m2);
    if (!p1.found || !p2.found) {
      EXPECT_FALSE(r.found);
      continue;
    }
    if (p2.cost(n) < p1.cost(n)) std::swap(p1, p2);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.route.primary.hops, p1.hops);
    EXPECT_EQ(r.route.backup.hops, p2.hops);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, ThetaSearchTest,
                         ::testing::Range(0, 15));

TEST(ThetaSearch, LinearScanUsesBoundedProbes) {
  net::WdmNetwork n = loaded_net(3, 0.6);
  MinCogOptions opt;
  opt.search = ThetaSearch::kLinearScan;
  const MinCogResult r = find_two_paths_mincog(n, 0, 13, opt);
  ASSERT_TRUE(r.found);
  // Probes bounded by distinct load values + 2 endpoints.
  EXPECT_LE(r.iterations, n.num_links() + 2);
}

// Bisection accepts its last passing rung, which need not be its last
// confirm. No conversion, W = 8, three routes 0 -> 3: the lower (0-2-3) is
// idle; the upper (0-1-3) is half loaded with {λ0..λ3} free into node 1 and
// {λ4..λ7} free out of it, so no lightpath crosses node 1; the side route
// (0-4-3) is 3/4 loaded with {λ6, λ7} free end to end. Every rung above 0.5
// passes the physical check, but the arena has a pair only above 0.75, and
// the bracket closes on a miss just below 0.75. The search must hand back
// the accepted rung's mask and pair, as the arena-BFS ladder does.
TEST(ThetaSearch, BisectionEndingOnAMissReturnsTheAcceptedRungsPair) {
  net::WdmNetwork n(5, 8);
  const net::WavelengthSet all = net::WavelengthSet::all(8);
  const net::EdgeId up_in = n.add_link(0, 1, all, 1.0);
  const net::EdgeId up_out = n.add_link(1, 3, all, 1.0);
  n.add_link(0, 2, all, 1.0);
  n.add_link(2, 3, all, 1.0);
  const net::EdgeId side_in = n.add_link(0, 4, all, 1.0);
  const net::EdgeId side_out = n.add_link(4, 3, all, 1.0);
  for (net::Wavelength l = 0; l < 4; ++l) {
    n.reserve(up_in, l + 4);
    n.reserve(up_out, l);
  }
  for (net::Wavelength l = 0; l < 6; ++l) {
    n.reserve(side_in, l);
    n.reserve(side_out, l);
  }
  AuxGraphOptions aopt;
  aopt.weighting = AuxWeighting::kLoadExponential;
  aopt.theta = n.theta_max();
  AuxGraphBuilder builder;
  const AuxGraph& arena = builder.build(n, 0, 3, aopt);
  ArenaLowerBound bound;
  graph::SuurballeWorkspace ws;
  graph::DisjointPair pair;
  MinCogOptions opt;
  opt.search = ThetaSearch::kBisection;
  const MinCogResult got =
      mincog_search(n, 0, 3, arena, opt, &bound, &ws, &pair);
  const test::OracleSearch want =
      test::oracle_mincog_search(n, 0, 3, arena, ThetaSearch::kBisection);
  ASSERT_TRUE(got.found);
  ASSERT_TRUE(want.result.found);
  EXPECT_EQ(got.theta, want.result.theta);
  EXPECT_GT(got.theta, 0.75);
  EXPECT_EQ(got.iterations, want.result.iterations);
  EXPECT_EQ(got.last_infeasible_theta, want.result.last_infeasible_theta);
  EXPECT_LT(got.last_infeasible_theta, 0.75);
  EXPECT_GT(got.last_infeasible_theta, got.theta - 1e-3);
  // ϑ_min and 0.5 fail the physical check; every other rung is confirmed.
  EXPECT_EQ(got.confirms, got.iterations - 2);
  EXPECT_GT(got.confirm_misses, 0);
  ASSERT_TRUE(pair.found);
  // The re-confirm cut the arena to the accepted rung through the bound,
  // with no arc mask; the oracle's pair is Suurballe under that rung's arc
  // mask.
  EXPECT_EQ(pair.first.edges, want.pair.first.edges);
  EXPECT_EQ(pair.second.edges, want.pair.second.edges);
  EXPECT_EQ(pair.total_cost(), want.pair.total_cost());
}

TEST(GrcNormalization, VariantsBothDeliverFeasibleRoutes) {
  net::WdmNetwork n = loaded_net(11, 0.4);
  LoadCostRouter paper({}, false);
  LoadCostRouter mean_avail({}, true);
  const RouteResult a = paper.route(n, 0, 13);
  const RouteResult b = mean_avail.route(n, 0, 13);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_TRUE(a.route.feasible(n));
  EXPECT_TRUE(b.route.feasible(n));
  EXPECT_NE(paper.name(), mean_avail.name());
}

TEST(GrcNormalization, WeightsDifferOnPartiallyLoadedLink) {
  net::WdmNetwork n(2, 4);
  n.add_link(0, 1, net::WavelengthSet::all(4), 2.0);
  n.reserve(0, 0);
  n.reserve(0, 1);  // 2 of 4 used; Σw over avail = 4
  AuxGraphOptions paper, mean;
  paper.weighting = mean.weighting = AuxWeighting::kCostLoadFiltered;
  paper.theta = mean.theta = 1.0;
  mean.grc_mean_over_available = true;
  auto link_weight = [&](const AuxGraphOptions& o) {
    const AuxGraph aux = build_aux_graph(n, 0, 1, o);
    for (graph::EdgeId a = 0; a < aux.g.num_edges(); ++a) {
      if (aux.phys_edge_of_arc[static_cast<std::size_t>(a)] !=
          graph::kInvalidEdge) {
        return aux.w[static_cast<std::size_t>(a)];
      }
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(link_weight(paper), 1.0);  // 4 / N = 4/4
  EXPECT_DOUBLE_EQ(link_weight(mean), 2.0);   // 4 / |avail| = 4/2
}

TEST(RefinementToggle, UnrefinedNeverCheaper) {
  int compared = 0;
  for (int i = 0; i < 10; ++i) {
    net::WdmNetwork n = loaded_net(100 + i, 0.3);
    const RouteResult a = ApproxDisjointRouter(true).route(n, 0, 13);
    const RouteResult b = ApproxDisjointRouter(false).route(n, 0, 13);
    if (!a.found || !b.found) continue;
    ++compared;
    EXPECT_TRUE(b.route.feasible(n));
    EXPECT_LE(a.total_cost(n), b.total_cost(n) + 1e-9);
  }
  EXPECT_GT(compared, 5);
}

TEST(RefinementToggle, NamesDiffer) {
  EXPECT_NE(ApproxDisjointRouter(true).name(),
            ApproxDisjointRouter(false).name());
}

TEST(Reprovision, ActiveModeRestoresProtectionAfterFailure) {
  const topo::Topology t = topo::nsfnet();
  support::Rng rng(5);
  topo::NetworkOptions nopt;
  nopt.num_wavelengths = 8;
  net::WdmNetwork network = topo::build_network(t, nopt, rng);

  sim::SimOptions opt;
  opt.traffic.arrival_rate = 10.0;
  opt.traffic.mean_holding = 2.0;
  opt.duration = 150.0;
  opt.seed = 23;
  opt.restoration = sim::RestorationMode::kActive;
  opt.failures.duplex_failure_rate = 0.02;
  opt.failures.mean_repair = 3.0;
  opt.failures.reprovision_backup = true;
  opt.reverse_of = t.reverse_of;
  rwa::ApproxDisjointRouter router;
  sim::Simulator sim(std::move(network), router, opt);
  const sim::SimMetrics m = sim.run();
  EXPECT_GT(m.primary_failures, 0);
  EXPECT_GT(m.backups_reprovisioned, 0);
  EXPECT_EQ(m.recoveries_succeeded,
            m.switchover_recoveries + m.recompute_recoveries);
  EXPECT_EQ(m.final_reserved_wavelength_links, 0);
}

}  // namespace
}  // namespace wdm::rwa
