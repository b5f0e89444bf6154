#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "arena_oracle.hpp"
#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "topology/network_builder.hpp"

namespace wdm::rwa {
namespace {

/// 4-node residual network with full conversion — the Fig. 1 regime.
net::WdmNetwork make_square(double conv_cost = 0.5) {
  net::WdmNetwork n(4, 2);
  for (net::NodeId v = 0; v < 4; ++v) {
    n.set_conversion(v, net::ConversionTable::full(2, conv_cost));
  }
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.add_link(1, 3, net::WavelengthSet::all(2), 1.0);
  n.add_link(0, 2, net::WavelengthSet::all(2), 1.0);
  n.add_link(2, 3, net::WavelengthSet::all(2), 1.0);
  return n;
}

TEST(AuxGraph, EdgeNodeInventory) {
  const net::WdmNetwork n = make_square();
  const AuxGraph aux = build_aux_graph(n, 0, 3);
  // Two edge-nodes per usable link + s' + t''.
  EXPECT_EQ(aux.num_edge_nodes, 2 * 4);
  EXPECT_EQ(aux.g.num_nodes(), 2 * 4 + 2);
  EXPECT_EQ(aux.num_link_arcs, 4);
  // Transit arcs: node 1 (in {0-1}, out {1-3}) -> 1; node 2 -> 1. Nodes 0, 3
  // have no in/out combos with availability.
  EXPECT_EQ(aux.num_transit_arcs, 2);
  // Hub arcs: 2 out of s=0, 2 into t=3.
  EXPECT_EQ(aux.g.num_edges(), 4 + 2 + 4);
}

TEST(AuxGraph, LinkArcWeightIsMeanAvailableCost) {
  net::WdmNetwork n(2, 2);
  const std::vector<double> costs{2.0, 6.0};
  n.add_link(0, 1, net::WavelengthSet::all(2), costs);
  const AuxGraph aux = build_aux_graph(n, 0, 1);
  // Exactly one link arc; weight = mean(2, 6) = 4.
  double link_weight = -1.0;
  for (graph::EdgeId a = 0; a < aux.g.num_edges(); ++a) {
    if (aux.phys_edge_of_arc[static_cast<std::size_t>(a)] != graph::kInvalidEdge) {
      link_weight = aux.w[static_cast<std::size_t>(a)];
    }
  }
  EXPECT_DOUBLE_EQ(link_weight, 4.0);
}

TEST(AuxGraph, LinkArcWeightTracksResidual) {
  net::WdmNetwork n(2, 2);
  const std::vector<double> costs{2.0, 6.0};
  n.add_link(0, 1, net::WavelengthSet::all(2), costs);
  n.reserve(0, 0);  // only λ1 (cost 6) remains
  const AuxGraph aux = build_aux_graph(n, 0, 1);
  double link_weight = -1.0;
  for (graph::EdgeId a = 0; a < aux.g.num_edges(); ++a) {
    if (aux.phys_edge_of_arc[static_cast<std::size_t>(a)] != graph::kInvalidEdge) {
      link_weight = aux.w[static_cast<std::size_t>(a)];
    }
  }
  EXPECT_DOUBLE_EQ(link_weight, 6.0);
}

TEST(AuxGraph, TransitWeightIsMeanConversionCost) {
  // Node 1 with asymmetric conversion costs; Λ_avail = {0,1} on both links.
  net::WdmNetwork n(3, 2);
  net::ConversionTable tbl(2);
  tbl.set(0, 1, 1.0);
  tbl.set(1, 0, 3.0);
  n.set_conversion(1, tbl);
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(2), 1.0);
  const AuxGraph aux = build_aux_graph(n, 0, 2);
  // Allowed pairs at node 1: (0,0)=0, (1,1)=0, (0,1)=1, (1,0)=3 -> mean 1.
  double transit = -1.0;
  int transits = 0;
  for (graph::EdgeId a = 0; a < aux.g.num_edges(); ++a) {
    const auto ta = aux.g.tail(a);
    const auto ha = aux.g.head(a);
    if (aux.phys_edge_of_arc[static_cast<std::size_t>(a)] == graph::kInvalidEdge &&
        ta != aux.s_prime && ha != aux.t_second) {
      transit = aux.w[static_cast<std::size_t>(a)];
      ++transits;
    }
  }
  EXPECT_EQ(transits, 1);
  EXPECT_DOUBLE_EQ(transit, 1.0);
}

TEST(AuxGraph, NoTransitArcWhenNoConversionPossible) {
  // Disjoint wavelength sets and no conversion at the joint.
  net::WdmNetwork n(3, 2);
  net::WavelengthSet only0, only1;
  only0.insert(0);
  only1.insert(1);
  n.add_link(0, 1, only0, 1.0);
  n.add_link(1, 2, only1, 1.0);
  const AuxGraph aux = build_aux_graph(n, 0, 2);
  EXPECT_EQ(aux.num_transit_arcs, 0);
  // And Suurballe finds nothing.
  EXPECT_FALSE(
      graph::suurballe(aux.g, aux.w, aux.s_prime, aux.t_second).found);
}

TEST(AuxGraph, ExhaustedLinkDropsOut) {
  net::WdmNetwork n = make_square();
  n.reserve(0, 0);
  n.reserve(0, 1);  // link 0 fully used
  const AuxGraph aux = build_aux_graph(n, 0, 3);
  EXPECT_EQ(aux.num_edge_nodes, 2 * 3);
  EXPECT_EQ(aux.num_link_arcs, 3);
}

TEST(AuxGraph, ThetaFilterDropsLoadedLinks) {
  net::WdmNetwork n = make_square();
  n.reserve(0, 0);  // load 1/2 on link 0
  AuxGraphOptions opt;
  opt.weighting = AuxWeighting::kLoadExponential;
  opt.theta = 0.5;  // strict <: load 0.5 is excluded
  const AuxGraph aux = build_aux_graph(n, 0, 3, opt);
  EXPECT_EQ(aux.num_link_arcs, 3);
  opt.theta = 0.51;
  const AuxGraph aux2 = build_aux_graph(n, 0, 3, opt);
  EXPECT_EQ(aux2.num_link_arcs, 4);
}

TEST(AuxGraph, LoadExponentialWeights) {
  net::WdmNetwork n = make_square();
  n.reserve(0, 0);  // U=1, N=2 on link 0
  AuxGraphOptions opt;
  opt.weighting = AuxWeighting::kLoadExponential;
  opt.theta = 1.0;
  opt.load_base = 2.0;
  const AuxGraph aux = build_aux_graph(n, 0, 3, opt);
  // Link 0 weight: 2^(2/2) - 2^(1/2); others: 2^(1/2) - 2^0.
  const double loaded = 2.0 - std::sqrt(2.0);
  const double idle = std::sqrt(2.0) - 1.0;
  int found_loaded = 0, found_idle = 0;
  for (graph::EdgeId a = 0; a < aux.g.num_edges(); ++a) {
    const graph::EdgeId phys = aux.phys_edge_of_arc[static_cast<std::size_t>(a)];
    if (phys == graph::kInvalidEdge) {
      EXPECT_DOUBLE_EQ(aux.w[static_cast<std::size_t>(a)], 0.0);
    } else if (phys == 0) {
      EXPECT_NEAR(aux.w[static_cast<std::size_t>(a)], loaded, 1e-12);
      ++found_loaded;
    } else {
      EXPECT_NEAR(aux.w[static_cast<std::size_t>(a)], idle, 1e-12);
      ++found_idle;
    }
  }
  EXPECT_EQ(found_loaded, 1);
  EXPECT_EQ(found_idle, 3);
}

TEST(AuxGraph, CostLoadFilteredWeightsDivideByCapacity) {
  net::WdmNetwork n(2, 2);
  const std::vector<double> costs{2.0, 6.0};
  n.add_link(0, 1, net::WavelengthSet::all(2), costs);
  n.reserve(0, 0);
  AuxGraphOptions opt;
  opt.weighting = AuxWeighting::kCostLoadFiltered;
  opt.theta = 1.0;
  const AuxGraph aux = build_aux_graph(n, 0, 1, opt);
  // Paper's G_rc formula: Σ_{λ∈avail} w / N = 6 / 2 = 3 (not 6/1).
  double link_weight = -1.0;
  for (graph::EdgeId a = 0; a < aux.g.num_edges(); ++a) {
    if (aux.phys_edge_of_arc[static_cast<std::size_t>(a)] != graph::kInvalidEdge) {
      link_weight = aux.w[static_cast<std::size_t>(a)];
    }
  }
  EXPECT_DOUBLE_EQ(link_weight, 3.0);
}

TEST(AuxGraph, ProjectRecoversPhysicalPath) {
  const net::WdmNetwork n = make_square();
  const AuxGraph aux = build_aux_graph(n, 0, 3);
  const graph::DisjointPair pair =
      graph::suurballe(aux.g, aux.w, aux.s_prime, aux.t_second);
  ASSERT_TRUE(pair.found);
  const auto links1 = aux.project(pair.first);
  const auto links2 = aux.project(pair.second);
  EXPECT_EQ(links1.size(), 2u);
  EXPECT_EQ(links2.size(), 2u);
  // Projections are disjoint link sets covering all four links.
  std::set<graph::EdgeId> all(links1.begin(), links1.end());
  all.insert(links2.begin(), links2.end());
  EXPECT_EQ(all.size(), 4u);
  std::vector<std::uint8_t> mask;
  aux.induced_link_mask_into(pair.first, n.num_links(), &mask);
  EXPECT_EQ(std::count(mask.begin(), mask.end(), 1), 2);
}

TEST(AuxGraph, HubArcsOnlyTouchEndpointLinks) {
  const net::WdmNetwork n = make_square();
  const AuxGraph aux = build_aux_graph(n, 0, 3);
  for (graph::EdgeId a : aux.g.out_edges(aux.s_prime)) {
    const graph::NodeId en = aux.g.head(a);
    const graph::EdgeId phys =
        aux.phys_edge_of_node[static_cast<std::size_t>(en)];
    EXPECT_EQ(n.graph().tail(phys), 0);
    EXPECT_FALSE(aux.is_in_node[static_cast<std::size_t>(en)]);
  }
  for (graph::EdgeId a : aux.g.in_edges(aux.t_second)) {
    const graph::NodeId en = aux.g.tail(a);
    const graph::EdgeId phys =
        aux.phys_edge_of_node[static_cast<std::size_t>(en)];
    EXPECT_EQ(n.graph().head(phys), 3);
    EXPECT_TRUE(aux.is_in_node[static_cast<std::size_t>(en)]);
  }
}

TEST(AuxGraph, SizeMatchesTheoremBound) {
  // Theorem 1: G' has 2m edge-nodes and O(m + nd) arcs.
  net::WdmNetwork n = test::random_network(12, 16, 4, 99);
  const AuxGraph aux = build_aux_graph(n, 0, 11);
  const int m = n.num_links();
  EXPECT_EQ(aux.num_edge_nodes, 2 * m);
  EXPECT_EQ(aux.num_link_arcs, m);
  int transit_bound = 0;
  for (graph::NodeId v = 0; v < n.num_nodes(); ++v) {
    transit_bound += n.graph().in_degree(v) * n.graph().out_degree(v);
  }
  EXPECT_LE(aux.num_transit_arcs, transit_bound);
}

// τ (AuxGraph::min_transit) is kept per node by the builder as it
// re-weights; it must equal a scan over every transit arc of the arena
// after every dirty-only build, in every weighting and in protect mode.
TEST(ArenaTransitBound, BuilderTauMatchesAllArcScan) {
  net::WdmNetwork n = topo::nsfnet_network(8, 0.5);
  n.set_conversion(3, net::ConversionTable::limited_range(8, 1, 0.25));
  support::Rng rng(17);
  AuxGraphBuilder builders[4];
  for (int step = 0; step < 40; ++step) {
    const auto e = static_cast<graph::EdgeId>(
        rng.index(static_cast<std::size_t>(n.num_links())));
    const net::WavelengthSet avail = n.available(e);
    if (!avail.empty()) n.reserve(e, avail.lowest());
    const auto s = static_cast<net::NodeId>(
        rng.index(static_cast<std::size_t>(n.num_nodes())));
    const net::NodeId t = (s + 1 + static_cast<net::NodeId>(rng.index(
                                       static_cast<std::size_t>(
                                           n.num_nodes() - 1)))) %
                          n.num_nodes();
    AuxGraphOptions opts[4];
    opts[1].weighting = AuxWeighting::kLoadExponential;
    opts[1].theta = n.theta_max();
    opts[2].weighting = AuxWeighting::kCostLoadFiltered;
    opts[2].theta = 0.5;
    opts[3].protect_nodes = true;
    for (int a = 0; a < 4; ++a) {
      const AuxGraph& arena = builders[a].build(n, s, t, opts[a]);
      EXPECT_EQ(arena.min_transit, test::scan_min_transit(n, arena))
          << "step " << step << " arm " << a;
    }
  }
}

// ArenaLowerBound reads τ from the arena with τ(t) = 0: every v_in^e of a
// usable link into t is at distance 0 from t''.
TEST(ArenaTransitBound, BoundTakesTransitAtTargetAsFree) {
  const net::WdmNetwork n = topo::nsfnet_network(8, 0.5);
  AuxGraphBuilder builder;
  const net::NodeId s = 0;
  const net::NodeId t = 13;
  const AuxGraph& arena = builder.build(n, s, t);
  ASSERT_GT(arena.min_transit[static_cast<std::size_t>(t)], 0.0);
  ArenaLowerBound bound;
  const std::span<const double> h = bound.compute(n, arena, s, t);
  for (const graph::EdgeId e : n.graph().in_edges(t)) {
    EXPECT_EQ(h[static_cast<std::size_t>(2 * e + 1)], 0.0) << "link " << e;
  }
}

}  // namespace
}  // namespace wdm::rwa
