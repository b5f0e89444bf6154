#include <gtest/gtest.h>

#include <cmath>

#include "graph/dijkstra.hpp"
#include "rwa/layered_graph.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "topology/network_builder.hpp"

namespace wdm::rwa {
namespace {

TEST(LayeredGraph, NodeAndHubLayout) {
  net::WdmNetwork n(3, 2);
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(2), 1.0);
  const LayeredGraph lg = LayeredGraph::build(n, 0, 2);
  // 2 copies (in/out) per (node, λ) + two hubs.
  EXPECT_EQ(lg.g.num_nodes(), 2 * 3 * 2 + 2);
  // Arcs: identity conversions 3 nodes * 2 λ = 6, traversal 2 links * 2 λ =
  // 4, hubs 2 * 2 = 4.
  EXPECT_EQ(lg.g.num_edges(), 14);
}

TEST(LayeredGraph, ConversionArcsFollowTable) {
  net::WdmNetwork n(1, 3);
  n.set_conversion(0, net::ConversionTable::full(3, 0.1));
  const LayeredGraph lg = LayeredGraph::build(n, 0, 0);
  // 9 conversion arcs (full 3x3) + 3+3 hub arcs.
  EXPECT_EQ(lg.g.num_edges(), 9 + 6);
}

TEST(OptimalSemilightpath, SingleHopPicksCheapestWavelength) {
  net::WdmNetwork n(2, 3);
  const std::vector<double> costs{5.0, 2.0, 7.0};
  n.add_link(0, 1, net::WavelengthSet::all(3), costs);
  const net::Semilightpath p = optimal_semilightpath(n, 0, 1);
  ASSERT_TRUE(p.found);
  ASSERT_EQ(p.hops.size(), 1u);
  EXPECT_EQ(p.hops[0].lambda, 1);
  EXPECT_DOUBLE_EQ(p.cost(n), 2.0);
}

TEST(OptimalSemilightpath, ConversionUsedWhenWorthIt) {
  // λ0 cheap on link 1, λ1 cheap on link 2; conversion costs 0.1.
  net::WdmNetwork n(3, 2);
  n.set_conversion(1, net::ConversionTable::full(2, 0.1));
  const std::vector<double> c01{1.0, 10.0};
  const std::vector<double> c12{10.0, 1.0};
  n.add_link(0, 1, net::WavelengthSet::all(2), c01);
  n.add_link(1, 2, net::WavelengthSet::all(2), c12);
  const net::Semilightpath p = optimal_semilightpath(n, 0, 2);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.conversions(n), 1);
  EXPECT_DOUBLE_EQ(p.cost(n), 2.1);
}

TEST(OptimalSemilightpath, ConversionAvoidedWhenExpensive) {
  net::WdmNetwork n(3, 2);
  n.set_conversion(1, net::ConversionTable::full(2, 100.0));
  const std::vector<double> c01{1.0, 10.0};
  const std::vector<double> c12{10.0, 1.0};
  n.add_link(0, 1, net::WavelengthSet::all(2), c01);
  n.add_link(1, 2, net::WavelengthSet::all(2), c12);
  const net::Semilightpath p = optimal_semilightpath(n, 0, 2);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.conversions(n), 0);
  EXPECT_DOUBLE_EQ(p.cost(n), 11.0);
}

TEST(OptimalSemilightpath, WavelengthContinuityWithoutConversion) {
  // No conversion anywhere: λ must be continuous; only λ1 is on both links.
  net::WdmNetwork n(3, 2);
  net::WavelengthSet only0, only01;
  only0.insert(0);
  only01.insert(0);
  only01.insert(1);
  net::WavelengthSet only1;
  only1.insert(1);
  n.add_link(0, 1, only01, 1.0);
  n.add_link(1, 2, only1, 1.0);
  const net::Semilightpath p = optimal_semilightpath(n, 0, 2);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.hops[0].lambda, 1);
  EXPECT_EQ(p.hops[1].lambda, 1);
}

TEST(OptimalSemilightpath, BlockedByWavelengthMismatch) {
  net::WdmNetwork n(3, 2);  // no conversion
  net::WavelengthSet only0;
  only0.insert(0);
  net::WavelengthSet only1;
  only1.insert(1);
  n.add_link(0, 1, only0, 1.0);
  n.add_link(1, 2, only1, 1.0);
  EXPECT_FALSE(optimal_semilightpath(n, 0, 2).found);
  // Adding conversion at node 1 unblocks it.
  n.set_conversion(1, net::ConversionTable::full(2, 0.2));
  EXPECT_TRUE(optimal_semilightpath(n, 0, 2).found);
}

TEST(OptimalSemilightpath, UsesOnlyAvailableWavelengths) {
  net::WdmNetwork n(2, 2);
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.reserve(0, 0);
  const net::Semilightpath p = optimal_semilightpath(n, 0, 1);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.hops[0].lambda, 1);
  n.reserve(0, 1);
  EXPECT_FALSE(optimal_semilightpath(n, 0, 1).found);
}

TEST(OptimalSemilightpath, RespectsLinkMask) {
  net::WdmNetwork n(3, 1);
  n.add_link(0, 2, net::WavelengthSet::all(1), 1.0);  // direct
  n.add_link(0, 1, net::WavelengthSet::all(1), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(1), 1.0);
  std::vector<std::uint8_t> mask{0, 1, 1};
  const net::Semilightpath p = optimal_semilightpath(n, 0, 2, mask);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.length(), 2u);
}

TEST(LayeredGraph, MaskedBuildCompactsToActiveNodes) {
  // With a confining mask only nodes incident to enabled links (plus the
  // endpoints) receive wavelength layers; the rest of the topology must not
  // contribute conversion arcs or node copies.
  net::WdmNetwork n(6, 2);
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(2), 1.0);
  n.add_link(2, 3, net::WavelengthSet::all(2), 1.0);
  n.add_link(3, 4, net::WavelengthSet::all(2), 1.0);
  n.add_link(4, 5, net::WavelengthSet::all(2), 1.0);
  std::vector<std::uint8_t> mask{1, 1, 0, 0, 0};  // links 0-1, 1-2 only
  const LayeredGraph lg = LayeredGraph::build(n, 0, 2, mask);
  // Active nodes: {0, 2} (endpoints) ∪ {0, 1, 2} = 3 of 6.
  EXPECT_EQ(lg.g.num_nodes(), 2 * 3 * 2 + 2);
  const LayeredGraph dense = LayeredGraph::build(n, 0, 2);
  EXPECT_EQ(dense.g.num_nodes(), 2 * 6 * 2 + 2);
}

TEST(OptimalSemilightpath, CompactionIsBehaviorallyInvisible) {
  // The compacted masked build must find paths of identical cost to the
  // dense unmasked build whenever the mask admits every link (all-ones mask
  // vs empty mask take the compacted and historical code paths
  // respectively).
  support::Rng rng(77);
  for (int inst = 0; inst < 8; ++inst) {
    net::WdmNetwork n(8, 3);
    for (int i = 0; i + 1 < 8; ++i) {
      n.add_link(i, i + 1, net::WavelengthSet::all(3), rng.uniform(1.0, 5.0));
    }
    for (int k = 0; k < 5; ++k) {
      const auto a = static_cast<net::NodeId>(rng.index(8));
      const auto b = static_cast<net::NodeId>(rng.index(8));
      if (a == b || n.graph().find_edge(a, b) != graph::kInvalidEdge) continue;
      n.add_link(a, b, net::WavelengthSet::all(3), rng.uniform(1.0, 5.0));
    }
    n.set_conversion(3, net::ConversionTable::full(3, 0.2));
    const std::vector<std::uint8_t> all_on(
        static_cast<std::size_t>(n.num_links()), 1);
    for (net::NodeId t = 1; t < 8; ++t) {
      const net::Semilightpath dense = optimal_semilightpath(n, 0, t);
      const net::Semilightpath compact = optimal_semilightpath(n, 0, t, all_on);
      ASSERT_EQ(dense.found, compact.found) << "t=" << t;
      if (dense.found) {
        EXPECT_DOUBLE_EQ(dense.cost(n), compact.cost(n)) << "t=" << t;
      }
    }
  }
}

TEST(OptimalSemilightpath, SingleConversionPerNodeEnforced) {
  // Table allows 0->1 and 1->2 but NOT 0->2. If conversion chains inside a
  // node were possible, the path below would exist.
  net::WdmNetwork n(3, 3);
  net::ConversionTable tbl(3);
  tbl.set(0, 1, 0.1);
  tbl.set(1, 2, 0.1);
  n.set_conversion(1, tbl);
  net::WavelengthSet only0, only2;
  only0.insert(0);
  only2.insert(2);
  n.add_link(0, 1, only0, 1.0);
  n.add_link(1, 2, only2, 1.0);
  EXPECT_FALSE(optimal_semilightpath(n, 0, 2).found);
}

/// The same table content tagged kGeneral: a set()/forbid() that changes
/// nothing still drops the shape tag. Requires W >= 2.
net::ConversionTable as_general(net::ConversionTable t) {
  if (t.allowed(0, 1)) {
    t.set(0, 1, t.cost(0, 1));
  } else {
    t.forbid(0, 1);
  }
  return t;
}

TEST(OptimalSemilightpath, RelaxedConversionArcsBoundedByShape) {
  // Per node, the solver relaxes ≤ 2W − 1 conversion arcs under full
  // conversion, W under none and W·(2r + 1) under limited range — and finds
  // the bit-identical route it finds when the same tables are tagged general.
  const int W = 16;
  struct Family {
    topo::ConversionModel model;
    int range;
    std::int64_t per_node;
  };
  const Family families[] = {
      {topo::ConversionModel::kFullUniform, 0, 2 * W - 1},
      {topo::ConversionModel::kNone, 0, W},
      {topo::ConversionModel::kLimitedRange, 1, W * 3},
      {topo::ConversionModel::kLimitedRange, 2, W * 5},
  };
  for (const Family& f : families) {
    topo::NetworkOptions opt;
    opt.conversion_model = f.model;
    opt.conversion_range = f.range;
    opt.conversion_cost = 0.3;
    net::WdmNetwork n = test::random_network(12, 10, W, 41 + f.range, opt);
    support::Rng rng(5);
    for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
      n.available(e).for_each([&](net::Wavelength l) {
        if (rng.bernoulli(0.4)) n.reserve(e, l);
      });
    }
    net::WdmNetwork general = n;
    for (net::NodeId v = 0; v < n.num_nodes(); ++v) {
      general.set_conversion(v, as_general(n.conversion(v)));
    }
    std::vector<std::uint8_t> half(static_cast<std::size_t>(n.num_links()));
    for (auto& on : half) on = rng.bernoulli(0.6) ? 1 : 0;
    SemilightpathWorkspace ws;
    SemilightpathWorkspace ws_general;
    net::Semilightpath p;
    net::Semilightpath p_general;
    std::int64_t tagged_total = 0;
    std::int64_t general_total = 0;
    for (net::NodeId s = 0; s < n.num_nodes(); ++s) {
      for (net::NodeId t = 0; t < n.num_nodes(); ++t) {
        if (s == t) continue;
        for (const bool masked : {false, true}) {
          const std::span<const std::uint8_t> mask =
              masked ? std::span<const std::uint8_t>(half)
                     : std::span<const std::uint8_t>();
          const double cost = optimal_semilightpath_into(n, s, t, mask, ws, &p);
          const double cost_general = optimal_semilightpath_into(
              general, s, t, mask, ws_general, &p_general);
          const auto n_active = static_cast<std::int64_t>(
              masked ? ws.node_of_slot.size()
                     : static_cast<std::size_t>(n.num_nodes()));
          EXPECT_LE(ws.conv_arcs_relaxed, n_active * f.per_node)
              << s << "->" << t << " masked=" << masked;
          ASSERT_EQ(p.found, p_general.found);
          EXPECT_EQ(cost, cost_general);
          ASSERT_EQ(p.hops.size(), p_general.hops.size());
          for (std::size_t i = 0; i < p.hops.size(); ++i) {
            EXPECT_EQ(p.hops[i].edge, p_general.hops[i].edge);
            EXPECT_EQ(p.hops[i].lambda, p_general.hops[i].lambda);
          }
          EXPECT_LE(ws.conv_arcs_relaxed, ws_general.conv_arcs_relaxed);
          tagged_total += ws.conv_arcs_relaxed;
          general_total += ws_general.conv_arcs_relaxed;
        }
      }
    }
    // None and limited range skip only arcs the table forbids (the saving
    // is the loop, not the relaxations); full conversion skips allowed arcs
    // that cannot improve.
    if (f.model == topo::ConversionModel::kFullUniform) {
      EXPECT_LT(tagged_total, general_total);
    } else {
      EXPECT_EQ(tagged_total, general_total);
    }
  }
}

TEST(OptimalSemilightpath, RelaxedConversionArcsMatchOracleOnGeneralTables) {
  // The solver settles exactly the nodes dijkstra_into settles over the
  // materialized graph under the lifted A* potential, up to and including
  // the in-copy of t its path ends in, where it stops. On general tables it
  // relaxes every allowed conversion arc (identity included) out of each
  // in-copy it settles, so its count equals the oracle's conversion arcs out
  // of those settled in-copies.
  const int W = 6;
  support::Rng rng(2024);
  for (int inst = 0; inst < 6; ++inst) {
    net::WdmNetwork n = test::random_network(9, 8, W, 300 + inst);
    for (net::NodeId v = 0; v < n.num_nodes(); ++v) {
      net::ConversionTable t(W);
      for (net::Wavelength a = 0; a < W; ++a) {
        for (net::Wavelength b = 0; b < W; ++b) {
          if (a != b && rng.bernoulli(0.35)) t.set(a, b, rng.uniform(0.0, 1.0));
        }
      }
      n.set_conversion(v, t);
    }
    const NodeId s = 0;
    const NodeId t = n.num_nodes() - 1;
    SemilightpathWorkspace ws;
    net::Semilightpath p;
    const double cost = optimal_semilightpath_into(n, s, t, {}, ws, &p);
    ASSERT_TRUE(p.found) << "instance " << inst;

    const LayeredGraph lg = LayeredGraph::build(n, s, t);
    SemilightpathWorkspace bound_ws;
    semilightpath_bound_into(n, s, t, {}, bound_ws);
    const std::vector<double> h = lg.lift(bound_ws.bound);
    graph::DijkstraOptions opt;
    opt.target = 2 * (t * W + p.hops.back().lambda);
    opt.potential = h;
    graph::QuadHeap heap(static_cast<std::size_t>(lg.g.num_nodes()));
    graph::ShortestPathTree tree;
    const std::size_t settled =
        graph::dijkstra_into(lg.g, lg.w, lg.source_hub, opt, heap, &tree);
    EXPECT_EQ(tree.dist[static_cast<std::size_t>(opt.target)], cost);
    // Popped: the source hub, and every labelled node ahead of the target
    // in the heap's (d + h, id) order (the rest are still queued).
    const auto key = [&](NodeId x) {
      return tree.dist[static_cast<std::size_t>(x)] +
             h[static_cast<std::size_t>(x)];
    };
    const auto popped = [&](NodeId x) {
      if (x == lg.source_hub) return true;
      if (tree.dist[static_cast<std::size_t>(x)] == graph::kInf) return false;
      return key(x) < key(opt.target) ||
             (key(x) == key(opt.target) && x <= opt.target);
    };
    std::size_t popped_nodes = 0;
    for (NodeId x = 0; x < lg.g.num_nodes(); ++x) popped_nodes += popped(x);
    EXPECT_EQ(popped_nodes, settled) << "instance " << inst;
    std::int64_t oracle = 0;
    for (EdgeId a = 0; a < lg.g.num_edges(); ++a) {
      const NodeId tail = lg.g.tail(a);
      const bool conversion =
          lg.hop_of_arc[static_cast<std::size_t>(a)].edge ==
              graph::kInvalidEdge &&
          tail != lg.source_hub && lg.g.head(a) != lg.sink_hub;
      if (conversion && popped(tail)) ++oracle;
    }
    EXPECT_GT(oracle, 0);
    EXPECT_EQ(ws.conv_arcs_relaxed, oracle) << "instance " << inst;

    // With t cut off the bound is +inf at s: no relaxation at all.
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(n.num_links()), 1);
    for (EdgeId e = 0; e < n.num_links(); ++e) {
      if (n.graph().head(e) == t) mask[static_cast<std::size_t>(e)] = 0;
    }
    EXPECT_TRUE(std::isinf(optimal_semilightpath_into(n, s, t, mask, ws, &p)));
    EXPECT_FALSE(p.found);
    EXPECT_EQ(ws.conv_arcs_relaxed, 0) << "instance " << inst;
  }
}

TEST(OptimalSemilightpath, FullConversionRefansOnARoundingTie) {
  // In-copies of v share h = 1, and 2^-54 + 1 == 2^-53 + 1 == 1 in doubles,
  // so (v, λ1) with d = 2^-54 and (v, λ0) with d = 2^-53 tie on their key
  // and λ0 pops first. Its fan-out offers (v, λ2) 2^-53 + c; the later
  // λ1 in-copy, with the smaller label, must fan out again. The only way on
  // to t is λ2, where c = 2^-52 keeps the two offers apart after + 1:
  // 1 + 1.25·2^-52 rounds to 1 + 2^-52, 1 + 1.5·2^-52 to 1 + 2^-51.
  const int W = 3;
  const double u = std::ldexp(1.0, -52);
  net::WdmNetwork n(3, W);
  n.set_conversion(1, net::ConversionTable::full(W, u));
  n.add_link(0, 1, net::WavelengthSet::from_bits(0b011),
             std::vector<double>{u / 2, u / 4, 0.0});
  n.add_link(1, 2, net::WavelengthSet::from_bits(0b100),
             std::vector<double>{0.0, 0.0, 1.0});
  SemilightpathWorkspace ws;
  net::Semilightpath p;
  const double cost = optimal_semilightpath_into(n, 0, 2, {}, ws, &p);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(cost, 1.0 + u);
  const std::vector<net::Hop> want{{0, 1}, {1, 2}};
  EXPECT_EQ(p.hops, want);
  // v fanned out twice: W arcs from each of its two in-copies.
  EXPECT_GE(ws.conv_arcs_relaxed, 2 * W);
  // Plain Dijkstra on the materialized graph agrees.
  const LayeredGraph lg = LayeredGraph::build(n, 0, 2);
  const graph::Path plain =
      graph::shortest_path(lg.g, lg.w, lg.source_hub, lg.sink_hub);
  ASSERT_TRUE(plain.found);
  EXPECT_EQ(plain.cost, cost);
  EXPECT_EQ(lg.to_semilightpath(plain).hops, want);
}

class LayeredPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LayeredPropertyTest, MatchesBruteForceOnRandomNetworks) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  topo::NetworkOptions opt;
  opt.cost_model = topo::CostModel::kRandomPerWavelength;
  opt.conversion_model = (seed % 3 == 0) ? topo::ConversionModel::kNone
                         : (seed % 3 == 1)
                             ? topo::ConversionModel::kFullUniform
                             : topo::ConversionModel::kLimitedRange;
  opt.install_probability = 0.8;
  net::WdmNetwork n = test::random_network(5, 4, 3, seed * 131 + 17, opt);

  const net::Semilightpath got = optimal_semilightpath(n, 0, 4);
  const auto want = test::brute_force_semilightpath(n, 0, 4);
  // The brute force ranges over *simple* physical paths; with limited-range
  // conversion the true optimum may revisit a node to chain conversions, so
  // it is an upper bound in general and exact otherwise.
  if (want.has_value()) {
    ASSERT_TRUE(got.found);
    EXPECT_LE(got.cost(n), want->cost(n) + 1e-9);
  }
  if (got.found) {
    EXPECT_TRUE(got.fits_residual(n));
    if (opt.conversion_model != topo::ConversionModel::kLimitedRange) {
      ASSERT_TRUE(want.has_value());
      EXPECT_NEAR(got.cost(n), want->cost(n), 1e-9);
    }
  }
}

TEST_P(LayeredPropertyTest, OptimalNeverBeatenUnderResidualChanges) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  net::WdmNetwork n = test::random_network(6, 6, 3, seed * 997 + 3);
  support::Rng rng(seed);
  // Randomly occupy some wavelengths, then check optimality again.
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
    n.available(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(0.3)) n.reserve(e, l);
    });
  }
  const net::Semilightpath got = optimal_semilightpath(n, 0, 5);
  const auto want = test::brute_force_semilightpath(n, 0, 5);
  ASSERT_EQ(got.found, want.has_value());
  if (got.found) {
    EXPECT_NEAR(got.cost(n), want->cost(n), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, LayeredPropertyTest,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace wdm::rwa
