#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "test_util.hpp"
#include "topology/network_builder.hpp"
#include "topology/topologies.hpp"

namespace wdm::topo {
namespace {

void expect_valid_duplex(const Topology& t) {
  ASSERT_EQ(t.reverse_of.size(), static_cast<std::size_t>(t.g.num_edges()));
  ASSERT_EQ(t.length.size(), static_cast<std::size_t>(t.g.num_edges()));
  for (graph::EdgeId e = 0; e < t.g.num_edges(); ++e) {
    const graph::EdgeId r = t.reverse_of[static_cast<std::size_t>(e)];
    EXPECT_EQ(t.reverse_of[static_cast<std::size_t>(r)], e);
    EXPECT_EQ(t.g.tail(e), t.g.head(r));
    EXPECT_EQ(t.g.head(e), t.g.tail(r));
    EXPECT_DOUBLE_EQ(t.length[static_cast<std::size_t>(e)],
                     t.length[static_cast<std::size_t>(r)]);
  }
}

TEST(Topologies, NsfnetShape) {
  const Topology t = nsfnet();
  EXPECT_EQ(t.num_nodes(), 14);
  EXPECT_EQ(t.num_duplex_links(), 21);
  EXPECT_TRUE(test::strongly_connected(t.g));
  expect_valid_duplex(t);
}

TEST(Topologies, Arpanet20Shape) {
  const Topology t = arpanet20();
  EXPECT_EQ(t.num_nodes(), 20);
  EXPECT_EQ(t.num_duplex_links(), 31);
  EXPECT_TRUE(test::strongly_connected(t.g));
  expect_valid_duplex(t);
}

TEST(Topologies, Eon19Shape) {
  const Topology t = eon19();
  EXPECT_EQ(t.num_nodes(), 19);
  EXPECT_EQ(t.num_duplex_links(), 37);
  EXPECT_TRUE(test::strongly_connected(t.g));
  expect_valid_duplex(t);
}

TEST(Topologies, Usnet24Shape) {
  const Topology t = usnet24();
  EXPECT_EQ(t.num_nodes(), 24);
  EXPECT_EQ(t.num_duplex_links(), 43);
  EXPECT_TRUE(test::strongly_connected(t.g));
  expect_valid_duplex(t);
}

TEST(Topologies, TorusShape) {
  const Topology t = torus(3, 4);
  EXPECT_EQ(t.num_nodes(), 12);
  EXPECT_EQ(t.num_duplex_links(), 24);  // 2 per node
  EXPECT_EQ(test::max_degree(t.g), 4);
  EXPECT_TRUE(test::strongly_connected(t.g));
  expect_valid_duplex(t);
}

TEST(Topologies, TorusRejectsTooSmall) {
  EXPECT_THROW(torus(2, 4), std::logic_error);
}

TEST(Topologies, RingShape) {
  const Topology t = ring(6);
  EXPECT_EQ(t.num_nodes(), 6);
  EXPECT_EQ(t.num_duplex_links(), 6);
  EXPECT_TRUE(test::strongly_connected(t.g));
  expect_valid_duplex(t);
  EXPECT_EQ(test::max_degree(t.g), 2);
}

TEST(Topologies, GridShape) {
  const Topology t = grid(3, 4);
  EXPECT_EQ(t.num_nodes(), 12);
  // 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8.
  EXPECT_EQ(t.num_duplex_links(), 17);
  EXPECT_TRUE(test::strongly_connected(t.g));
  expect_valid_duplex(t);
}

TEST(Topologies, CompleteShape) {
  const Topology t = complete(5);
  EXPECT_EQ(t.num_duplex_links(), 10);
  EXPECT_EQ(test::max_degree(t.g), 4);
  expect_valid_duplex(t);
}

TEST(Topologies, RandomConnectedIsConnectedAndDeterministic) {
  support::Rng rng1(7), rng2(7);
  const Topology a = random_connected(15, 10, rng1);
  const Topology b = random_connected(15, 10, rng2);
  EXPECT_TRUE(test::strongly_connected(a.g));
  EXPECT_EQ(a.num_duplex_links(), 14 + 10);
  ASSERT_EQ(a.g.num_edges(), b.g.num_edges());
  for (graph::EdgeId e = 0; e < a.g.num_edges(); ++e) {
    EXPECT_EQ(a.g.tail(e), b.g.tail(e));
    EXPECT_EQ(a.g.head(e), b.g.head(e));
  }
  expect_valid_duplex(a);
}

TEST(Topologies, RandomConnectedCapsExtraLinks) {
  support::Rng rng(3);
  const Topology t = random_connected(4, 1000, rng);
  EXPECT_EQ(t.num_duplex_links(), 6);  // complete graph on 4 nodes
}

TEST(Topologies, WaxmanConnectedAndSeeded) {
  support::Rng rng(11);
  const Topology t = waxman(20, 0.6, 0.4, rng);
  EXPECT_EQ(t.num_nodes(), 20);
  EXPECT_TRUE(test::strongly_connected(t.g));
  expect_valid_duplex(t);
}

TEST(Topologies, WaxmanDeterministicAndConnectedAtScale) {
  // n = 500 exercises the sorted-key overlay dedup on a draw large enough
  // that the old linear scan was the bottleneck; determinism given the RNG
  // is part of the documented contract (topologies.hpp).
  support::Rng rng1(23), rng2(23);
  const Topology a = waxman(500, 0.10, 0.15, rng1);
  const Topology b = waxman(500, 0.10, 0.15, rng2);
  EXPECT_EQ(a.num_nodes(), 500);
  EXPECT_TRUE(test::strongly_connected(a.g));
  ASSERT_EQ(a.g.num_edges(), b.g.num_edges());
  for (graph::EdgeId e = 0; e < a.g.num_edges(); ++e) {
    ASSERT_EQ(a.g.tail(e), b.g.tail(e));
    ASSERT_EQ(a.g.head(e), b.g.head(e));
  }
  expect_valid_duplex(a);
  // No duplicate duplex pair may survive the chain overlay.
  std::set<std::pair<graph::NodeId, graph::NodeId>> seen;
  for (graph::EdgeId e = 0; e < a.g.num_edges(); ++e) {
    if (a.g.tail(e) < a.g.head(e)) {
      EXPECT_TRUE(seen.emplace(a.g.tail(e), a.g.head(e)).second)
          << "duplicate duplex link " << a.g.tail(e) << "-" << a.g.head(e);
    }
  }
}

TEST(Topologies, GeoGridConnectedByConstruction) {
  // Even at chord_p extremes the backbone grid guarantees connectivity.
  for (const double p : {0.0, 0.35, 1.0}) {
    support::Rng rng(5);
    const Topology t = geo_grid(10, 25, p, rng);
    EXPECT_EQ(t.num_nodes(), 250);
    EXPECT_TRUE(test::strongly_connected(t.g));
    expect_valid_duplex(t);
    // Backbone size is fixed; chords only add.
    const int backbone = 10 * 24 + 9 * 25;
    EXPECT_GE(t.num_duplex_links(), backbone);
    EXPECT_LE(t.num_duplex_links(), backbone + 9 * 24);
    if (p == 0.0) {
      EXPECT_EQ(t.num_duplex_links(), backbone);
    }
    if (p == 1.0) {
      EXPECT_EQ(t.num_duplex_links(), backbone + 9 * 24);
    }
  }
}

TEST(Topologies, GeoGridDeterministicGivenRng) {
  support::Rng rng1(99), rng2(99);
  const Topology a = geo_grid(8, 8, 0.4, rng1);
  const Topology b = geo_grid(8, 8, 0.4, rng2);
  ASSERT_EQ(a.g.num_edges(), b.g.num_edges());
  for (graph::EdgeId e = 0; e < a.g.num_edges(); ++e) {
    ASSERT_EQ(a.g.tail(e), b.g.tail(e));
    ASSERT_EQ(a.g.head(e), b.g.head(e));
  }
}

TEST(Topologies, InvalidSizesRejected) {
  support::Rng rng(1);
  EXPECT_THROW(ring(2), std::logic_error);
  EXPECT_THROW(grid(1, 5), std::logic_error);
  EXPECT_THROW(random_connected(1, 0, rng), std::logic_error);
}

TEST(NetworkBuilder, FullInstallationUnitCosts) {
  support::Rng rng(1);
  NetworkOptions opt;
  opt.num_wavelengths = 4;
  const net::WdmNetwork n = build_network(nsfnet(), opt, rng);
  EXPECT_EQ(n.num_nodes(), 14);
  EXPECT_EQ(n.num_links(), 42);
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
    EXPECT_EQ(n.capacity(e), 4);
    EXPECT_DOUBLE_EQ(n.weight(e, 0), 1.0);
  }
  // Full conversion everywhere by default.
  EXPECT_TRUE(n.conversion(0).is_full());
}

TEST(NetworkBuilder, PartialInstallationKeepsOneWavelength) {
  support::Rng rng(2);
  NetworkOptions opt;
  opt.num_wavelengths = 8;
  opt.install_probability = 0.01;  // almost everything dropped
  const net::WdmNetwork n = build_network(ring(5), opt, rng);
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
    EXPECT_GE(n.capacity(e), 1);
  }
}

TEST(NetworkBuilder, LengthCostsUseFiberLength) {
  support::Rng rng(3);
  NetworkOptions opt;
  opt.num_wavelengths = 2;
  opt.cost_model = CostModel::kLength;
  const Topology topo = ring(4);
  const net::WdmNetwork n = build_network(topo, opt, rng);
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
    EXPECT_NEAR(n.weight(e, 0), topo.length[static_cast<std::size_t>(e)],
                1e-12);
  }
}

TEST(NetworkBuilder, PerWavelengthCostsDiffer) {
  support::Rng rng(4);
  NetworkOptions opt;
  opt.num_wavelengths = 8;
  opt.cost_model = CostModel::kRandomPerWavelength;
  const net::WdmNetwork n = build_network(ring(4), opt, rng);
  bool any_differ = false;
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
    for (net::Wavelength l = 1; l < 8; ++l) {
      if (n.weight(e, l) != n.weight(e, 0)) any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ);
}

TEST(NetworkBuilder, ConversionModels) {
  support::Rng rng(5);
  NetworkOptions opt;
  opt.num_wavelengths = 6;
  opt.conversion_model = ConversionModel::kNone;
  const net::WdmNetwork none = build_network(ring(3), opt, rng);
  EXPECT_FALSE(none.conversion(0).allowed(0, 1));

  opt.conversion_model = ConversionModel::kLimitedRange;
  opt.conversion_range = 1;
  const net::WdmNetwork lim = build_network(ring(3), opt, rng);
  EXPECT_TRUE(lim.conversion(0).allowed(0, 1));
  EXPECT_FALSE(lim.conversion(0).allowed(0, 2));
}

TEST(NetworkBuilder, Theorem2AssumptionCheck) {
  support::Rng rng(6);
  NetworkOptions opt;
  opt.num_wavelengths = 4;
  opt.conversion_cost = 0.5;  // <= unit link cost
  const net::WdmNetwork ok = build_network(ring(4), opt, rng);
  EXPECT_TRUE(satisfies_theorem2_assumption(ok));

  opt.conversion_cost = 2.0;  // > unit link cost
  const net::WdmNetwork bad = build_network(ring(4), opt, rng);
  EXPECT_FALSE(satisfies_theorem2_assumption(bad));
}

TEST(NetworkBuilder, NsfnetConvenience) {
  const net::WdmNetwork n = nsfnet_network(8, 0.5);
  EXPECT_EQ(n.num_nodes(), 14);
  EXPECT_EQ(n.W(), 8);
  EXPECT_TRUE(satisfies_theorem2_assumption(n));
}

}  // namespace
}  // namespace wdm::topo
