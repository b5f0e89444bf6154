#include <gtest/gtest.h>

#include "graph/bellman_ford.hpp"
#include "graph/dijkstra.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace wdm::graph {
namespace {

TEST(Dijkstra, SingleEdge) {
  Digraph g(2);
  g.add_edge(0, 1);
  std::vector<double> w{2.5};
  const auto tree = dijkstra(g, w, 0);
  EXPECT_DOUBLE_EQ(tree.distance(1), 2.5);
  const Path p = extract_path(g, tree, 1);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.edges.size(), 1u);
  EXPECT_DOUBLE_EQ(p.cost, 2.5);
}

TEST(Dijkstra, PrefersCheaperIndirectRoute) {
  Digraph g(3);
  g.add_edge(0, 2);  // direct, cost 10
  g.add_edge(0, 1);  // via 1, cost 2 + 3
  g.add_edge(1, 2);
  std::vector<double> w{10, 2, 3};
  const Path p = shortest_path(g, w, 0, 2);
  ASSERT_TRUE(p.found);
  EXPECT_DOUBLE_EQ(p.cost, 5.0);
  EXPECT_EQ(p.edges.size(), 2u);
}

TEST(Dijkstra, UnreachableTarget) {
  Digraph g(3);
  g.add_edge(0, 1);
  std::vector<double> w{1};
  const Path p = shortest_path(g, w, 0, 2);
  EXPECT_FALSE(p.found);
}

TEST(Dijkstra, SourceToItselfZero) {
  Digraph g(2);
  g.add_edge(0, 1);
  std::vector<double> w{1};
  const auto tree = dijkstra(g, w, 0);
  EXPECT_DOUBLE_EQ(tree.distance(0), 0.0);
  const Path p = extract_path(g, tree, 0);
  ASSERT_TRUE(p.found);
  EXPECT_TRUE(p.edges.empty());
}

TEST(Dijkstra, EdgeMaskExcludesEdges) {
  Digraph g(2);
  const EdgeId cheap = g.add_edge(0, 1);
  g.add_edge(0, 1);
  std::vector<double> w{1, 5};
  std::vector<std::uint8_t> mask{0, 1};
  (void)cheap;
  const Path p = shortest_path(g, w, 0, 1, mask);
  ASSERT_TRUE(p.found);
  EXPECT_DOUBLE_EQ(p.cost, 5.0);
}

TEST(Dijkstra, ZeroWeightsHandled) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::vector<double> w{0, 0};
  const Path p = shortest_path(g, w, 0, 2);
  ASSERT_TRUE(p.found);
  EXPECT_DOUBLE_EQ(p.cost, 0.0);
}

TEST(Dijkstra, ParallelEdgesPickCheapest) {
  Digraph g(2);
  g.add_edge(0, 1);
  const EdgeId cheap = g.add_edge(0, 1);
  std::vector<double> w{7, 3};
  const Path p = shortest_path(g, w, 0, 1);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.edges[0], cheap);
}

TEST(BellmanFord, MatchesDijkstraOnSmallGraph) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  std::vector<double> w{1, 1, 5, 2};
  const auto d = dijkstra(g, w, 0);
  const auto b = bellman_ford(g, w, 0);
  ASSERT_TRUE(b.has_value());
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_DOUBLE_EQ(d.distance(v), b->distance(v));
  }
}

TEST(BellmanFord, HandlesNegativeEdges) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  std::vector<double> w{4, -2, 3};
  const auto b = bellman_ford(g, w, 0);
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(b->distance(2), 2.0);
}

TEST(BellmanFord, DetectsNegativeCycle) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  std::vector<double> w{1, -3};
  EXPECT_FALSE(bellman_ford(g, w, 0).has_value());
}

TEST(BellmanFord, NegativeCycleUnreachableIsFine) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(3, 2);
  std::vector<double> w{1, -1, -1};
  const auto b = bellman_ford(g, w, 0);
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(b->distance(1), 1.0);
  EXPECT_FALSE(b->reached(2));
}

// Property: Dijkstra agrees with Bellman-Ford on random nonnegative graphs.
class DijkstraPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DijkstraPropertyTest, AgreesWithBellmanFordAllBackends) {
  support::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 2 + static_cast<int>(rng.uniform_int(0, 38));
  const int m = static_cast<int>(rng.uniform_int(1, 4 * n));
  const auto [g, w] = test::random_digraph(n, m, rng, 0.0, 10.0);
  const NodeId src = static_cast<NodeId>(rng.uniform_int(0, n - 1));

  const auto ref = bellman_ford(g, w, src);
  ASSERT_TRUE(ref.has_value());
  const auto d = dijkstra(g, w, src);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!ref->reached(v)) {
      EXPECT_FALSE(d.reached(v));
      continue;
    }
    EXPECT_NEAR(d.distance(v), ref->distance(v), 1e-9);
  }
}

TEST_P(DijkstraPropertyTest, ExtractedPathCostMatchesDistance) {
  support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 3);
  const int n = 2 + static_cast<int>(rng.uniform_int(0, 18));
  const int m = static_cast<int>(rng.uniform_int(1, 3 * n));
  const auto [g, w] = test::random_digraph(n, m, rng);
  const auto tree = dijkstra(g, w, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!tree.reached(v)) continue;
    const Path p = extract_path(g, tree, v);
    ASSERT_TRUE(p.found);
    EXPECT_TRUE(p.contiguous_in(g));
    EXPECT_NEAR(path_weight(p, w), tree.distance(v), 1e-9);
    if (!p.edges.empty()) {
      EXPECT_EQ(g.tail(p.edges.front()), 0);
      EXPECT_EQ(g.head(p.edges.back()), v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, DijkstraPropertyTest,
                         ::testing::Range(0, 25));

TEST(Path, EdgeDisjointHelpers) {
  Digraph g(4);
  const EdgeId a = g.add_edge(0, 1);
  const EdgeId b = g.add_edge(1, 3);
  const EdgeId c = g.add_edge(0, 2);
  const EdgeId d = g.add_edge(2, 3);
  Path p1;
  p1.found = true;
  p1.edges = {a, b};
  Path p2;
  p2.found = true;
  p2.edges = {c, d};
  EXPECT_TRUE(test::edge_disjoint(p1, p2));
  EXPECT_TRUE(test::internally_node_disjoint(p1, p2, g));
  Path p3;
  p3.found = true;
  p3.edges = {a, b};
  EXPECT_FALSE(test::edge_disjoint(p1, p3));
}

}  // namespace
}  // namespace wdm::graph
