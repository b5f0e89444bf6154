#include <gtest/gtest.h>

#include "graph/maxflow.hpp"
#include "graph/mincostflow.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace wdm::graph {
namespace {

TEST(Dinic, SingleArc) {
  Dinic d(2);
  d.add_arc(0, 1, 5);
  EXPECT_EQ(d.max_flow(0, 1), 5);
}

TEST(Dinic, BottleneckLimits) {
  Dinic d(3);
  d.add_arc(0, 1, 10);
  d.add_arc(1, 2, 3);
  EXPECT_EQ(d.max_flow(0, 2), 3);
}

TEST(Dinic, ParallelPathsAdd) {
  Dinic d(4);
  d.add_arc(0, 1, 2);
  d.add_arc(1, 3, 2);
  d.add_arc(0, 2, 3);
  d.add_arc(2, 3, 3);
  EXPECT_EQ(d.max_flow(0, 3), 5);
}

TEST(Dinic, ClassicExample) {
  // CLRS-style example with a known max flow of 23.
  Dinic d(6);
  d.add_arc(0, 1, 16);
  d.add_arc(0, 2, 13);
  d.add_arc(1, 2, 10);
  d.add_arc(2, 1, 4);
  d.add_arc(1, 3, 12);
  d.add_arc(3, 2, 9);
  d.add_arc(2, 4, 14);
  d.add_arc(4, 3, 7);
  d.add_arc(3, 5, 20);
  d.add_arc(4, 5, 4);
  EXPECT_EQ(d.max_flow(0, 5), 23);
}

TEST(Dinic, FlowOnArcsConserves) {
  Dinic d(4);
  const int a = d.add_arc(0, 1, 2);
  const int b = d.add_arc(1, 3, 2);
  const int c = d.add_arc(0, 2, 3);
  const int e = d.add_arc(2, 3, 3);
  EXPECT_EQ(d.max_flow(0, 3), 5);
  EXPECT_EQ(d.flow_on(a), 2);
  EXPECT_EQ(d.flow_on(b), 2);
  EXPECT_EQ(d.flow_on(c), 3);
  EXPECT_EQ(d.flow_on(e), 3);
}

TEST(EdgeDisjointCount, TrapGraphHasTwo) {
  // The classic "trap": greedy shortest path blocks both disjoint routes,
  // but two disjoint paths exist.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.add_edge(1, 2);
  EXPECT_EQ(edge_disjoint_path_count(g, 0, 3), 2);
}

TEST(EdgeDisjointCount, RespectsMask) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  std::vector<std::uint8_t> mask{1, 0};
  EXPECT_EQ(edge_disjoint_path_count(g, 0, 1), 2);
  EXPECT_EQ(edge_disjoint_path_count(g, 0, 1, mask), 1);
}

TEST(MinCostFlow, PicksCheaperPathFirst) {
  MinCostFlow mcf(4);
  mcf.add_arc(0, 1, 1, 1.0);
  mcf.add_arc(1, 3, 1, 1.0);
  mcf.add_arc(0, 2, 1, 5.0);
  mcf.add_arc(2, 3, 1, 5.0);
  const auto r1 = mcf.min_cost_flow(0, 3, 1);
  EXPECT_EQ(r1.flow, 1);
  EXPECT_DOUBLE_EQ(r1.cost, 2.0);
}

TEST(MinCostFlow, TwoUnitsTotalCost) {
  MinCostFlow mcf(4);
  mcf.add_arc(0, 1, 1, 1.0);
  mcf.add_arc(1, 3, 1, 1.0);
  mcf.add_arc(0, 2, 1, 5.0);
  mcf.add_arc(2, 3, 1, 5.0);
  const auto r = mcf.min_cost_flow(0, 3, 2);
  EXPECT_EQ(r.flow, 2);
  EXPECT_DOUBLE_EQ(r.cost, 12.0);
}

TEST(MinCostFlow, ReroutesViaResidual) {
  // Trap graph: the 2-unit min-cost flow must avoid the greedy middle edge.
  MinCostFlow mcf(4);
  mcf.add_arc(0, 1, 1, 1.0);
  mcf.add_arc(1, 2, 1, 0.1);
  mcf.add_arc(2, 3, 1, 1.0);
  mcf.add_arc(1, 3, 1, 3.0);
  mcf.add_arc(0, 2, 1, 3.0);
  const auto r = mcf.min_cost_flow(0, 3, 2);
  EXPECT_EQ(r.flow, 2);
  EXPECT_DOUBLE_EQ(r.cost, 8.0);  // 0-1-3 (4) + 0-2-3 (4)
}

TEST(MinCostFlow, ReportsPartialFlow) {
  MinCostFlow mcf(2);
  mcf.add_arc(0, 1, 1, 1.0);
  const auto r = mcf.min_cost_flow(0, 1, 3);
  EXPECT_EQ(r.flow, 1);
}

TEST(MinCostFlow, RejectsNegativeCosts) {
  MinCostFlow mcf(2);
  EXPECT_THROW(mcf.add_arc(0, 1, 1, -1.0), std::logic_error);
}

TEST(MinCostDisjointPaths, FindsPairOnTrap) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  std::vector<double> w{1.0, 0.1, 1.0, 3.0, 3.0};
  const auto paths = min_cost_disjoint_paths(g, w, 0, 3, 2);
  ASSERT_TRUE(paths.has_value());
  ASSERT_EQ(paths->size(), 2u);
  EXPECT_TRUE(test::edge_disjoint((*paths)[0], (*paths)[1]));
  EXPECT_DOUBLE_EQ((*paths)[0].cost + (*paths)[1].cost, 8.0);
}

TEST(MinCostDisjointPaths, NulloptWhenOnlyOnePath) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::vector<double> w{1, 1};
  EXPECT_FALSE(min_cost_disjoint_paths(g, w, 0, 2, 2).has_value());
}

}  // namespace
}  // namespace wdm::graph
