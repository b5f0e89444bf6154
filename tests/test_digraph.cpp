#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/dot.hpp"
#include "support/rng.hpp"

namespace wdm::graph {
namespace {

TEST(Digraph, EmptyGraph) {
  Digraph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(Digraph, AddNodesAndEdges) {
  Digraph g(3);
  EXPECT_EQ(g.num_nodes(), 3);
  const EdgeId e0 = g.add_edge(0, 1);
  const EdgeId e1 = g.add_edge(1, 2);
  const EdgeId e2 = g.add_edge(0, 2);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.tail(e0), 0);
  EXPECT_EQ(g.head(e0), 1);
  EXPECT_EQ(g.out_degree(0), 2);
  EXPECT_EQ(g.in_degree(2), 2);
  EXPECT_EQ(g.out_degree(2), 0);
  (void)e1;
  (void)e2;
}

TEST(Digraph, AddNodeGrows) {
  Digraph g(1);
  const NodeId v = g.add_node();
  EXPECT_EQ(v, 1);
  EXPECT_EQ(g.num_nodes(), 2);
  g.add_edge(0, v);
  EXPECT_EQ(g.in_degree(v), 1);
}

TEST(Digraph, ParallelEdgesAreDistinct) {
  Digraph g(2);
  const EdgeId a = g.add_edge(0, 1);
  const EdgeId b = g.add_edge(0, 1);
  EXPECT_NE(a, b);
  EXPECT_EQ(g.out_degree(0), 2);
}

TEST(Digraph, SelfLoopAllowed) {
  Digraph g(1);
  const EdgeId e = g.add_edge(0, 0);
  EXPECT_EQ(g.tail(e), g.head(e));
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.in_degree(0), 1);
}

TEST(Digraph, InvalidEndpointThrows) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(0, 2), std::logic_error);
  EXPECT_THROW(g.add_edge(-1, 1), std::logic_error);
}

TEST(Digraph, FindEdge) {
  Digraph g(3);
  const EdgeId e = g.add_edge(0, 1);
  EXPECT_EQ(g.find_edge(0, 1), e);
  EXPECT_EQ(g.find_edge(1, 0), kInvalidEdge);
  EXPECT_EQ(g.find_edge(0, 2), kInvalidEdge);
}

TEST(Digraph, MaxDegree) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 0);
  EXPECT_EQ(g.max_degree(), 3);
}

TEST(Digraph, OutEdgesInInsertionOrder) {
  Digraph g(3);
  const EdgeId a = g.add_edge(0, 1);
  const EdgeId b = g.add_edge(0, 2);
  const auto out = g.out_edges(0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], a);
  EXPECT_EQ(out[1], b);
}

TEST(Digraph, ReachableFrom) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  // node 3 isolated
  const auto r = g.reachable_from(0);
  EXPECT_TRUE(r[0]);
  EXPECT_TRUE(r[1]);
  EXPECT_TRUE(r[2]);
  EXPECT_FALSE(r[3]);
}

TEST(Digraph, ReachableRespectsMask) {
  Digraph g(3);
  const EdgeId e01 = g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::vector<std::uint8_t> mask(2, 1);
  mask[static_cast<std::size_t>(e01)] = 0;
  const auto r = g.reachable_from(0, mask);
  EXPECT_TRUE(r[0]);
  EXPECT_FALSE(r[1]);
  EXPECT_FALSE(r[2]);
}

TEST(Digraph, ReversedSwapsEndpoints) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const Digraph r = g.reversed();
  EXPECT_EQ(r.tail(0), 1);
  EXPECT_EQ(r.head(0), 0);
  EXPECT_EQ(r.tail(1), 2);
  EXPECT_EQ(r.head(1), 1);
}

TEST(Digraph, StronglyConnectedCycleYesChainNo) {
  Digraph cycle(3);
  cycle.add_edge(0, 1);
  cycle.add_edge(1, 2);
  cycle.add_edge(2, 0);
  EXPECT_TRUE(cycle.strongly_connected());

  Digraph chain(3);
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);
  EXPECT_FALSE(chain.strongly_connected());
}

// Everything a reader can observe of a graph's structure, in a form two
// graphs can be compared by.
struct Observed {
  NodeId nodes = 0;
  EdgeId edges = 0;
  int max_degree = 0;
  std::vector<std::vector<EdgeId>> out;
  std::vector<std::vector<EdgeId>> in;
  std::vector<EdgeId> find;  // find_edge(u, v) at u * nodes + v
  std::vector<std::vector<std::uint8_t>> reach;  // reachable_from(v)
  std::vector<std::vector<std::uint8_t>> reach_masked;

  bool operator==(const Observed&) const = default;
};

Observed observe(const Digraph& g, const std::vector<std::uint8_t>& mask) {
  Observed o;
  o.nodes = g.num_nodes();
  o.edges = g.num_edges();
  o.max_degree = g.max_degree();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    o.out.emplace_back(g.out_edges(v).begin(), g.out_edges(v).end());
    o.in.emplace_back(g.in_edges(v).begin(), g.in_edges(v).end());
    for (NodeId w = 0; w < g.num_nodes(); ++w) {
      o.find.push_back(g.find_edge(v, w));
    }
    o.reach.push_back(g.reachable_from(v));
    o.reach_masked.push_back(g.reachable_from(v, mask));
  }
  return o;
}

TEST(Digraph, FinalizeCsrPreservesAdjacency) {
  support::Rng rng(0xc5a11ull);
  int parallel = 0;
  int loops = 0;
  int isolated = 0;
  for (int round = 0; round < 200; ++round) {
    const auto n = static_cast<NodeId>(rng.uniform_int(0, 12));
    Digraph g(n);
    // Grow some nodes through add_node as well as the constructor.
    const auto extra = static_cast<NodeId>(rng.uniform_int(0, 3));
    for (NodeId k = 0; k < extra; ++k) g.add_node();
    const NodeId total = g.num_nodes();
    const auto m = total == 0 ? 0 : rng.uniform_int(0, 4 * total);
    for (std::int64_t k = 0; k < m; ++k) {
      const auto u = static_cast<NodeId>(rng.uniform_int(0, total - 1));
      // Bias towards repeats: a small head range makes parallel edges and
      // self-loops common.
      const auto v = rng.bernoulli(0.2)
                         ? u
                         : static_cast<NodeId>(rng.uniform_int(
                               0, std::min<NodeId>(total - 1, u + 2)));
      if (g.find_edge(u, v) != kInvalidEdge) ++parallel;
      if (u == v) ++loops;
      g.add_edge(u, v);
    }
    for (NodeId v = 0; v < total; ++v) {
      if (g.out_degree(v) == 0 && g.in_degree(v) == 0) ++isolated;
    }
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(g.num_edges()));
    for (std::uint8_t& on : mask) on = rng.bernoulli(0.7) ? 1 : 0;

    const Observed before = observe(g, mask);
    g.finalize_csr();
    EXPECT_TRUE(observe(g, mask) == before) << "round " << round;
    g.finalize_csr();  // idempotent
    EXPECT_TRUE(observe(g, mask) == before) << "round " << round;
  }
  // The generator must produce every shape the test is about.
  EXPECT_GT(parallel, 0);
  EXPECT_GT(loops, 0);
  EXPECT_GT(isolated, 0);
}

TEST(Digraph, FinalizedGraphRejectsMutation) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize_csr();
  EXPECT_THROW(g.add_node(), std::logic_error);
  EXPECT_THROW(g.add_edge(0, 2), std::logic_error);
  // The failed calls left the frozen graph as it was.
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  ASSERT_EQ(g.out_edges(0).size(), 1u);
  EXPECT_EQ(g.out_edges(0)[0], 0);
  EXPECT_EQ(g.in_edges(2)[0], 1);
}

TEST(Dot, ContainsNodesAndEdges) {
  Digraph g(2);
  g.add_edge(0, 1);
  DotOptions opt;
  opt.node_label = [](NodeId v) { return "v" + std::to_string(v); };
  opt.edge_label = [](EdgeId) { return std::string("e"); };
  opt.edge_highlight = [](EdgeId) { return true; };
  const std::string dot = to_dot(g, opt);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  EXPECT_NE(dot.find("label=\"v0\""), std::string::npos);
}

}  // namespace
}  // namespace wdm::graph
