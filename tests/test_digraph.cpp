#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/dot.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace wdm::graph {
namespace {

TEST(Digraph, EmptyGraph) {
  Digraph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(test::max_degree(g), 0);
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
  EXPECT_EQ(test::max_degree(g), 3);
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
  const auto r = test::reachable_from(g, 0);
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
  const auto r = test::reachable_from(g, 0, mask);
  EXPECT_TRUE(r[0]);
  EXPECT_FALSE(r[1]);
  EXPECT_FALSE(r[2]);
}

TEST(Digraph, StronglyConnectedCycleYesChainNo) {
  Digraph cycle(3);
  cycle.add_edge(0, 1);
  cycle.add_edge(1, 2);
  cycle.add_edge(2, 0);
  EXPECT_TRUE(test::strongly_connected(cycle));

  Digraph chain(3);
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);
  EXPECT_FALSE(test::strongly_connected(chain));
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
  o.max_degree = test::max_degree(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    o.out.emplace_back(g.out_edges(v).begin(), g.out_edges(v).end());
    o.in.emplace_back(g.in_edges(v).begin(), g.in_edges(v).end());
    for (NodeId w = 0; w < g.num_nodes(); ++w) {
      o.find.push_back(g.find_edge(v, w));
    }
    o.reach.push_back(test::reachable_from(g, v));
    o.reach_masked.push_back(test::reachable_from(g, v, mask));
  }
  return o;
}

// The edge list's own answer to out_edges(v) (endpoint = tails) or
// in_edges(v) (endpoint = heads): the ascending ids of the edges at v.
std::vector<EdgeId> ids_at(const std::vector<NodeId>& endpoint, NodeId v) {
  std::vector<EdgeId> ids;
  for (std::size_t e = 0; e < endpoint.size(); ++e) {
    if (endpoint[e] == v) ids.push_back(static_cast<EdgeId>(e));
  }
  return ids;
}

// Checks every edge and every node block of `g` against the edge list.
void expect_matches(const Digraph& g, const std::vector<NodeId>& tails,
                    const std::vector<NodeId>& heads, NodeId nodes,
                    const std::string& ctx) {
  ASSERT_EQ(g.num_nodes(), nodes) << ctx;
  ASSERT_EQ(g.num_edges(), static_cast<EdgeId>(tails.size())) << ctx;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g.tail(e), tails[static_cast<std::size_t>(e)]) << ctx;
    EXPECT_EQ(g.head(e), heads[static_cast<std::size_t>(e)]) << ctx;
  }
  for (NodeId v = 0; v < nodes; ++v) {
    const auto out = g.out_edges(v);
    const auto in = g.in_edges(v);
    EXPECT_EQ(std::vector<EdgeId>(out.begin(), out.end()), ids_at(tails, v))
        << ctx << " out_edges(" << v << ")";
    EXPECT_EQ(std::vector<EdgeId>(in.begin(), in.end()), ids_at(heads, v))
        << ctx << " in_edges(" << v << ")";
  }
}

TEST(Digraph, AppendAndBulkBuildAgree) {
  support::Rng rng(0xc5a11ull);
  int parallel = 0;
  int loops = 0;
  int isolated = 0;
  for (int round = 0; round < 200; ++round) {
    const std::string ctx = "round " + std::to_string(round);
    const auto n = static_cast<NodeId>(rng.uniform_int(0, 12));
    Digraph appended(n);
    std::vector<NodeId> tails;
    std::vector<NodeId> heads;
    // add_node growth is interleaved with add_edge, and the whole graph is
    // checked after every step, so queries between growth steps are pinned.
    auto nodes_left = rng.uniform_int(0, 3);
    auto edges_left = rng.uniform_int(0, 4 * (n + nodes_left));
    while (nodes_left > 0 || edges_left > 0) {
      const NodeId total = appended.num_nodes();
      if (nodes_left > 0 &&
          (total == 0 || edges_left == 0 || rng.bernoulli(0.1))) {
        ASSERT_EQ(appended.add_node(), total) << ctx;
        --nodes_left;
      } else {
        const auto u = static_cast<NodeId>(rng.uniform_int(0, total - 1));
        // Bias towards repeats: a small head range makes parallel edges and
        // self-loops common.
        const auto v = rng.bernoulli(0.2)
                           ? u
                           : static_cast<NodeId>(rng.uniform_int(
                                 0, std::min<NodeId>(total - 1, u + 2)));
        if (appended.find_edge(u, v) != kInvalidEdge) ++parallel;
        if (u == v) ++loops;
        ASSERT_EQ(appended.add_edge(u, v), static_cast<EdgeId>(tails.size()))
            << ctx;
        tails.push_back(u);
        heads.push_back(v);
        --edges_left;
      }
      expect_matches(appended, tails, heads, appended.num_nodes(), ctx);
    }
    const NodeId total = appended.num_nodes();
    for (NodeId v = 0; v < total; ++v) {
      if (appended.out_degree(v) == 0 && appended.in_degree(v) == 0) {
        ++isolated;
      }
    }

    const Digraph bulk(total, tails, heads);
    expect_matches(bulk, tails, heads, total, ctx + " bulk");
    std::vector<std::uint8_t> mask(tails.size());
    for (std::uint8_t& on : mask) on = rng.bernoulli(0.7) ? 1 : 0;
    EXPECT_TRUE(observe(bulk, mask) == observe(appended, mask)) << ctx;
  }
  // The generator must produce every shape the test is about.
  EXPECT_GT(parallel, 0);
  EXPECT_GT(loops, 0);
  EXPECT_GT(isolated, 0);
}

TEST(Digraph, BulkBuildRejectsBadInput) {
  EXPECT_THROW(Digraph(2, {0, 1}, {1}), std::logic_error);   // sizes differ
  EXPECT_THROW(Digraph(2, {0, 2}, {1, 0}), std::logic_error);  // tail >= n
  EXPECT_THROW(Digraph(2, {0, 1}, {1, -1}), std::logic_error);  // head < 0
  EXPECT_THROW(Digraph(0, {0}, {0}), std::logic_error);  // no nodes at all
  EXPECT_THROW(Digraph(-1, {}, {}), std::logic_error);
  const Digraph g(2, {0, 1}, {1, 0});
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(test::strongly_connected(g));
}

TEST(Dot, ContainsNodesAndEdges) {
  Digraph g(2);
  g.add_edge(0, 1);
  DotOptions opt;
  opt.node_label = [](NodeId v) {
    std::string label = "v";  // +=: GCC 12 warns -Wrestrict on "v" + string
    label += std::to_string(v);
    return label;
  };
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
