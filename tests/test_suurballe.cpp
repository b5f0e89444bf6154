#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/maxflow.hpp"
#include "graph/mincostflow.hpp"
#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "theta_oracle.hpp"
#include "topology/network_builder.hpp"
#include "topology/topologies.hpp"

namespace wdm::graph {
namespace {

/// The classic trap graph: the shortest path 0-1-2-3 uses the middle edge
/// both disjoint routes need; naive two-step fails, Suurballe recovers.
struct Trap {
  Digraph g{4};
  std::vector<double> w;
  Trap() {
    g.add_edge(0, 1);  // 1
    g.add_edge(1, 2);  // 0.1
    g.add_edge(2, 3);  // 1
    g.add_edge(1, 3);  // 3
    g.add_edge(0, 2);  // 3
    w = {1.0, 0.1, 1.0, 3.0, 3.0};
  }
};

TEST(Suurballe, SolvesTrapGraph) {
  Trap trap;
  const DisjointPair pair = suurballe(trap.g, trap.w, 0, 3);
  ASSERT_TRUE(pair.found);
  EXPECT_TRUE(test::edge_disjoint(pair.first, pair.second));
  EXPECT_DOUBLE_EQ(pair.total_cost(), 8.0);
}

TEST(Suurballe, NaiveTwoStepFailsTrapGraph) {
  Trap trap;
  const DisjointPair naive = naive_two_step(trap.g, trap.w, 0, 3);
  EXPECT_FALSE(naive.found);  // removing 0-1-2-3 disconnects the rest
}

TEST(Suurballe, SimpleDiamond) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  std::vector<double> w{1, 1, 2, 2};
  const DisjointPair pair = suurballe(g, w, 0, 3);
  ASSERT_TRUE(pair.found);
  EXPECT_DOUBLE_EQ(pair.first.cost, 2.0);   // cheaper path first
  EXPECT_DOUBLE_EQ(pair.second.cost, 4.0);
}

TEST(Suurballe, NotFoundWhenSinglePathOnly) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::vector<double> w{1, 1};
  EXPECT_FALSE(suurballe(g, w, 0, 2).found);
}

TEST(Suurballe, NotFoundWhenUnreachable) {
  Digraph g(3);
  g.add_edge(0, 1);
  std::vector<double> w{1};
  EXPECT_FALSE(suurballe(g, w, 0, 2).found);
}

TEST(Suurballe, RequiresDistinctEndpoints) {
  Digraph g(2);
  g.add_edge(0, 1);
  std::vector<double> w{1};
  EXPECT_THROW(suurballe(g, w, 0, 0), std::logic_error);
}

TEST(Suurballe, ParallelEdgesFormAPair) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  std::vector<double> w{1, 4};
  const DisjointPair pair = suurballe(g, w, 0, 1);
  ASSERT_TRUE(pair.found);
  EXPECT_DOUBLE_EQ(pair.total_cost(), 5.0);
}

TEST(Suurballe, RespectsEdgeMask) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  std::vector<double> w{1, 4, 9};
  std::vector<std::uint8_t> mask{0, 1, 1};
  const DisjointPair pair = suurballe(g, w, 0, 1, mask);
  ASSERT_TRUE(pair.found);
  EXPECT_DOUBLE_EQ(pair.total_cost(), 13.0);
}

TEST(Suurballe, ZeroWeightGraph) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  std::vector<double> w{0, 0, 0, 0};
  const DisjointPair pair = suurballe(g, w, 0, 3);
  ASSERT_TRUE(pair.found);
  EXPECT_DOUBLE_EQ(pair.total_cost(), 0.0);
}

class SuurballePropertyTest : public ::testing::TestWithParam<int> {};

/// Suurballe against the min-cost-flow oracle on one instance. The oracle
/// sees the same subgraph: masked and +inf arcs are left out of it. `h` is
/// the potential span Suurballe runs with (empty: none).
void expect_matches_oracle(const Digraph& g, const std::vector<double>& w,
                           NodeId s, NodeId t,
                           const std::vector<std::uint8_t>& mask,
                           const std::string& ctx,
                           std::span<const double> h = {}) {
  std::vector<std::uint8_t> usable(w.size(), 1);
  for (std::size_t e = 0; e < w.size(); ++e) {
    usable[e] = (mask.empty() || mask[e] != 0) && w[e] < kInf ? 1 : 0;
  }
  SuurballeWorkspace ws;
  DisjointPair pair;
  suurballe_into(g, w, s, t, mask, &ws, &pair, h);
  const auto oracle = min_cost_disjoint_paths(g, w, s, t, 2, usable);

  ASSERT_EQ(pair.found, oracle.has_value()) << ctx;
  if (!pair.found) return;
  EXPECT_TRUE(test::edge_disjoint(pair.first, pair.second)) << ctx;
  EXPECT_TRUE(pair.first.contiguous_in(g)) << ctx;
  EXPECT_TRUE(pair.second.contiguous_in(g)) << ctx;
  for (const Path* p : {&pair.first, &pair.second}) {
    for (EdgeId e : p->edges) {
      EXPECT_TRUE(usable[static_cast<std::size_t>(e)]) << ctx << " arc " << e;
    }
  }
  const double oracle_cost = (*oracle)[0].cost + (*oracle)[1].cost;
  EXPECT_NEAR(pair.total_cost(), oracle_cost, 1e-6) << ctx;
}

/// The instances MatchesMinCostFlowOracle checks for parameter `param`: a
/// random digraph from 0 to n - 1, then eight variants that stress round 1's
/// early stop and the round-2 potentials — labels left tentative or +inf
/// beyond t, arcs masked out of the subgraph, +inf arcs, and equal-cost ties
/// from zero and repeated small integer weights. Each variant draws its own
/// (s, t), so t sits both near and far from s. Calls
/// fn(g, w, s, t, mask, ctx) for each.
template <class F>
void for_each_oracle_case(int param, F&& fn) {
  support::Rng rng(static_cast<std::uint64_t>(param) * 7919 + 13);
  const int n = 4 + static_cast<int>(rng.uniform_int(0, 26));
  const int m = static_cast<int>(rng.uniform_int(n, 5 * n));
  const auto [g, w] = test::random_digraph(n, m, rng);
  fn(g, w, NodeId{0}, static_cast<NodeId>(n - 1),
     std::vector<std::uint8_t>{}, std::string("plain"));
  for (int variant = 0; variant < 8; ++variant) {
    std::vector<double> wv = w;
    for (double& x : wv) {
      const double dice = rng.uniform();
      if (variant % 2 == 1) x = static_cast<double>(rng.uniform_int(0, 3));
      if (dice < 0.15) x = 0.0;
      if (dice > 0.9) x = kInf;
    }
    std::vector<std::uint8_t> mask;
    if (variant >= 4) {
      mask.resize(static_cast<std::size_t>(m));
      for (auto& bit : mask) bit = rng.uniform() < 0.8 ? 1 : 0;
    }
    const auto vs = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    auto vt = vs;
    while (vt == vs) vt = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    fn(g, wv, vs, vt, mask, "variant " + std::to_string(variant));
  }
}

/// Exact distance from every node to t over the enabled finite arcs, by
/// Bellman–Ford on the reversed arcs: the tightest consistent bound.
std::vector<double> distances_to(const Digraph& g, const std::vector<double>& w,
                                 NodeId t,
                                 const std::vector<std::uint8_t>& mask) {
  std::vector<double> d(static_cast<std::size_t>(g.num_nodes()), kInf);
  d[static_cast<std::size_t>(t)] = 0.0;
  for (NodeId round = 0; round < g.num_nodes(); ++round) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto i = static_cast<std::size_t>(e);
      if (!mask.empty() && mask[i] == 0) continue;
      const auto u = static_cast<std::size_t>(g.tail(e));
      const double via = w[i] + d[static_cast<std::size_t>(g.head(e))];
      if (via < d[u]) d[u] = via;
    }
  }
  return d;
}

TEST_P(SuurballePropertyTest, MatchesMinCostFlowOracle) {
  for_each_oracle_case(GetParam(), [](const Digraph& g,
                                      const std::vector<double>& w, NodeId s,
                                      NodeId t,
                                      const std::vector<std::uint8_t>& mask,
                                      const std::string& ctx) {
    expect_matches_oracle(g, w, s, t, mask, ctx);
  });
}

// The same instances, goal-directed. The digraph plays the physical graph's
// part: h is its exact distance to t, as the arena's bound is exact on the
// physical graph per request. Three spans: over the case's own subgraph;
// over every finite arc, so a mask makes it strictly loose (a bound taken
// before a mask, like the ϑ_max arena's under a rung's mask); and half the
// latter (consistent whenever h is, since w >= 0), which leaves ties among
// nodes the exact bound would separate.
TEST_P(SuurballePropertyTest, GoalDirectedMatchesMinCostFlowOracle) {
  for_each_oracle_case(GetParam(), [](const Digraph& g,
                                      const std::vector<double>& w, NodeId s,
                                      NodeId t,
                                      const std::vector<std::uint8_t>& mask,
                                      const std::string& ctx) {
    const std::vector<double> own = distances_to(g, w, t, mask);
    const std::vector<double> unmasked = distances_to(g, w, t, {});
    std::vector<double> half = unmasked;
    for (double& x : half) x *= 0.5;
    expect_matches_oracle(g, w, s, t, mask, ctx + " h own", own);
    expect_matches_oracle(g, w, s, t, mask, ctx + " h unmasked", unmasked);
    expect_matches_oracle(g, w, s, t, mask, ctx + " h half", half);
  });
}

TEST_P(SuurballePropertyTest, FoundIffEdgeConnectivityAtLeastTwo) {
  support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  const int n = 4 + static_cast<int>(rng.uniform_int(0, 16));
  const int m = static_cast<int>(rng.uniform_int(n - 1, 3 * n));
  const auto [g, w] = test::random_digraph(n, m, rng);
  const DisjointPair pair = suurballe(g, w, 0, static_cast<NodeId>(n - 1));
  const int connectivity =
      edge_disjoint_path_count(g, 0, static_cast<NodeId>(n - 1));
  EXPECT_EQ(pair.found, connectivity >= 2);
}

TEST_P(SuurballePropertyTest, NaiveNeverBeatsSuurballe) {
  support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 1);
  const int n = 4 + static_cast<int>(rng.uniform_int(0, 16));
  const int m = static_cast<int>(rng.uniform_int(n, 4 * n));
  const auto [g, w] = test::random_digraph(n, m, rng);
  const NodeId t = static_cast<NodeId>(n - 1);
  const DisjointPair sb = suurballe(g, w, 0, t);
  const DisjointPair nv = naive_two_step(g, w, 0, t);
  if (nv.found) {
    ASSERT_TRUE(sb.found);  // naive success implies a pair exists
    EXPECT_LE(sb.total_cost(), nv.total_cost() + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SuurballePropertyTest,
                         ::testing::Range(0, 30));

TEST(SuurballeWorkspace, ReuseMatchesFreshSolveBitForBit) {
  // One workspace and one result object carried across solves of random
  // digraphs whose size jumps up and down (every large graph is followed by
  // a small one), with and without edge masks, with zero-weight ties and
  // +inf arcs. Stale state from an earlier, larger solve must never leak:
  // every solve equals a fresh-workspace solve in edges and cost bits.
  support::Rng rng(0x5ca1ab1e);
  SuurballeWorkspace ws;
  DisjointPair reused;
  int found = 0;
  for (int round = 0; round < 200; ++round) {
    const int n = round % 2 == 0 ? 20 + static_cast<int>(rng.uniform_int(0, 40))
                                 : 3 + static_cast<int>(rng.uniform_int(0, 6));
    const int m = static_cast<int>(rng.uniform_int(n, 4 * n));
    auto [g, w] = test::random_digraph(n, m, rng);
    for (double& x : w) {
      const double dice = rng.uniform();
      if (dice < 0.1) x = 0.0;
      if (dice > 0.95) x = kInf;
    }
    std::vector<std::uint8_t> mask;
    if (rng.uniform() < 0.5) {
      mask.resize(static_cast<std::size_t>(m));
      for (auto& bit : mask) bit = rng.uniform() < 0.85 ? 1 : 0;
    }
    const NodeId s = 0;
    const NodeId t = static_cast<NodeId>(n - 1);

    suurballe_into(g, w, s, t, mask, &ws, &reused);
    SuurballeWorkspace fresh_ws;
    DisjointPair fresh;
    suurballe_into(g, w, s, t, mask, &fresh_ws, &fresh);

    const std::string ctx = "round " + std::to_string(round);
    ASSERT_EQ(reused.found, fresh.found) << ctx;
    EXPECT_EQ(reused.first.found, fresh.first.found) << ctx;
    EXPECT_EQ(reused.second.found, fresh.second.found) << ctx;
    EXPECT_EQ(reused.first.edges, fresh.first.edges) << ctx;
    EXPECT_EQ(reused.second.edges, fresh.second.edges) << ctx;
    EXPECT_EQ(reused.first.cost, fresh.first.cost) << ctx;
    EXPECT_EQ(reused.second.cost, fresh.second.cost) << ctx;
    if (!reused.found) continue;
    ++found;
    EXPECT_TRUE(test::edge_disjoint(reused.first, reused.second)) << ctx;
    const DisjointPair classic = suurballe(g, w, s, t, mask);
    EXPECT_EQ(classic.first.edges, reused.first.edges) << ctx;
    EXPECT_EQ(classic.second.edges, reused.second.edges) << ctx;
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(found, 20);
  EXPECT_LT(found, 200);
}

TEST(SuurballeWorkspace, RoundOneStopsWhenTargetSettles) {
  // A diamond s -> {a, b} -> t with d(t) = 2, plus two long tails of nodes
  // that all lie beyond t: a 60-node chain hanging off t and a 60-node chain
  // off s whose first arc already costs more than d(t). Round 1 must stop
  // once t settles, so it settles no node with d > d(t); round 2, on the
  // potentials min(d, d(t)), must not wander into the tails either.
  const NodeId s = 0, a = 1, b = 2, t = 3;
  const int tail = 60;
  Digraph g(4 + 2 * tail);
  std::vector<double> w;
  auto arc = [&](NodeId u, NodeId v, double x) {
    g.add_edge(u, v);
    w.push_back(x);
  };
  arc(s, a, 1.0);
  arc(a, t, 1.0);
  arc(s, b, 2.0);
  arc(b, t, 2.0);
  NodeId prev_t = t, prev_s = s;
  for (int i = 0; i < tail; ++i) {
    const auto xt = static_cast<NodeId>(4 + i);
    const auto xs = static_cast<NodeId>(4 + tail + i);
    arc(prev_t, xt, 1.0);
    arc(prev_s, xs, 5.0);
    prev_t = xt;
    prev_s = xs;
  }
  arc(prev_s, b, 1.0);  // the s tail rejoins the diamond, at a higher cost

  SuurballeWorkspace ws;
  DisjointPair pair;
  suurballe_into(g, w, s, t, {}, &ws, &pair);
  ASSERT_TRUE(pair.found);
  EXPECT_DOUBLE_EQ(pair.total_cost(), 6.0);  // s-a-t and s-b-t

  const ShortestPathTree full = dijkstra(g, w, s);
  std::int64_t within = 0;  // nodes with d(v) <= d(t)
  for (double d : full.dist) within += d <= full.distance(t) ? 1 : 0;
  EXPECT_EQ(within, 4);
  EXPECT_GE(ws.round1_settled, 3);  // s, a and t at least
  EXPECT_LE(ws.round1_settled, within);
  EXPECT_LE(ws.round2_settled, within);
}

/// A trap for the pair-existence check's BFS: the first augmenting path it
/// finds, s-a-b-t (fewest hops, ties by arc id), takes the arc a -> b that
/// both disjoint routes s-a-y-t and s-x-b-t avoid, so the second round must
/// walk a -> b backwards. The weights make the same path the shortest one,
/// so naive two-step fails here too.
struct BfsTrap {
  static constexpr NodeId s = 0, a = 1, x = 2, b = 3, y = 4, t = 5;
  Digraph g{6};
  std::vector<double> w;
  BfsTrap() {
    g.add_edge(s, a);  // 1
    g.add_edge(s, x);  // 1
    g.add_edge(a, b);  // 1
    g.add_edge(a, y);  // 5
    g.add_edge(x, b);  // 1
    g.add_edge(b, t);  // 1
    g.add_edge(y, t);  // 1
    w = {1.0, 1.0, 1.0, 5.0, 1.0, 1.0, 1.0};
  }
};

TEST(HasEdgeDisjointPair, AugmentsThroughAReverseArcOnTheTrap) {
  BfsTrap trap;
  EXPECT_FALSE(naive_two_step(trap.g, trap.w, BfsTrap::s, BfsTrap::t).found);
  const DisjointPair pair = suurballe(trap.g, trap.w, BfsTrap::s, BfsTrap::t);
  ASSERT_TRUE(pair.found);
  EXPECT_DOUBLE_EQ(pair.total_cost(), 10.0);
  SuurballeWorkspace ws;
  EXPECT_TRUE(has_edge_disjoint_pair(trap.g, trap.w, BfsTrap::s, BfsTrap::t,
                                     {}, &ws));
  // Without the cross arc's two detours there is one route only.
  std::vector<std::uint8_t> mask(trap.w.size(), 1);
  mask[3] = 0;  // a -> y
  EXPECT_FALSE(has_edge_disjoint_pair(trap.g, trap.w, BfsTrap::s, BfsTrap::t,
                                      mask, &ws));

}

TEST(HasEdgeDisjointPair, BackwardSearchWalksAFlowArcBackwards) {
  // The trap with four dead ends hung off s: the forward frontier outgrows
  // the backward one, so the search from t does the second round's work,
  // and it must step from a to b against the flow arc a -> b.
  BfsTrap trap;
  Digraph g(10);
  for (EdgeId e = 0; e < trap.g.num_edges(); ++e) {
    g.add_edge(trap.g.tail(e), trap.g.head(e));
  }
  for (NodeId dead = 6; dead < 10; ++dead) g.add_edge(BfsTrap::s, dead);
  SuurballeWorkspace ws;
  EXPECT_TRUE(has_edge_disjoint_pair(g, {}, BfsTrap::s, BfsTrap::t, {}, &ws));
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(g.num_edges()), 1);
  mask[3] = 0;  // a -> y
  EXPECT_FALSE(has_edge_disjoint_pair(g, {}, BfsTrap::s, BfsTrap::t, mask,
                                      &ws));
}

TEST(HasEdgeDisjointPair, InfiniteAndMaskedArcsAreAbsent) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  std::vector<double> w{1, 1, 2, 2};
  SuurballeWorkspace ws;
  EXPECT_TRUE(has_edge_disjoint_pair(g, w, 0, 3, {}, &ws));

  std::vector<double> inf_w = w;
  inf_w[3] = kInf;  // 2 -> 3
  EXPECT_FALSE(has_edge_disjoint_pair(g, inf_w, 0, 3, {}, &ws));
  EXPECT_FALSE(suurballe(g, inf_w, 0, 3).found);

  const std::vector<std::uint8_t> mask{0, 1, 1, 1};  // 0 -> 1 off
  EXPECT_FALSE(has_edge_disjoint_pair(g, w, 0, 3, mask, &ws));
  EXPECT_FALSE(suurballe(g, w, 0, 3, mask).found);

  // Parallel arcs are distinct edges: two of them carry the pair.
  Digraph par(2);
  par.add_edge(0, 1);
  par.add_edge(0, 1);
  EXPECT_TRUE(has_edge_disjoint_pair(par, {{1.0, 1.0}}, 0, 1, {}, &ws));
  EXPECT_FALSE(has_edge_disjoint_pair(par, {{1.0, kInf}}, 0, 1, {}, &ws));
}

TEST(HasEdgeDisjointPair, BelowClosesArcsAtTheThresholdAndAbove) {
  // The ϑ ladder's form: a rung is a threshold on per-arc values, and an
  // arc is open iff its value is below it.
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  const std::vector<double> gate{0.25, 0.25, 0.5, 0.5};
  SuurballeWorkspace ws;
  EXPECT_TRUE(has_edge_disjoint_pair(g, gate, 0, 3, {}, &ws));
  EXPECT_FALSE(has_edge_disjoint_pair(g, gate, 0, 3, {}, &ws, 0.5));
  EXPECT_TRUE(has_edge_disjoint_pair(g, gate, 0, 3, {}, &ws,
                                     std::nextafter(0.5, kInf)));
  // The O(deg) test sees the same arcs: one open arc leaves s at 0.5.
  EXPECT_FALSE(ends_admit_edge_disjoint_pair(g, gate, 0, 3, {}, 0.5));
  EXPECT_TRUE(ends_admit_edge_disjoint_pair(g, gate, 0, 3, {},
                                            std::nextafter(0.5, kInf)));
  const std::vector<std::uint8_t> mask{1, 1, 1, 0};  // 2 -> 3 off
  EXPECT_FALSE(ends_admit_edge_disjoint_pair(g, gate, 0, 3, mask));
}

TEST(HasEdgeDisjointPair, AgreesWithSuurballeOnRandomDigraphs) {
  // One workspace across graphs whose size jumps up and down, with masks,
  // zero weights and +inf arcs: the check must equal Suurballe's `found`.
  support::Rng rng(0xd15a7e);
  SuurballeWorkspace ws;
  int found = 0;
  const int rounds = 400;
  for (int round = 0; round < rounds; ++round) {
    const int n = round % 2 == 0 ? 15 + static_cast<int>(rng.uniform_int(0, 30))
                                 : 3 + static_cast<int>(rng.uniform_int(0, 6));
    const int m = static_cast<int>(rng.uniform_int(n, 4 * n));
    auto [g, w] = test::random_digraph(n, m, rng);
    for (double& x : w) {
      const double dice = rng.uniform();
      if (dice < 0.1) x = 0.0;
      if (dice > 0.9) x = kInf;
    }
    std::vector<std::uint8_t> mask;
    if (rng.uniform() < 0.5) {
      mask.resize(static_cast<std::size_t>(m));
      for (auto& bit : mask) bit = rng.uniform() < 0.85 ? 1 : 0;
    }
    const auto s = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    auto t = s;
    while (t == s) t = static_cast<NodeId>(rng.uniform_int(0, n - 1));

    const bool want = suurballe(g, w, s, t, mask).found;
    ASSERT_EQ(has_edge_disjoint_pair(g, w, s, t, mask, &ws), want)
        << "round " << round;
    if (want) ++found;
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(found, rounds / 10);
  EXPECT_LT(found, rounds - rounds / 10);
}

TEST(SuurballeWorkspace, EmptyAndZeroPotentialAreBitIdentical) {
  // h = 0 is the empty span, not a second search: an all-zero span must
  // return the same pair, cost bits and settled counts on random digraphs
  // with masks, zero-weight ties and +inf arcs.
  support::Rng rng(0x2e70);
  SuurballeWorkspace ws_empty;
  SuurballeWorkspace ws_zero;
  DisjointPair empty;
  DisjointPair zero;
  int found = 0;
  for (int round = 0; round < 300; ++round) {
    const int n = 3 + static_cast<int>(rng.uniform_int(0, 50));
    const int m = static_cast<int>(rng.uniform_int(n, 4 * n));
    auto [g, w] = test::random_digraph(n, m, rng);
    for (double& x : w) {
      const double dice = rng.uniform();
      if (round % 2 == 1) x = static_cast<double>(rng.uniform_int(0, 3));
      if (dice < 0.1) x = 0.0;
      if (dice > 0.95) x = kInf;
    }
    std::vector<std::uint8_t> mask;
    if (rng.uniform() < 0.5) {
      mask.resize(static_cast<std::size_t>(m));
      for (auto& bit : mask) bit = rng.uniform() < 0.85 ? 1 : 0;
    }
    const auto s = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    auto t = s;
    while (t == s) t = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const std::vector<double> zeros(static_cast<std::size_t>(n), 0.0);

    suurballe_into(g, w, s, t, mask, &ws_empty, &empty);
    suurballe_into(g, w, s, t, mask, &ws_zero, &zero, zeros);
    const std::string ctx = "round " + std::to_string(round);
    ASSERT_EQ(zero.found, empty.found) << ctx;
    EXPECT_EQ(zero.first.edges, empty.first.edges) << ctx;
    EXPECT_EQ(zero.second.edges, empty.second.edges) << ctx;
    EXPECT_EQ(zero.first.cost, empty.first.cost) << ctx;
    EXPECT_EQ(zero.second.cost, empty.second.cost) << ctx;
    EXPECT_EQ(ws_zero.round1_settled, ws_empty.round1_settled) << ctx;
    EXPECT_EQ(ws_zero.round2_settled, ws_empty.round2_settled) << ctx;
    if (empty.found) ++found;
  }
  EXPECT_GT(found, 30);
  EXPECT_LT(found, 300);
}

/// A k x k geo grid (full conversion, W wavelengths) with 30% of its
/// wavelength-links reserved.
net::WdmNetwork reserved_geo_grid(int k, int W, support::Rng& rng) {
  const topo::Topology topo = topo::geo_grid(k, k, /*chord_p=*/0.3, rng);
  topo::NetworkOptions nopt;
  nopt.num_wavelengths = W;
  net::WdmNetwork net = topo::build_network(topo, nopt, rng);
  for (EdgeId e = 0; e < net.num_links(); ++e) {
    net.available(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(0.3)) net.reserve(e, l);
    });
  }
  return net;
}

/// Suurballe with and without the bound agree on `found` and, within 1e-9
/// relative, on the pair's cost. Adds both rounds' settled nodes to the
/// two tallies.
void expect_goal_directed_agrees(const rwa::AuxGraph& arena,
                                 std::span<const std::uint8_t> mask,
                                 std::span<const double> h,
                                 const std::string& ctx, std::int64_t* plain,
                                 std::int64_t* goal, int* found) {
  SuurballeWorkspace ws;
  DisjointPair want;
  DisjointPair got;
  suurballe_into(arena.g, arena.w, arena.s_prime, arena.t_second, mask, &ws,
                 &want);
  *plain += ws.round1_settled + ws.round2_settled;
  suurballe_into(arena.g, arena.w, arena.s_prime, arena.t_second, mask, &ws,
                 &got, h);
  *goal += ws.round1_settled + ws.round2_settled;
  ASSERT_EQ(got.found, want.found) << ctx;
  if (!want.found) return;
  ++*found;
  EXPECT_TRUE(test::edge_disjoint(got.first, got.second)) << ctx;
  const double tol = 1e-9 * std::max(1.0, std::abs(want.total_cost()));
  EXPECT_NEAR(got.total_cost(), want.total_cost(), tol) << ctx;
}

TEST(SuurballeArena, GoalDirectedAgreesWithPlainOnGeoGrids) {
  // 2,010 random queries on the arenas the routers search: G' and G_rc at
  // ϑ_max, and G_rc under a random rung's mask with the bound over that
  // rung's open links (as the ϑ confirm runs it), on geo16 and geo32 grids
  // with 30% of their wavelength-links reserved.
  struct Grid {
    int k;
    int queries_per_arena;
  };
  for (const Grid grid : {Grid{16, 470}, Grid{32, 200}}) {
    support::Rng rng(static_cast<std::uint64_t>(grid.k) * 31 + 7);
    const net::WdmNetwork net = reserved_geo_grid(grid.k, 16, rng);
    const double theta_min = net.theta_min();
    const double theta_max = net.theta_max();
    rwa::AuxGraphBuilder builder;
    rwa::ArenaLowerBound bound;
    std::vector<std::uint8_t> arc_mask;
    struct Arm {
      const char* kind;
      bool grc;
      bool masked;
    };
    for (const auto [kind, grc, masked] :
         {Arm{"G'", false, false}, Arm{"G_rc", true, false},
          Arm{"G_rc masked", true, true}}) {
      rwa::AuxGraphOptions aopt;
      if (grc) {
        aopt.weighting = rwa::AuxWeighting::kCostLoadFiltered;
        aopt.theta = theta_max;
      }
      std::int64_t plain = 0, goal = 0;
      int found = 0;
      for (int q = 0; q < grid.queries_per_arena; ++q) {
        const auto s = static_cast<net::NodeId>(
            rng.uniform_int(0, net.num_nodes() - 1));
        auto t = s;
        while (t == s) {
          t = static_cast<net::NodeId>(rng.uniform_int(0, net.num_nodes() - 1));
        }
        const rwa::AuxGraph& arena = builder.build(net, s, t, aopt);
        std::span<const std::uint8_t> mask;
        double theta = kInf;
        if (masked) {
          theta = theta_min + rng.uniform() * (theta_max - theta_min);
          test::oracle_threshold_mask(arena, net, theta, &arc_mask);
          mask = arc_mask;
        }
        const std::string ctx = "geo" + std::to_string(grid.k) + " " + kind +
                                " query " + std::to_string(q) + " (" +
                                std::to_string(s) + ", " + std::to_string(t) +
                                ")";
        expect_goal_directed_agrees(
            arena, mask, bound.compute(net, arena, s, t, theta), ctx,
            &plain, &goal, &found);
        if (HasFatalFailure()) return;
      }
      EXPECT_GT(found, 0) << kind;
      // The bound pays: far fewer nodes settled over the whole arm.
      EXPECT_LT(goal, plain * 3 / 4) << "geo" << grid.k << " " << kind;
    }
  }
}

TEST(SuurballeArena, GoalDirectedProtectGadgetMatchesOracle) {
  // The node-protection gadget adds two hub nodes per physical node, each
  // bounded by hp(v): the pair cost must still equal the min-cost-flow
  // oracle's and the plain search's.
  support::Rng rng(0x9ad9e7);
  const net::WdmNetwork net = reserved_geo_grid(6, 8, rng);
  rwa::AuxGraphOptions aopt;
  aopt.protect_nodes = true;
  rwa::AuxGraphBuilder builder;
  rwa::ArenaLowerBound bound;
  std::int64_t plain = 0, goal = 0;
  int found = 0;
  for (int q = 0; q < 60; ++q) {
    const auto s =
        static_cast<net::NodeId>(rng.uniform_int(0, net.num_nodes() - 1));
    auto t = s;
    while (t == s) {
      t = static_cast<net::NodeId>(rng.uniform_int(0, net.num_nodes() - 1));
    }
    const rwa::AuxGraph& arena = builder.build(net, s, t, aopt);
    ASSERT_EQ(arena.g.num_nodes(),
              2 * net.num_links() + 1 + 3 * net.num_nodes());
    const std::span<const double> h = bound.compute(net, arena, s, t);
    const std::string ctx = "query " + std::to_string(q);
    expect_goal_directed_agrees(arena, {}, h, ctx, &plain, &goal, &found);
    expect_matches_oracle(arena.g, arena.w, arena.s_prime, arena.t_second, {},
                          ctx + " oracle", h);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(found, 30);
}

}  // namespace
}  // namespace wdm::graph
