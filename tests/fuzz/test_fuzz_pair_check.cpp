// Differential check of graph::has_edge_disjoint_pair (two augmentations,
// each a BFS from both ends) against the unidirectional BFS it replaced
// (tests/pair_check_oracle.hpp) and against Dinic's max-flow (value >= 2),
// on random digraphs with parallel arcs and self-loops and on ladders
// (layered graphs whose s-t paths interleave), each also with every arc
// reversed and s, t swapped, under random arc masks, zero and +inf weights
// and a random threshold `below` — +inf, a random value, or exactly one
// of the weights, so arcs sit on the boundary. Also
// checks that graph::ends_admit_edge_disjoint_pair, the O(deg) test the ϑ
// ladder runs first, never rejects an instance the oracle passes. One
// workspace serves every instance, whose sizes jump up and down.
//
// Budget knob: WDM_FUZZ_ITERATIONS scales the instance count (default 500,
// used as instances = max(400, 8 * WDM_FUZZ_ITERATIONS)).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/maxflow.hpp"
#include "graph/suurballe.hpp"
#include "pair_check_oracle.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace wdm::graph {
namespace {

int instance_budget() {
  const auto iters = support::env_int("WDM_FUZZ_ITERATIONS", 500);
  return std::max<int>(400, static_cast<int>(8 * iters));
}

struct Instance {
  Digraph g{0};
  std::vector<double> w;  // empty: every arc open by weight
  std::vector<std::uint8_t> mask;  // empty: every arc enabled
  double below = kInf;
  NodeId s = 0;
  NodeId t = 1;

  /// The arcs the check may use, as one mask for the max-flow oracle.
  std::vector<std::uint8_t> open_mask() const {
    std::vector<std::uint8_t> open(static_cast<std::size_t>(g.num_edges()));
    for (std::size_t e = 0; e < open.size(); ++e) {
      open[e] = (mask.empty() || mask[e] != 0) && (w.empty() || w[e] < below);
    }
    return open;
  }
};

/// Adds `m` arcs: mostly between uniform random nodes, with self-loops and
/// parallel copies of earlier arcs mixed in.
void add_random_arcs(Digraph& g, int m, support::Rng& rng) {
  const int n = g.num_nodes();
  for (int i = 0; i < m; ++i) {
    const double dice = rng.uniform();
    if (dice < 0.1) {  // self-loop
      const auto v = static_cast<NodeId>(rng.uniform_int(0, n - 1));
      g.add_edge(v, v);
    } else if (dice < 0.25 && g.num_edges() > 0) {  // parallel arc
      const auto e = static_cast<EdgeId>(
          rng.index(static_cast<std::size_t>(g.num_edges())));
      g.add_edge(g.tail(e), g.head(e));
    } else {
      g.add_edge(static_cast<NodeId>(rng.uniform_int(0, n - 1)),
                 static_cast<NodeId>(rng.uniform_int(0, n - 1)));
    }
  }
}

/// A ladder: `layers` layers of `width` nodes between s = 0 and t = n - 1,
/// each arc between consecutive layers present with probability 0.6, plus
/// a few random arcs. Its s-t paths interleave, so the second augmentation
/// often has to walk a flow arc backwards, from either side.
Digraph draw_ladder(support::Rng& rng) {
  const int width = static_cast<int>(rng.uniform_int(2, 3));
  const int layers = static_cast<int>(rng.uniform_int(2, 6));
  const int n = 2 + width * layers;
  Digraph g(n);
  const auto node = [&](int layer, int k) {
    return static_cast<NodeId>(1 + layer * width + k);
  };
  for (int k = 0; k < width; ++k) {
    g.add_edge(0, node(0, k));
    g.add_edge(node(layers - 1, k), static_cast<NodeId>(n - 1));
  }
  for (int layer = 0; layer + 1 < layers; ++layer) {
    for (int a = 0; a < width; ++a) {
      for (int b = 0; b < width; ++b) {
        if (rng.bernoulli(0.6)) g.add_edge(node(layer, a), node(layer + 1, b));
      }
    }
  }
  add_random_arcs(g, static_cast<int>(rng.uniform_int(0, 3)), rng);
  return g;
}

Instance draw_instance(support::Rng& rng) {
  Instance inst;
  const bool ladder = rng.bernoulli(0.4);
  if (ladder) {
    inst.g = draw_ladder(rng);
  } else {
    const int n = rng.bernoulli(0.7) ? static_cast<int>(rng.uniform_int(2, 8))
                                     : static_cast<int>(rng.uniform_int(9, 40));
    inst.g = Digraph(n);
    add_random_arcs(inst.g, static_cast<int>(rng.uniform_int(0, 6 * n)), rng);
  }
  const int n = inst.g.num_nodes();
  const auto arcs = static_cast<std::size_t>(inst.g.num_edges());
  if (rng.uniform() < 0.9) {
    inst.w.resize(arcs);
    for (double& x : inst.w) {
      const double dice = rng.uniform();
      x = dice < 0.1 ? 0.0 : dice > 0.92 ? kInf : rng.uniform();
    }
    const double dice = rng.uniform();
    if (dice < 0.3) {
      inst.below = kInf;
    } else if (dice < 0.6 && arcs > 0) {
      inst.below = inst.w[rng.index(arcs)];  // boundary: w == below is closed
    } else {
      inst.below = rng.uniform(0.2, 1.0);
    }
  }
  if (rng.uniform() < 0.5) {
    inst.mask.resize(arcs);
    for (auto& bit : inst.mask) bit = rng.uniform() < 0.9 ? 1 : 0;
  }
  if (ladder) {
    inst.s = 0;
    inst.t = static_cast<NodeId>(n - 1);
  } else {
    inst.s = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    inst.t = inst.s;
    while (inst.t == inst.s) {
      inst.t = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    }
  }
  return inst;
}

/// The same instance with every arc reversed and s, t swapped: the same
/// max-flow, with the forward and backward searches' roles exchanged.
Instance reversed(const Instance& inst) {
  Instance rev = inst;
  rev.g = Digraph(inst.g.num_nodes());
  for (EdgeId e = 0; e < inst.g.num_edges(); ++e) {
    rev.g.add_edge(inst.g.head(e), inst.g.tail(e));
  }
  std::swap(rev.s, rev.t);
  return rev;
}

std::string describe(int i, const Instance& inst) {
  return "instance " + std::to_string(i) + " (n " +
         std::to_string(inst.g.num_nodes()) + ", m " +
         std::to_string(inst.g.num_edges()) + ", s " + std::to_string(inst.s) +
         ", t " + std::to_string(inst.t) + ", below " +
         std::to_string(inst.below) + (inst.w.empty() ? ", no w" : "") +
         (inst.mask.empty() ? "" : ", masked") + ")";
}

TEST(PairCheckDifferential, BidirectionalEqualsBfsOracleAndMaxflow) {
  const int instances = instance_budget();
  support::Rng rng(0xb1d1ull);
  SuurballeWorkspace ws;
  int pairs = 0;
  for (int i = 0; i < instances; ++i) {
    const Instance drawn = draw_instance(rng);
    const bool want = test::oracle_has_edge_disjoint_pair(
        drawn.g, drawn.w, drawn.s, drawn.t, drawn.mask, drawn.below);
    pairs += want;
    const Instance both[] = {drawn, reversed(drawn)};
    for (int side = 0; side < 2; ++side) {
      const Instance& inst = both[side];
      const std::string ctx = describe(i, inst) + (side ? " reversed" : "");
      ASSERT_EQ(edge_disjoint_path_count(inst.g, inst.s, inst.t,
                                         inst.open_mask()) >= 2,
                want)
          << ctx;
      ASSERT_EQ(has_edge_disjoint_pair(inst.g, inst.w, inst.s, inst.t,
                                       inst.mask, &ws, inst.below),
                want)
          << ctx;
    }
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(pairs, instances / 10) << "of " << instances;
  EXPECT_LT(pairs, instances - instances / 10) << "of " << instances;
}

TEST(PairCheckDifferential, DegreeTestRejectsOnlyInstancesWithoutAPair) {
  const int instances = instance_budget();
  support::Rng rng(0xde9ull);
  int rejects = 0;
  for (int i = 0; i < instances; ++i) {
    const Instance inst = draw_instance(rng);
    if (ends_admit_edge_disjoint_pair(inst.g, inst.w, inst.s, inst.t,
                                      inst.mask, inst.below)) {
      continue;
    }
    ++rejects;
    ASSERT_FALSE(test::oracle_has_edge_disjoint_pair(
        inst.g, inst.w, inst.s, inst.t, inst.mask, inst.below))
        << describe(i, inst);
  }
  EXPECT_GT(rejects, instances / 10) << "of " << instances;
}

}  // namespace
}  // namespace wdm::graph
