// Differential check of the Lemma 2 path sweep (rwa::refine_along_into) on
// simple chains, against the two parts of its contract (layered_graph.hpp):
//   * plain Dijkstra (no potential) over LayeredGraph::build under the
//     chain's induced link mask: the same `found`, the same hop sequence,
//     ties included (unit weights, small integer conversion costs and
//     parallel decoy links make ties common), and the cost bit-identical;
//   * the solver it replaces, optimal_semilightpath_into (A*) under the same
//     mask: the same `found` and the same Eq. (1) cost. Its hops may tie
//     differently, since A* pops in (d + h, id) order, and two ties of equal
//     real cost can sum an ulp apart (a conversion charged at another hop
//     adds the same terms in another order). So the costs are bit-identical
//     on integral chains, whose sums are exact, and within 1e-12 relative
//     on the others.
// Each chain lives in a network with decoy links (parallel to chain links,
// chords between chain nodes, links to off-chain nodes), so the mask has to
// confine the solver to the chain; link ids interleave chain and decoys.
// Covered: none, full, limited-range (r = 1..4) and general tables (random
// allowed pairs, some forbidden again), per chain or mixed per node;
// W ∈ {1, 4, 8, 16}; unit and per-λ random weights; about 35% of the
// chain's wavelengths reserved, and now and then a failed link. A second
// test draws walks that repeat a node: they must take the solver itself.
// One workspace serves every sweep and another every solve, so stale state
// from a longer or wider chain cannot hide.
//
// Budget knob: WDM_FUZZ_ITERATIONS scales the chain count (default 500,
// used as chains = max(1000, 40 × WDM_FUZZ_ITERATIONS): 20,000 by default).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/dijkstra.hpp"
#include "rwa/layered_graph.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {
namespace {

constexpr int kWavelengthChoices[] = {1, 4, 8, 16};

int chain_budget() {
  const auto iters = support::env_int("WDM_FUZZ_ITERATIONS", 500);
  return std::max<int>(1000, static_cast<int>(40 * iters));
}

double draw_cost(support::Rng& rng, bool integral, double lo, double hi) {
  return integral ? static_cast<double>(rng.uniform_int(
                        static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(hi)))
                  : rng.uniform(lo, hi);
}

/// One of the four shapes (0 none, 1 full, 2 limited range, 3 general).
net::ConversionTable draw_table(int shape, int W, support::Rng& rng,
                                bool integral) {
  switch (shape) {
    case 0:
      return net::ConversionTable::none(W);
    case 1:
      return net::ConversionTable::full(W, draw_cost(rng, integral, 0, 2));
    case 2:
      return net::ConversionTable::limited_range(
          W, static_cast<int>(rng.uniform_int(1, 4)),
          draw_cost(rng, integral, 0, 1));
    default: {
      net::ConversionTable table(W);
      for (net::Wavelength a = 0; a < W; ++a) {
        for (net::Wavelength b = 0; b < W; ++b) {
          if (a != b && rng.bernoulli(0.4)) {
            table.set(a, b, draw_cost(rng, integral, 0, 3));
          }
        }
      }
      for (int k = 0; k < W; ++k) {
        const auto a = static_cast<net::Wavelength>(rng.index(W));
        const auto b = static_cast<net::Wavelength>(rng.index(W));
        if (a != b) table.forbid(a, b);
      }
      return table;
    }
  }
}

struct Chain {
  net::WdmNetwork net{1, 1};
  net::NodeId s = 0;
  net::NodeId t = 0;
  std::vector<graph::EdgeId> links;  // the walk, in order
  int shape = 0;                     // 0..3, or 4 for a per-node mix
  bool exact = false;                // integral costs: every sum is exact
};

/// A network holding a walk of `hops` links through the node sequence
/// `nodes` (length hops + 1), plus decoys.
Chain draw_chain(support::Rng& rng, const std::vector<net::NodeId>& nodes,
                 int n, int W) {
  Chain c;
  c.net = net::WdmNetwork(n, W);
  c.s = nodes.front();
  c.t = nodes.back();
  c.shape = static_cast<int>(rng.uniform_int(0, 4));
  const bool integral = rng.bernoulli(0.6);
  c.exact = integral;
  for (net::NodeId v = 0; v < n; ++v) {
    const int shape =
        c.shape == 4 ? static_cast<int>(rng.uniform_int(0, 3)) : c.shape;
    c.net.set_conversion(v, draw_table(shape, W, rng, integral));
  }
  const bool unit = rng.bernoulli(0.4);
  std::vector<double> cost(static_cast<std::size_t>(W));
  auto add = [&](net::NodeId u, net::NodeId v) {
    net::WavelengthSet installed;
    for (net::Wavelength l = 0; l < W; ++l) {
      if (rng.bernoulli(0.85)) installed.insert(l);
    }
    if (installed.empty()) installed.insert(static_cast<int>(rng.index(W)));
    for (double& x : cost) x = unit ? 1.0 : draw_cost(rng, integral, 1, 4);
    return c.net.add_link(u, v, installed, cost);
  };
  const std::size_t hops = nodes.size() - 1;
  for (std::size_t k = 0; k < hops; ++k) {
    // Decoys before each walk link, so ids interleave.
    const auto decoys = rng.uniform_int(0, 2);
    for (std::int64_t d = 0; d < decoys; ++d) {
      const auto u = static_cast<net::NodeId>(rng.index(n));
      auto v = static_cast<net::NodeId>(rng.index(n));
      if (u == v) v = (v + 1) % n;
      if (rng.bernoulli(0.3)) {
        add(nodes[k], nodes[k + 1]);  // parallel to the walk link
      } else {
        add(u, v);
      }
    }
    c.links.push_back(add(nodes[k], nodes[k + 1]));
  }
  for (graph::EdgeId e = 0; e < c.net.num_links(); ++e) {
    c.net.available(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(0.35)) c.net.reserve(e, l);
    });
    if (rng.bernoulli(0.02)) c.net.set_link_failed(e, true);
  }
  return c;
}

/// A simple chain: hops + 1 distinct nodes out of n.
Chain draw_simple_chain(support::Rng& rng) {
  const int W = kWavelengthChoices[rng.index(std::size(kWavelengthChoices))];
  const int hops = static_cast<int>(rng.uniform_int(1, 16));
  const int n = hops + 1 + static_cast<int>(rng.uniform_int(0, 4));
  std::vector<net::NodeId> order(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.index(i + 1)]);
  }
  order.resize(static_cast<std::size_t>(hops) + 1);
  return draw_chain(rng, order, n, W);
}

/// A walk from s to t != s that passes some node twice.
Chain draw_repeating_walk(support::Rng& rng) {
  const int W = kWavelengthChoices[rng.index(std::size(kWavelengthChoices))];
  const int n = static_cast<int>(rng.uniform_int(3, 8));
  std::vector<net::NodeId> walk;
  const auto s = static_cast<net::NodeId>(rng.index(n));
  walk.push_back(s);
  const int hops = static_cast<int>(rng.uniform_int(3, 12));
  for (int k = 0; k < hops; ++k) {
    auto v = static_cast<net::NodeId>(rng.index(n));
    if (v == walk.back()) v = (v + 1) % n;
    walk.push_back(v);
  }
  if (walk.back() == s) walk.push_back((s + 1) % n);
  // Force a repeat: revisit an interior node of the walk.
  if (std::count(walk.begin(), walk.end(), walk[1]) == 1) {
    const net::NodeId t = walk.back();
    walk.back() = walk[1];  // walk[1] is unique, so neither ends next to it
    walk.push_back(t);
  }
  return draw_chain(rng, walk, n, W);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(RefineAlongDifferential, SimpleChainSweepEqualsMaskedSolver) {
  namespace tel = support::telemetry;
  SemilightpathWorkspace sweep_ws;
  SemilightpathWorkspace solver_ws;
  net::Semilightpath got;
  net::Semilightpath want;
  std::vector<std::uint8_t> mask;
  int found = 0;
  int tie_moved = 0;  // chains whose A* hops differ from the sweep's
  int shapes[5] = {};
  const int chains = chain_budget();
  tel::reset();
  tel::set_enabled(true);
  for (int i = 0; i < chains; ++i) {
    support::Rng rng(0x5e3e9ull * 1000003ull + static_cast<std::uint64_t>(i));
    const Chain c = draw_simple_chain(rng);
    ++shapes[c.shape];
    mask.assign(static_cast<std::size_t>(c.net.num_links()), 0);
    for (const graph::EdgeId e : c.links) mask[static_cast<std::size_t>(e)] = 1;
    const double got_cost =
        refine_along_into(c.net, c.s, c.t, c.links, sweep_ws, &got);
    const double solver_cost =
        optimal_semilightpath_into(c.net, c.s, c.t, mask, solver_ws, &want);
    const std::string ctx = "chain " + std::to_string(i) + " W=" +
                            std::to_string(c.net.W()) + " hops=" +
                            std::to_string(c.links.size()) + " shape " +
                            std::to_string(c.shape);
    ASSERT_EQ(got.found, want.found) << ctx;
    if (c.exact || !got.found) {
      ASSERT_TRUE(same_bits(got_cost, solver_cost))
          << ctx << ": " << got_cost << " vs solver " << solver_cost;
    } else {
      ASSERT_NEAR(got_cost, solver_cost, 1e-12 * got_cost) << ctx;
    }
    const LayeredGraph lg = LayeredGraph::build(c.net, c.s, c.t, mask);
    const graph::Path plain =
        graph::shortest_path(lg.g, lg.w, lg.source_hub, lg.sink_hub);
    ASSERT_EQ(got.found, plain.found) << ctx;
    ASSERT_EQ(got.hops, lg.to_semilightpath(plain).hops) << ctx;
    if (got.found) {
      ASSERT_TRUE(same_bits(got_cost, plain.cost))
          << ctx << ": " << got_cost << " vs Dijkstra " << plain.cost;
      ++found;
      if (got.hops != want.hops) ++tie_moved;
    }
  }
  const auto counters = tel::counter_values();
  tel::set_enabled(false);
  if (tel::compiled_in()) {
    // Every chain was swept: none fell back to the solver.
    EXPECT_EQ(counters.at("rwa.refine.calls"),
              static_cast<std::uint64_t>(chains));
    EXPECT_EQ(counters.count("rwa.refine.fallbacks"), 0u);
  }
  // Both outcomes, and every shape, are exercised; A* moves a tie on a
  // minority of the found chains.
  EXPECT_LT(tie_moved, found);
  EXPECT_GT(found, chains / 10);
  EXPECT_LT(found, chains);
  for (const int k : shapes) EXPECT_GT(k, chains / 10);
}

TEST(RefineAlongDifferential, RepeatingWalkTakesTheSolver) {
  namespace tel = support::telemetry;
  SemilightpathWorkspace sweep_ws;
  SemilightpathWorkspace solver_ws;
  net::Semilightpath got;
  net::Semilightpath want;
  std::vector<std::uint8_t> mask;
  int found = 0;
  const int walks = std::max(200, chain_budget() / 10);
  tel::reset();
  tel::set_enabled(true);
  for (int i = 0; i < walks; ++i) {
    support::Rng rng(0xfa11ull * 1000003ull + static_cast<std::uint64_t>(i));
    const Chain c = draw_repeating_walk(rng);
    mask.assign(static_cast<std::size_t>(c.net.num_links()), 0);
    for (const graph::EdgeId e : c.links) mask[static_cast<std::size_t>(e)] = 1;
    const double got_cost =
        refine_along_into(c.net, c.s, c.t, c.links, sweep_ws, &got);
    const double want_cost =
        optimal_semilightpath_into(c.net, c.s, c.t, mask, solver_ws, &want);
    const std::string ctx = "walk " + std::to_string(i);
    ASSERT_EQ(got.found, want.found) << ctx;
    ASSERT_EQ(got.hops, want.hops) << ctx;
    ASSERT_TRUE(same_bits(got_cost, want_cost)) << ctx;
    if (got.found) ++found;
  }
  const auto counters = tel::counter_values();
  tel::set_enabled(false);
  if (tel::compiled_in()) {
    EXPECT_EQ(counters.at("rwa.refine.fallbacks"),
              static_cast<std::uint64_t>(walks));
  }
  EXPECT_GT(found, 0);
}

}  // namespace
}  // namespace wdm::rwa
