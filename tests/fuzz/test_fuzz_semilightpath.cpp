// Differential checks of the implicit Liang–Shen solver
// (optimal_semilightpath_into), an A* search, against two materialized
// oracles on LayeredGraph::build, mapped back through to_semilightpath:
//   * Dijkstra with the solver's potential (semilightpath_bound_into lifted
//     by LayeredGraph::lift). The solver generates the layered graph's arcs
//     on the fly in build's insertion order and keys its heap the same way,
//     so it must agree exactly: the same `found`, the same hop sequence
//     (ties included — the instances use small integer weights and parallel
//     links to make ties common), and the distance bit-identical;
//   * plain Dijkstra (graph::shortest_path, no potential). The potential
//     only reorders the search, so the same `found` and the same Eq. (1)
//     cost, while equal-cost paths may tie differently. Two paths of equal
//     cost in real arithmetic can have floating-point sums an ulp apart
//     (0.02 + 1 + 1 against 2 + 0.01 + 0.01), and A* may reach the other one
//     first. So the distances are bit-identical where every partial sum is
//     exact (weights and prices multiples of 1/4) and within 1e-12
//     relative elsewhere.
// One workspace and one result path are reused across a sequence of
// instances that grow and shrink (node count and W), so stale per-node state
// from a larger previous solve cannot hide. Covered: full, none,
// limited-range and random general conversion tables with forbidden pairs;
// W ∈ {1, 3, 16, 64}; empty, random, all-on and induced (the §3.3.2
// refinement's) link masks; failed links; and priced per-link views.
//
// Budget knob: WDM_FUZZ_ITERATIONS scales the instance count (default 500,
// used as instances = max(20, WDM_FUZZ_ITERATIONS / 5)).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/layered_graph.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace wdm::rwa {
namespace {

constexpr int kWavelengthChoices[] = {1, 3, 16, 64};

/// Link or conversion cost: small integers (ties) or a generic real.
double draw_cost(support::Rng& rng, bool integral, double lo, double hi) {
  return integral ? static_cast<double>(rng.uniform_int(
                        static_cast<std::int64_t>(lo),
                        static_cast<std::int64_t>(hi)))
                  : rng.uniform(lo, hi);
}

net::ConversionTable draw_conversion(int W, support::Rng& rng,
                                     bool integral) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return net::ConversionTable::full(W, draw_cost(rng, integral, 0, 2));
    case 1:
      return net::ConversionTable::none(W);
    case 2:
      return net::ConversionTable::limited_range(
          W, static_cast<int>(rng.uniform_int(1, 4)),
          draw_cost(rng, integral, 0, 1));
    default: {
      // General table: a random subset of pairs allowed at random costs,
      // then some of them forbidden again.
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

/// Instance `i`: even instances are large, odd ones small, so the reused
/// workspace alternately grows and shrinks.
net::WdmNetwork draw_network(int i, support::Rng& rng) {
  const int W = kWavelengthChoices[rng.index(std::size(kWavelengthChoices))];
  const int n = (i % 2 == 0) ? static_cast<int>(rng.uniform_int(10, 20))
                             : static_cast<int>(rng.uniform_int(2, 6));
  const bool integral = rng.bernoulli(0.6);
  net::WdmNetwork net(n, W);
  for (net::NodeId v = 0; v < n; ++v) {
    net.set_conversion(v, draw_conversion(W, rng, integral));
  }
  const int links = n + static_cast<int>(rng.uniform_int(0, 2 * n));
  std::vector<double> cost(static_cast<std::size_t>(W));
  for (int k = 0; k < links; ++k) {
    // A ring backbone keeps most queries reachable; the rest are random
    // chords, parallel links included.
    const auto u = static_cast<net::NodeId>(k < n ? k : rng.index(n));
    auto v = static_cast<net::NodeId>(k < n ? (k + 1) % n : rng.index(n));
    if (u == v) v = (v + 1) % n;
    if (u == v) continue;  // n == 1 cannot happen, but stay safe
    net::WavelengthSet installed;
    for (net::Wavelength l = 0; l < W; ++l) {
      if (rng.bernoulli(0.7)) installed.insert(l);
    }
    if (installed.empty()) installed.insert(static_cast<int>(rng.index(W)));
    const bool uniform = rng.bernoulli(0.5);
    const double base = draw_cost(rng, integral, 1, 3);
    for (double& c : cost) c = uniform ? base : draw_cost(rng, integral, 1, 3);
    net.add_link(u, v, installed, cost);
  }
  const double preload = rng.uniform(0.0, 0.6);
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    net.available(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(preload)) net.reserve(e, l);
    });
    if (rng.bernoulli(0.08)) net.set_link_failed(e, true);
  }
  return net;
}

/// The link masks one query runs under: none, all on, random, and the two
/// induced subgraphs of the G' Suurballe pair when one exists.
std::vector<std::vector<std::uint8_t>> draw_masks(const net::WdmNetwork& net,
                                                  net::NodeId s, net::NodeId t,
                                                  support::Rng& rng) {
  const auto m = static_cast<std::size_t>(net.num_links());
  std::vector<std::vector<std::uint8_t>> masks;
  masks.emplace_back();
  masks.emplace_back(m, 1);
  std::vector<std::uint8_t> random(m);
  for (auto& bit : random) bit = rng.bernoulli(0.6) ? 1 : 0;
  masks.push_back(std::move(random));
  const AuxGraph aux = build_aux_graph(net, s, t);
  const graph::DisjointPair pair =
      graph::suurballe(aux.g, aux.w, aux.s_prime, aux.t_second);
  if (pair.found) {
    for (const graph::Path* p : {&pair.first, &pair.second}) {
      std::vector<std::uint8_t> induced;
      aux.induced_link_mask_into(*p, net.num_links(), &induced);
      masks.push_back(std::move(induced));
    }
  }
  return masks;
}

/// Shared-backup-style view: usable = residual plus some reserved installed
/// channels; shared = a random subset of installed channels.
struct ViewStore {
  std::vector<net::WavelengthSet> usable;
  std::vector<net::WavelengthSet> shared;
  LinkView view;
};

void draw_view(const net::WdmNetwork& net, support::Rng& rng, ViewStore* vs) {
  const auto m = static_cast<std::size_t>(net.num_links());
  vs->usable.assign(m, {});
  vs->shared.assign(m, {});
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    const auto i = static_cast<std::size_t>(e);
    vs->usable[i] = net.available(e);
    net.installed(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(0.3)) vs->usable[i].insert(l);
      if (rng.bernoulli(0.3)) vs->shared[i].insert(l);
    });
  }
  vs->view.usable = vs->usable;
  vs->view.shared = vs->shared;
  vs->view.shared_price_factor = rng.bernoulli(0.5) ? 0.01 : 0.5;
}

int instance_budget() {
  const auto iters = support::env_int("WDM_FUZZ_ITERATIONS", 500);
  return std::max<int>(20, static_cast<int>(iters / 5));
}

/// Dijkstra over `lg` keyed by the solver's lifted potential, mapped back to
/// a semilightpath; returns its sink distance (+inf when not found).
double potential_oracle(const net::WdmNetwork& net, net::NodeId s,
                        net::NodeId t, std::span<const std::uint8_t> mask,
                        const LinkView& view, const LayeredGraph& lg,
                        SemilightpathWorkspace& bound_ws,
                        net::Semilightpath* out) {
  semilightpath_bound_into(net, s, t, mask, bound_ws, view);
  const std::vector<double> h = lg.lift(bound_ws.bound);
  graph::DijkstraOptions opt;
  opt.target = lg.sink_hub;
  opt.potential = h;
  const graph::ShortestPathTree tree =
      graph::dijkstra(lg.g, lg.w, lg.source_hub, opt);
  const graph::Path p = graph::extract_path(lg.g, tree, lg.sink_hub);
  *out = lg.to_semilightpath(p);
  return p.found ? p.cost : graph::kInf;
}

TEST(SemilightpathDifferential, WarmWorkspaceMatchesMaterializedOracle) {
  SemilightpathWorkspace ws;
  SemilightpathWorkspace bound_ws;
  net::Semilightpath got;
  net::Semilightpath want;
  const LinkView residual{};
  ViewStore priced;
  int found = 0;
  int solves = 0;
  const int instances = instance_budget();
  for (int i = 0; i < instances; ++i) {
    support::Rng rng(0x51a7ull * 1000003ull + static_cast<std::uint64_t>(i));
    const net::WdmNetwork net = draw_network(i, rng);
    for (int q = 0; q < 3; ++q) {
      const auto s = static_cast<net::NodeId>(rng.index(net.num_nodes()));
      auto t = static_cast<net::NodeId>(rng.index(net.num_nodes()));
      if (s == t) t = (t + 1) % net.num_nodes();
      draw_view(net, rng, &priced);
      const LinkView* const views[] = {&residual, &priced.view};
      for (const auto& mask : draw_masks(net, s, t, rng)) {
        for (const LinkView* view : views) {
          const std::string ctx =
              "instance " + std::to_string(i) + " W=" +
              std::to_string(net.W()) + " n=" +
              std::to_string(net.num_nodes()) + " query " +
              std::to_string(s) + "->" + std::to_string(t) + " mask " +
              (mask.empty() ? "none" : std::to_string(mask.size())) +
              (view == &priced.view ? " priced" : " residual");
          const LayeredGraph lg = LayeredGraph::build(net, s, t, mask, *view);
          const double want_dist =
              potential_oracle(net, s, t, mask, *view, lg, bound_ws, &want);

          const double dist =
              optimal_semilightpath_into(net, s, t, mask, ws, &got, *view);
          ++solves;
          ASSERT_EQ(got.found, want.found) << ctx;
          ASSERT_EQ(got.hops, want.hops) << ctx;
          ASSERT_EQ(dist, want_dist) << ctx;
          if (got.found) {
            ++found;
            EXPECT_TRUE(got.well_formed(net)) << ctx;
            if (view == &residual) {
              EXPECT_TRUE(got.fits_residual(net)) << ctx;
            }
          }
        }
      }
    }
  }
  // The mix must exercise both outcomes substantially.
  EXPECT_GT(found, solves / 10);
  EXPECT_LT(found, solves);
}

/// True when every w(e, λ) at the view's prices and every conversion cost
/// is a multiple of 1/4 below 2^20, so every path sum is exact.
bool exact_sums(const net::WdmNetwork& net, const LinkView& view) {
  const auto quarter = [](double x) {
    return x < 1048576.0 && std::floor(4.0 * x) == 4.0 * x;
  };
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    bool ok = true;
    net.installed(e).for_each([&](net::Wavelength l) {
      const bool shared =
          !view.shared.empty() &&
          view.shared[static_cast<std::size_t>(e)].contains(l);
      ok = ok && quarter(net.weight(e, l)) &&
           (!shared || quarter(net.weight(e, l) * view.shared_price_factor));
    });
    if (!ok) return false;
  }
  for (net::NodeId v = 0; v < net.num_nodes(); ++v) {
    const net::ConversionTable& table = net.conversion(v);
    for (net::Wavelength a = 0; a < net.W(); ++a) {
      for (net::Wavelength b = 0; b < net.W(); ++b) {
        if (table.allowed(a, b) && !quarter(table.cost(a, b))) return false;
      }
    }
  }
  return true;
}

TEST(SemilightpathDifferential, AStarCostEqualsPlainDijkstra) {
  // The same instance mix (none / limited / full / general tables, masks,
  // failed links, priced shared views, unreachable t), against Dijkstra
  // with no potential. The integral instances tie often, and with them the
  // keys d + h of one node's in-copies, which is where the full-conversion
  // re-fan matters.
  SemilightpathWorkspace ws;
  net::Semilightpath got;
  const LinkView residual{};
  ViewStore priced;
  int found = 0;
  int unreachable = 0;
  int exact = 0;  // found solves whose sums are exact
  const int instances = instance_budget();
  for (int i = 0; i < instances; ++i) {
    support::Rng rng(0xa57a2ull * 1000003ull + static_cast<std::uint64_t>(i));
    const net::WdmNetwork net = draw_network(i, rng);
    for (int q = 0; q < 3; ++q) {
      const auto s = static_cast<net::NodeId>(rng.index(net.num_nodes()));
      auto t = static_cast<net::NodeId>(rng.index(net.num_nodes()));
      if (s == t) t = (t + 1) % net.num_nodes();
      draw_view(net, rng, &priced);
      const LinkView* const views[] = {&residual, &priced.view};
      for (const auto& mask : draw_masks(net, s, t, rng)) {
        for (const LinkView* view : views) {
          const std::string ctx =
              "instance " + std::to_string(i) + " query " +
              std::to_string(s) + "->" + std::to_string(t) + " mask " +
              (mask.empty() ? "none" : std::to_string(mask.size())) +
              (view == &priced.view ? " priced" : " residual");
          const LayeredGraph lg = LayeredGraph::build(net, s, t, mask, *view);
          const graph::Path p =
              graph::shortest_path(lg.g, lg.w, lg.source_hub, lg.sink_hub);
          const double dist =
              optimal_semilightpath_into(net, s, t, mask, ws, &got, *view);
          ASSERT_EQ(got.found, p.found) << ctx;
          if (got.found) {
            ++found;
            if (exact_sums(net, *view)) {
              ++exact;
              ASSERT_EQ(dist, p.cost) << ctx;
            } else {
              ASSERT_NEAR(dist, p.cost, 1e-12 * p.cost) << ctx;
            }
            EXPECT_TRUE(got.well_formed(net)) << ctx;
          } else {
            ASSERT_EQ(dist, graph::kInf) << ctx;
            ++unreachable;
          }
        }
      }
    }
  }
  EXPECT_GT(exact, found / 4);
  EXPECT_LT(exact, found);
  EXPECT_GT(unreachable, 0);
}

TEST(SemilightpathDifferential, WrappersMatchWarmSolver) {
  SemilightpathWorkspace ws;
  net::Semilightpath got;
  for (int i = 0; i < 20; ++i) {
    support::Rng rng(0xc0ffeeull + static_cast<std::uint64_t>(i));
    const net::WdmNetwork net = draw_network(i, rng);
    const net::NodeId s = 0;
    const net::NodeId t = net.num_nodes() - 1;
    for (const auto& mask : draw_masks(net, s, t, rng)) {
      optimal_semilightpath_into(net, s, t, mask, ws, &got);
      const net::Semilightpath cold = optimal_semilightpath(net, s, t, mask);
      ASSERT_EQ(cold.found, got.found) << "instance " << i;
      ASSERT_EQ(cold.hops, got.hops) << "instance " << i;
      const double cost = optimal_semilightpath_cost(net, s, t, mask);
      EXPECT_EQ(cost, got.found ? got.cost(net) : graph::kInf)
          << "instance " << i;
    }
  }
}

}  // namespace
}  // namespace wdm::rwa
