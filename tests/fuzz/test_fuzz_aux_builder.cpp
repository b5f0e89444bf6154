// Differential check of the reusable AuxGraphBuilder against the cold
// compact reference build_aux_graph. The builder lays G' / G_c / G_rc out
// as a stable arena (every structural arc, disabled ones at +inf); the
// reference keeps only usable links and finite arcs. Under randomized
// reserve/release/fiber-cut churn and changing (s, t), a long-lived builder
// must produce:
//   * finite arena arcs that map one-to-one, by physical identity, onto the
//     reference's arcs, with bit-identical weights;
//   * +inf (exactly kInf) on every other arena arc;
//   * equal edge-node, link-arc and transit-arc counts;
//   * the same Suurballe outcome: equal `found`, total costs within 1e-9
//     relative;
//   * an arena pair whose cost equals the min-cost-flow oracle's (within
//     1e-9 relative) on the arena's finite arcs: Suurballe's early stop and
//     its potentials min(d, d(t)) must never cost optimality.
// This is the contract the routers' correctness rests on: if it holds, the
// arena layout and its build record are observationally invisible. It is
// checked with one builder per weighting, with one builder cycled through
// every option (weighting, ϑ, link mask, node protection) between builds,
// and under every kind of revision bump a dirty-only build must follow
// (DirtyBuildsFollowEveryRevisionBump, which also checks the builder's τ
// against tests/arena_oracle.hpp).
//
// Budget knob: WDM_FUZZ_ITERATIONS scales the instance count (default 500,
// used as instances = max(20, WDM_FUZZ_ITERATIONS / 5)).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arena_oracle.hpp"
#include "fuzz/generator.hpp"
#include "graph/mincostflow.hpp"
#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace wdm::fuzz {
namespace {

using rwa::AuxGraph;
using rwa::AuxGraphBuilder;
using rwa::AuxGraphOptions;
using rwa::AuxWeighting;

/// Layout-independent identity of an aux node: which physical link it is an
/// edge-node of (kOut = u_out^e, kIn = v_in^e), one of the two query hubs,
/// or which physical node a protect-gadget hub serves.
enum NodeKind { kOut, kIn, kSPrime, kTSecond, kHubIn, kHubOut, kUnknown };
using NodeLabel = std::pair<int, int>;  // (NodeKind, link or node id)
using ArcKey = std::pair<NodeLabel, NodeLabel>;

/// Labels every node of `aux`. Gadget hubs carry no physical edge; their
/// node is recovered from a finite fan arc (a hub with none has no finite
/// arcs at all, so its label never matters).
std::vector<NodeLabel> label_nodes(const net::WdmNetwork& net,
                                   const AuxGraph& aux) {
  const auto& pg = net.graph();
  std::vector<NodeLabel> label(static_cast<std::size_t>(aux.g.num_nodes()),
                               {kUnknown, -1});
  for (graph::NodeId v = 0; v < aux.g.num_nodes(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    const graph::EdgeId e = aux.phys_edge_of_node[i];
    if (v == aux.s_prime) {
      label[i] = {kSPrime, 0};
    } else if (v == aux.t_second) {
      label[i] = {kTSecond, 0};
    } else if (e != graph::kInvalidEdge) {
      label[i] = {aux.is_in_node[i] ? kIn : kOut, e};
    }
  }
  for (graph::EdgeId a = 0; a < aux.g.num_edges(); ++a) {
    if (aux.w[static_cast<std::size_t>(a)] == graph::kInf) continue;
    const auto tail = static_cast<std::size_t>(aux.g.tail(a));
    const auto head = static_cast<std::size_t>(aux.g.head(a));
    const graph::EdgeId te = aux.phys_edge_of_node[tail];
    const graph::EdgeId he = aux.phys_edge_of_node[head];
    if (label[head].first == kUnknown && te != graph::kInvalidEdge) {
      label[head] = {kHubIn, pg.head(te)};  // fan-in arc v_in^e -> hub_in
    }
    if (label[tail].first == kUnknown && he != graph::kInvalidEdge) {
      label[tail] = {kHubOut, pg.tail(he)};  // fan-out arc hub_out -> u_out^e
    }
  }
  for (graph::EdgeId a = 0; a < aux.g.num_edges(); ++a) {
    // The hub arc hub_in -> hub_out: each end inherits the other's node.
    if (aux.w[static_cast<std::size_t>(a)] == graph::kInf) continue;
    auto& tl = label[static_cast<std::size_t>(aux.g.tail(a))];
    auto& hl = label[static_cast<std::size_t>(aux.g.head(a))];
    if (tl.first == kHubIn && hl.first == kUnknown) hl = {kHubOut, tl.second};
    if (hl.first == kHubOut && tl.first == kUnknown) tl = {kHubIn, hl.second};
  }
  return label;
}

/// Finite arcs of `aux` keyed by physical identity. Fails on a duplicate
/// key (the map must be one-to-one), on an unlabeled endpoint, and on any
/// non-finite weight other than exactly kInf.
std::map<ArcKey, double> finite_arcs(const net::WdmNetwork& net,
                                     const AuxGraph& aux,
                                     const std::string& context) {
  const std::vector<NodeLabel> label = label_nodes(net, aux);
  std::map<ArcKey, double> arcs;
  for (graph::EdgeId a = 0; a < aux.g.num_edges(); ++a) {
    const double w = aux.w[static_cast<std::size_t>(a)];
    if (w == graph::kInf) continue;
    EXPECT_TRUE(std::isfinite(w)) << context << " arc " << a << " weight "
                                  << w << " (disabled arcs must be kInf)";
    const ArcKey key{label[static_cast<std::size_t>(aux.g.tail(a))],
                     label[static_cast<std::size_t>(aux.g.head(a))]};
    EXPECT_NE(key.first.first, kUnknown) << context << " arc " << a;
    EXPECT_NE(key.second.first, kUnknown) << context << " arc " << a;
    EXPECT_TRUE(arcs.emplace(key, w).second)
        << context << " arc " << a << " duplicates a physical identity";
  }
  return arcs;
}

/// The arena-vs-compact contract for one query (see the file comment).
/// EXPECT_EQ on weights is deliberate: the builder promises *bit-identical*
/// weights, because routers compare path costs built from them.
void expect_equivalent(const net::WdmNetwork& net, const AuxGraph& compact,
                       const AuxGraph& arena, const std::string& context) {
  EXPECT_EQ(compact.num_edge_nodes, arena.num_edge_nodes) << context;
  EXPECT_EQ(compact.num_link_arcs, arena.num_link_arcs) << context;
  EXPECT_EQ(compact.num_transit_arcs, arena.num_transit_arcs) << context;
  ASSERT_EQ(arena.w.size(), static_cast<std::size_t>(arena.g.num_edges()))
      << context;
  ASSERT_EQ(arena.phys_edge_of_arc.size(), arena.w.size()) << context;
  for (graph::EdgeId a = 0; a < compact.g.num_edges(); ++a) {
    ASSERT_NE(compact.w[static_cast<std::size_t>(a)], graph::kInf)
        << context << " compact arc " << a;
  }

  const std::map<ArcKey, double> want = finite_arcs(net, compact, context);
  const std::map<ArcKey, double> got = finite_arcs(net, arena, context);
  ASSERT_EQ(want.size(), static_cast<std::size_t>(compact.g.num_edges()))
      << context;
  ASSERT_EQ(got.size(), want.size()) << context << " finite arena arcs";
  for (const auto& [key, w] : want) {
    const auto it = got.find(key);
    ASSERT_NE(it, got.end()) << context << " arc (" << key.first.first << ","
                             << key.first.second << ")->(" << key.second.first
                             << "," << key.second.second
                             << ") missing from the arena";
    ASSERT_EQ(it->second, w) << context << " (weights must be bit-identical)";
  }
  // Link arcs keep their physical edge in both layouts.
  for (graph::EdgeId a = 0; a < arena.g.num_edges(); ++a) {
    const auto i = static_cast<std::size_t>(a);
    if (arena.w[i] == graph::kInf) continue;
    const graph::EdgeId phys = arena.phys_edge_of_arc[i];
    const bool link_arc =
        arena.phys_edge_of_node[static_cast<std::size_t>(arena.g.tail(a))] ==
            arena.phys_edge_of_node[static_cast<std::size_t>(arena.g.head(a))] &&
        !arena.is_in_node[static_cast<std::size_t>(arena.g.tail(a))] &&
        arena.is_in_node[static_cast<std::size_t>(arena.g.head(a))];
    EXPECT_EQ(phys != graph::kInvalidEdge, link_arc) << context << " arc " << a;
  }

  const graph::DisjointPair pc = graph::suurballe(
      compact.g, compact.w, compact.s_prime, compact.t_second);
  const graph::DisjointPair pa =
      graph::suurballe(arena.g, arena.w, arena.s_prime, arena.t_second);
  ASSERT_EQ(pc.found, pa.found) << context;
  if (pc.found) {
    const double tol = 1e-9 * std::max(1.0, std::abs(pc.total_cost()));
    EXPECT_NEAR(pc.total_cost(), pa.total_cost(), tol) << context;
  }

  std::vector<std::uint8_t> finite(arena.w.size());
  for (std::size_t a = 0; a < finite.size(); ++a) {
    finite[a] = arena.w[a] < graph::kInf ? 1 : 0;
  }
  const auto oracle = graph::min_cost_disjoint_paths(
      arena.g, arena.w, arena.s_prime, arena.t_second, 2, finite);
  ASSERT_EQ(pa.found, oracle.has_value()) << context << " (oracle)";
  if (pa.found) {
    const double cost = (*oracle)[0].cost + (*oracle)[1].cost;
    EXPECT_NEAR(pa.total_cost(), cost, 1e-9 * std::max(1.0, std::abs(cost)))
        << context << " (oracle)";
  }
}

/// One random residual-state mutation: reserve an available wavelength,
/// release a used one, or toggle a link's failure state.
void churn_step(net::WdmNetwork& net, support::Rng& rng) {
  const graph::EdgeId e =
      static_cast<graph::EdgeId>(rng.index(static_cast<std::size_t>(
          net.num_links())));
  const double dice = rng.uniform();
  if (dice < 0.1) {
    net.set_link_failed(e, !net.link_failed(e));
    return;
  }
  if (dice < 0.55) {
    const std::vector<net::Wavelength> avail = net.available(e).to_vector();
    if (!avail.empty()) net.reserve(e, avail[rng.index(avail.size())]);
    return;
  }
  std::vector<net::Wavelength> used;
  net.installed(e).for_each([&](net::Wavelength l) {
    if (net.is_used(e, l)) used.push_back(l);
  });
  if (!used.empty()) net.release(e, used[rng.index(used.size())]);
}

int instance_budget() {
  const auto iters = support::env_int("WDM_FUZZ_ITERATIONS", 500);
  return std::max<int>(20, static_cast<int>(iters / 5));
}

struct Arm {
  const char* label;
  AuxWeighting weighting;
  bool protect_nodes;
};

constexpr Arm kArms[] = {
    {"G'", AuxWeighting::kCost, false},
    {"G_c", AuxWeighting::kLoadExponential, false},
    {"G_rc", AuxWeighting::kCostLoadFiltered, false},
    {"G'+protect", AuxWeighting::kCost, true},
};

TEST(AuxBuilderDifferential, WarmEqualsColdUnderChurn) {
  const int instances = instance_budget();
  for (int i = 0; i < instances; ++i) {
    const std::uint64_t seed = 0xab11de50ull + static_cast<std::uint64_t>(i);
    FuzzInstance inst = generate_instance(seed);
    support::Rng rng(seed ^ 0x5eedull);

    // One long-lived builder per arm survives the whole churn sequence;
    // the cold reference is rebuilt from scratch at every step.
    AuxGraphBuilder builders[std::size(kArms)];
    const int steps = 8;
    for (int step = 0; step < steps; ++step) {
      for (int k = 0; k < 3; ++k) churn_step(inst.network, rng);
      // Vary the query too: the arena must cope with changing (s, t).
      const net::NodeId s =
          step % 2 == 0 ? inst.s
                        : static_cast<net::NodeId>(rng.index(
                              static_cast<std::size_t>(
                                  inst.network.num_nodes())));
      net::NodeId t = inst.t;
      if (t == s) t = (t + 1) % inst.network.num_nodes();

      for (std::size_t a = 0; a < std::size(kArms); ++a) {
        AuxGraphOptions opt;
        opt.weighting = kArms[a].weighting;
        opt.protect_nodes = kArms[a].protect_nodes;
        if (opt.weighting != AuxWeighting::kCost) {
          // A mid-range ϑ so the filter actually drops some links.
          opt.theta = 0.25 + 0.75 * rng.uniform();
        }
        const AuxGraph compact = rwa::build_aux_graph(inst.network, s, t, opt);
        const AuxGraph& arena = builders[a].build(inst.network, s, t, opt);
        expect_equivalent(
            inst.network, compact, arena,
            std::string("seed ") + std::to_string(seed) + " family " +
                inst.family + " step " + std::to_string(step) + " arm " +
                kArms[a].label);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(AuxBuilderDifferential, OneBuilderServesEveryOptionSequence) {
  const int instances = instance_budget();
  for (int i = 0; i < instances; ++i) {
    const std::uint64_t seed = 0x0b71d3e5ull + static_cast<std::uint64_t>(i);
    FuzzInstance inst = generate_instance(seed);
    net::WdmNetwork& net = inst.network;
    support::Rng rng(seed ^ 0x5eedull);
    const auto m = static_cast<std::size_t>(net.num_links());

    // One builder for the whole run: every build changes the options from
    // the previous one, so each option-to-option transition is checked.
    AuxGraphBuilder builder;
    const int steps = 4;
    for (int step = 0; step < steps; ++step) {
      for (int k = 0; k < 3; ++k) churn_step(net, rng);
      const auto s = static_cast<net::NodeId>(
          rng.index(static_cast<std::size_t>(net.num_nodes())));
      auto t = static_cast<net::NodeId>(
          rng.index(static_cast<std::size_t>(net.num_nodes())));
      if (t == s) t = (t + 1) % net.num_nodes();

      auto gc = [&](double theta) {
        AuxGraphOptions opt;
        opt.weighting = AuxWeighting::kLoadExponential;
        opt.theta = theta;
        return opt;
      };
      // ϑ₂ sits just past a link's load, where the strict filter starts to
      // admit that link (the exact-threshold oracle's probe point).
      const auto probe_link = static_cast<graph::EdgeId>(rng.index(m));
      const double theta2 =
          std::nextafter(net.link_load(probe_link),
                         std::numeric_limits<double>::infinity());
      AuxGraphOptions grc;
      grc.weighting = AuxWeighting::kCostLoadFiltered;
      grc.theta = 0.25 + 0.75 * rng.uniform();
      AuxGraphOptions protect_g;
      protect_g.protect_nodes = true;
      AuxGraphOptions protect_gc = gc(0.25 + 0.75 * rng.uniform());
      protect_gc.protect_nodes = true;

      const std::pair<const char*, AuxGraphOptions> sequence[] = {
          {"G'", AuxGraphOptions{}},
          {"G_c(theta1)", gc(0.25 + 0.75 * rng.uniform())},
          {"G_c(theta2)", gc(theta2)},
          {"G_rc", grc},
          {"G'", AuxGraphOptions{}},  // back from G_rc, same query
          {"G'+protect", protect_g},
          {"G_c+protect", protect_gc},
      };
      for (const auto& [label, opt] : sequence) {
        const AuxGraph compact = rwa::build_aux_graph(net, s, t, opt);
        const AuxGraph& arena = builder.build(net, s, t, opt);
        expect_equivalent(net, compact, arena,
                          std::string("seed ") + std::to_string(seed) +
                              " family " + inst.family + " step " +
                              std::to_string(step) + " build " + label);
        if (HasFatalFailure()) return;
      }
    }
  }
}

/// Replaces v's conversion table with one of another family than a coin
/// picks: full, none or limited-range, at a random cost.
void switch_conversion(net::WdmNetwork& net, support::Rng& rng) {
  const auto v = static_cast<net::NodeId>(
      rng.index(static_cast<std::size_t>(net.num_nodes())));
  const double cost = 0.25 + rng.uniform();
  const double dice = rng.uniform();
  if (dice < 0.4) {
    net.set_conversion(v, net::ConversionTable::full(net.W(), cost));
  } else if (dice < 0.6) {
    net.set_conversion(v, net::ConversionTable::none(net.W()));
  } else {
    const int range = 1 + static_cast<int>(rng.index(2));
    net.set_conversion(
        v, net::ConversionTable::limited_range(net.W(), range, cost));
  }
}

TEST(AuxBuilderDifferential, DirtyBuildsFollowEveryRevisionBump) {
  struct DirtyArm {
    const char* label;
    AuxWeighting weighting;
    bool protect_nodes;
  };
  constexpr DirtyArm arms[] = {
      {"G'", AuxWeighting::kCost, false},
      {"G_c", AuxWeighting::kLoadExponential, false},
      {"G_rc", AuxWeighting::kCostLoadFiltered, false},
      {"G'+protect", AuxWeighting::kCost, true},
      {"G_c+protect", AuxWeighting::kLoadExponential, true},
  };
  const int instances = instance_budget();
  for (int i = 0; i < instances; ++i) {
    const std::uint64_t seed = 0xd1e7b0d5ull + static_cast<std::uint64_t>(i);
    FuzzInstance inst = generate_instance(seed);
    net::WdmNetwork& net = inst.network;
    support::Rng rng(seed ^ 0x5eedull);
    const auto m = static_cast<std::size_t>(net.num_links());
    const auto n = static_cast<std::size_t>(net.num_nodes());

    // Long-lived state: one builder per arm, each updated from the
    // revisions alone.
    AuxGraphBuilder builders[std::size(arms)];
    std::vector<std::vector<std::uint64_t>> usages{net.usage_snapshot()};
    net::NodeId s = inst.s;
    net::NodeId t = inst.t;
    double theta = net.theta_max();
    const int steps = 10;
    for (int step = 0; step < steps; ++step) {
      // One mutation per step, each kind a dirty build must follow.
      const double dice = rng.uniform();
      const char* what = "";
      if (dice < 0.3) {
        what = "churn";  // reserve, release or a failure toggle
        for (int k = 0; k < 2; ++k) churn_step(net, rng);
        usages.push_back(net.usage_snapshot());
      } else if (dice < 0.45) {
        what = "set_conversion";
        switch_conversion(net, rng);
      } else if (dice < 0.55) {
        what = "restore_usage";
        net.restore_usage(usages[rng.index(usages.size())]);
      } else if (dice < 0.8) {
        // ϑ-only: just past a link's load (admits that link), or ϑ_max.
        what = "theta";
        theta = rng.uniform() < 0.3
                    ? net.theta_max()
                    : std::nextafter(net.link_load(static_cast<graph::EdgeId>(
                                         rng.index(m))),
                                     std::numeric_limits<double>::infinity());
      } else {
        what = "query";
        s = static_cast<net::NodeId>(rng.index(n));
        t = static_cast<net::NodeId>(rng.index(n));
        if (t == s) t = (t + 1) % net.num_nodes();
      }

      const std::string context = std::string("seed ") +
                                  std::to_string(seed) + " family " +
                                  inst.family + " step " +
                                  std::to_string(step) + " after " + what;
      for (std::size_t a = 0; a < std::size(arms); ++a) {
        AuxGraphOptions opt;
        opt.weighting = arms[a].weighting;
        opt.protect_nodes = arms[a].protect_nodes;
        opt.theta = theta;
        const std::string arm_context =
            context + " arm " + arms[a].label;
        const AuxGraph compact = rwa::build_aux_graph(net, s, t, opt);
        const AuxGraph& arena = builders[a].build(net, s, t, opt);
        expect_equivalent(net, compact, arena, arm_context);
        if (HasFatalFailure()) return;
        EXPECT_EQ(arena.min_transit, test::scan_min_transit(net, arena))
            << arm_context << " (builder τ vs the all-arc scan)";
      }
      if (HasFailure()) return;
    }
  }
}

TEST(AuxBuilderDifferential, CacheActuallyHitsOnUnchangedNetwork) {
  FuzzInstance inst = generate_instance(7);
  AuxGraphBuilder builder;
  AuxGraphOptions opt;  // G': exercises both transit and link caches
  builder.build(inst.network, inst.s, inst.t, opt);
  const auto after_first = builder.stats();
  // A different query over the unchanged network re-weights the arena from
  // the caches alone.
  const net::NodeId t2 = (inst.t + 1) % inst.network.num_nodes() == inst.s
                             ? (inst.t + 2) % inst.network.num_nodes()
                             : (inst.t + 1) % inst.network.num_nodes();
  builder.build(inst.network, inst.s, t2, opt);
  const auto after_second = builder.stats();
  EXPECT_EQ(after_second.builds, 2u);
  // Nothing changed between builds: the second is all hits, no misses.
  EXPECT_EQ(after_second.conv_misses, after_first.conv_misses);
  EXPECT_EQ(after_second.link_misses, after_first.link_misses);
  EXPECT_GT(after_second.link_hits, after_first.link_hits);
}

TEST(AuxBuilderDifferential, ReserveInvalidatesOnlyTouchedLink) {
  FuzzInstance inst = generate_instance(11);
  net::WdmNetwork& net = inst.network;
  AuxGraphBuilder builder;
  builder.build(net, inst.s, inst.t, AuxGraphOptions{});
  const auto full = builder.stats();

  // Reserve one wavelength on a link that keeps another available, so the
  // link stays in G' and its weight must be re-derived.
  graph::EdgeId touched = graph::kInvalidEdge;
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    const net::WavelengthSet avail = net.available(e);
    if (avail.count() < 2) continue;
    net.reserve(e, avail.lowest());
    touched = e;
    break;
  }
  ASSERT_NE(touched, graph::kInvalidEdge);
  const auto before = builder.stats();
  const AuxGraph& arena = builder.build(net, inst.s, inst.t, AuxGraphOptions{});
  const auto after = builder.stats();
  // The rebuild re-derives only entries touching the mutated link: one
  // link-cost miss, and far fewer conversion-mean misses than the first,
  // full build.
  EXPECT_EQ(after.link_misses, before.link_misses + 1);
  EXPECT_GT(after.conv_misses, before.conv_misses);
  EXPECT_LT(after.conv_misses - before.conv_misses, full.conv_misses);
  const AuxGraph compact =
      rwa::build_aux_graph(net, inst.s, inst.t, AuxGraphOptions{});
  expect_equivalent(net, compact, arena, "post-reserve rebuild");
}

TEST(AuxBuilderDifferential, RebindsOnDifferentNetworkObject) {
  FuzzInstance a = generate_instance(3);
  FuzzInstance b = generate_instance(4);
  AuxGraphBuilder builder;
  builder.build(a.network, a.s, a.t, AuxGraphOptions{});
  builder.build(b.network, b.s, b.t, AuxGraphOptions{});
  EXPECT_EQ(builder.stats().rebinds, 2u);
  // A copy is a distinct object (fresh uid) even though its state is equal.
  const net::WdmNetwork copy = b.network;
  const AuxGraph& arena = builder.build(copy, b.s, b.t, AuxGraphOptions{});
  EXPECT_EQ(builder.stats().rebinds, 3u);
  const AuxGraph compact =
      rwa::build_aux_graph(copy, b.s, b.t, AuxGraphOptions{});
  expect_equivalent(copy, compact, arena, "post-rebind build");
}

}  // namespace
}  // namespace wdm::fuzz
