// Differential check of the mask invariant the load-aware routers rest on.
// The MinCog ϑ search builds one G_c or G_rc arena at ϑ_max =
// net.theta_max() and confirms G_x(ϑ) as that arena cut to ϑ, instead of
// building G_x(ϑ). For every ϑ the search can probe — each rung of the
// paper's doubling ladder and nextafter(load, +inf) for every link load —
// the arena under the oracle's arc mask (test::oracle_threshold_mask) must
// equal a fresh AuxGraphBuilder build at ϑ:
//   * arc for arc (the two share the arena layout, so arc ids line up):
//     enabled-and-finite in the masked arena iff finite in the fresh build,
//     with bit-identical weights;
//   * Suurballe under the mask returns the fresh build's pair: found, arc
//     ids and path costs all identical;
//   * the arena's pair-existence check agrees with that pair's `found`;
//   * as the ϑ confirm runs it — no arc mask, goal-directed and cut by the
//     bound over the links open at ϑ (+inf on the closed links' edge-nodes)
//     — Suurballe returns the fresh build's goal-directed pair under its own
//     bound (its closed links carry +inf, so the two bounds agree on every
//     open node).
// Instances cover the generator's conversion mix, full, none,
// limited-range r = 1/2/4 and general/forbidden conversion tables
// (conversion_families.hpp), random extra loads, G_c and both G_rc
// normalizations.
//
// Budget knob: WDM_FUZZ_ITERATIONS scales the instance count (default 500,
// used as instances = max(20, WDM_FUZZ_ITERATIONS / 5)).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "conversion_families.hpp"
#include "fuzz/generator.hpp"
#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "theta_oracle.hpp"

namespace wdm::fuzz {
namespace {

using rwa::AuxGraph;
using rwa::AuxGraphBuilder;
using rwa::AuxGraphOptions;
using rwa::AuxWeighting;

int instance_budget() {
  const auto iters = support::env_int("WDM_FUZZ_ITERATIONS", 500);
  return std::max<int>(20, static_cast<int>(iters / 5));
}

/// Every ϑ a search can probe: the doubling ladder's rungs (as
/// find_two_paths_mincog climbs them) and the strict-filter boundary just
/// past each link load (the linear scan's grid, exact_min_threshold's
/// probes).
std::vector<double> probe_points(const net::WdmNetwork& net) {
  const double theta_min = net.theta_min();
  const double theta_max = net.theta_max();
  const double delta = theta_max - theta_min;
  std::vector<double> points{theta_min};
  if (delta > 0.0) {
    int j = std::max(0, static_cast<int>(std::ceil(-std::log2(delta))));
    for (double theta = theta_min; theta < theta_max; --j) {
      theta = std::min(theta + delta / std::pow(2.0, j), theta_max);
      points.push_back(theta);
    }
  }
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    points.push_back(std::nextafter(net.link_load(e),
                                    std::numeric_limits<double>::infinity()));
  }
  return points;
}

struct Arm {
  const char* label;
  AuxWeighting weighting;
  bool grc_mean_over_available;
};

constexpr Arm kArms[] = {
    {"G_c", AuxWeighting::kLoadExponential, false},
    {"G_rc", AuxWeighting::kCostLoadFiltered, false},
    {"G_rc(mean-avail)", AuxWeighting::kCostLoadFiltered, true},
};

TEST(ThetaMaskDifferential, MaskedThetaMaxArenaEqualsFreshBuild) {
  const int instances = instance_budget();
  int checked = 0;
  int pairs = 0;
  for (int i = 0; i < instances; ++i) {
    const std::uint64_t seed = 0x7e7a3a5cull + static_cast<std::uint64_t>(i);
    FuzzInstance inst = generate_instance(seed);
    net::WdmNetwork& net = inst.network;
    support::Rng rng(seed ^ 0x3a5cull);
    set_conversion_family(net, i % kConversionKinds, rng);
    const double occupancy = rng.uniform(0.0, 0.7);
    for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
      net.available(e).for_each([&](net::Wavelength l) {
        if (rng.bernoulli(occupancy)) net.reserve(e, l);
      });
    }
    const std::vector<double> thetas = probe_points(net);

    for (const Arm& arm : kArms) {
      AuxGraphOptions opt;
      opt.weighting = arm.weighting;
      opt.grc_mean_over_available = arm.grc_mean_over_available;
      opt.theta = net.theta_max();
      AuxGraphBuilder arena_builder;
      const AuxGraph& arena = arena_builder.build(net, inst.s, inst.t, opt);
      std::vector<std::uint8_t> mask;
      graph::SuurballeWorkspace ws;
      graph::DisjointPair masked;
      rwa::ArenaLowerBound bound;
      rwa::ArenaLowerBound fresh_bound;

      for (const double theta : thetas) {
        const std::string ctx =
            "seed " + std::to_string(seed) + " family " + inst.family +
            " conversion kind " + std::to_string(i % kConversionKinds) +
            " arm " + arm.label + " theta " + std::to_string(theta);
        opt.theta = theta;
        AuxGraphBuilder fresh_builder;
        const AuxGraph& fresh = fresh_builder.build(net, inst.s, inst.t, opt);
        test::oracle_threshold_mask(arena, net, theta, &mask);
        ASSERT_EQ(fresh.g.num_edges(), arena.g.num_edges()) << ctx;
        ASSERT_EQ(mask.size(), arena.w.size()) << ctx;
        for (std::size_t a = 0; a < mask.size(); ++a) {
          const bool on = mask[a] != 0 && arena.w[a] != graph::kInf;
          ASSERT_EQ(on, fresh.w[a] != graph::kInf) << ctx << " arc " << a;
          if (on) {
            ASSERT_EQ(arena.w[a], fresh.w[a]) << ctx << " arc " << a;
          }
        }

        const graph::DisjointPair want = graph::suurballe(
            fresh.g, fresh.w, fresh.s_prime, fresh.t_second);
        graph::suurballe_into(arena.g, arena.w, arena.s_prime,
                              arena.t_second, mask, &ws, &masked);
        ASSERT_EQ(masked.found, want.found) << ctx;
        EXPECT_EQ(graph::has_edge_disjoint_pair(arena.g, arena.w,
                                                arena.s_prime, arena.t_second,
                                                mask, &ws),
                  want.found)
            << ctx;
        ++checked;
        if (!want.found) continue;
        ++pairs;
        EXPECT_EQ(masked.first.edges, want.first.edges) << ctx;
        EXPECT_EQ(masked.second.edges, want.second.edges) << ctx;
        EXPECT_EQ(masked.first.cost, want.first.cost) << ctx;
        EXPECT_EQ(masked.second.cost, want.second.cost) << ctx;

        graph::DisjointPair goal_want;
        graph::suurballe_into(fresh.g, fresh.w, fresh.s_prime, fresh.t_second,
                              {}, &ws, &goal_want,
                              fresh_bound.compute(net, fresh, inst.s, inst.t));
        graph::suurballe_into(
            arena.g, arena.w, arena.s_prime, arena.t_second, {}, &ws,
            &masked, bound.compute(net, arena, inst.s, inst.t, theta));
        const std::string goal = ctx + " goal-directed";
        ASSERT_EQ(masked.found, goal_want.found) << goal;
        EXPECT_EQ(masked.first.edges, goal_want.first.edges) << goal;
        EXPECT_EQ(masked.second.edges, goal_want.second.edges) << goal;
        EXPECT_EQ(masked.first.cost, goal_want.first.cost) << goal;
        EXPECT_EQ(masked.second.cost, goal_want.second.cost) << goal;
        if (HasFailure()) return;
      }
    }
  }
  // Both outcomes must be exercised.
  EXPECT_GT(pairs, checked / 20);
  EXPECT_LT(pairs, checked);
}

}  // namespace
}  // namespace wdm::fuzz
