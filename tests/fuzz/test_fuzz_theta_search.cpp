// Differential check of the MinCog ϑ search (§4.1) against the arena-BFS
// ladder it replaced (tests/theta_oracle.hpp). The search answers each rung
// with a link-disjoint pair check on the physical graph and confirms a pass
// with Suurballe on the ϑ_max arena; the oracle asks the arena itself at
// every rung. On every instance, for G_c and G_rc and for all three ladders
// (doubling, linear scan, bisection), the two must agree on found, ϑ, the
// rung count and the last infeasible ϑ, and on success the search's arc mask
// must be the oracle's bit for bit and its pair the oracle's Suurballe pair
// (arc ids and costs). exact_min_threshold must agree with the oracle's
// version too. Instances cover the generator's conversion mix, full, none,
// limited-range r = 1/2/4 and general tables; one set of buffers serves
// every search, as a pooled RouteScratch does. Without conversion,
// wavelength continuity makes the physical check pass where the arena has
// no pair, so the confirm misses; the test requires such misses to occur.
//
// Budget knob: WDM_FUZZ_ITERATIONS scales the instance count (default 500,
// used as instances = max(100, WDM_FUZZ_ITERATIONS / 5)).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "conversion_families.hpp"
#include "fuzz/generator.hpp"
#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/mincog.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "theta_oracle.hpp"

namespace wdm::fuzz {
namespace {

/// At least 100 instances even under a smoke budget: below that, too few
/// conversion-free instances reach a rung the arena rejects to show a miss
/// (21 instances showed none; 100 show hundreds, in ~0.1 s under ASan).
int instance_budget() {
  const auto iters = support::env_int("WDM_FUZZ_ITERATIONS", 500);
  return std::max<int>(100, static_cast<int>(iters / 5));
}

/// Bit equality, with NaN equal to NaN (last_infeasible_theta's "none").
bool same_bits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

struct Arm {
  const char* label;
  rwa::AuxWeighting weighting;
};

constexpr Arm kArms[] = {
    {"G_c", rwa::AuxWeighting::kLoadExponential},
    {"G_rc", rwa::AuxWeighting::kCostLoadFiltered},
};

constexpr rwa::ThetaSearch kSearches[] = {
    rwa::ThetaSearch::kDoubling,
    rwa::ThetaSearch::kLinearScan,
    rwa::ThetaSearch::kBisection,
};

TEST(ThetaSearchDifferential, PhysicalCheckLadderEqualsArenaBfsLadder) {
  const int instances = instance_budget();
  GenOptions gen;
  gen.max_wavelengths = 8;  // room for range-4 conversion to differ from full
  rwa::ArenaLowerBound bound;
  graph::SuurballeWorkspace ws;
  graph::DisjointPair pair;
  int searches = 0;
  int found = 0;
  int confirms = 0;
  int misses = 0;
  for (int i = 0; i < instances; ++i) {
    const std::uint64_t seed = 0x5ea7c4ull + static_cast<std::uint64_t>(i);
    FuzzInstance inst = generate_instance(seed, gen);
    net::WdmNetwork& net = inst.network;
    support::Rng rng(seed ^ 0xc0f1ull);
    const int kind = i % kConversionKinds;
    set_conversion_family(net, kind, rng);
    const double occupancy = rng.uniform(0.0, 0.7);
    for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
      net.available(e).for_each([&](net::Wavelength l) {
        if (rng.bernoulli(occupancy)) net.reserve(e, l);
      });
    }
    const std::string where = "seed " + std::to_string(seed) + " family " +
                              inst.family + " conversion kind " +
                              std::to_string(kind);

    for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
      const auto ei = static_cast<std::size_t>(e);
      ASSERT_EQ(net.residual_loads()[ei],
                net.available(e).empty() ? graph::kInf : net.link_load(e))
          << where << " link " << e;
    }

    for (const Arm& arm : kArms) {
      rwa::AuxGraphOptions aopt;
      aopt.weighting = arm.weighting;
      aopt.theta = net.theta_max();
      rwa::AuxGraphBuilder builder;
      const rwa::AuxGraph& arena = builder.build(net, inst.s, inst.t, aopt);
      for (const rwa::ThetaSearch search : kSearches) {
        const std::string ctx = where + " arm " + arm.label + " search " +
                                std::to_string(static_cast<int>(search));
        rwa::MinCogOptions mopt;
        mopt.search = search;
        const rwa::MinCogResult got = rwa::mincog_search(
            net, inst.s, inst.t, arena, mopt, &bound, &ws, &pair);
        const test::OracleSearch want =
            test::oracle_mincog_search(net, inst.s, inst.t, arena, search);
        ++searches;
        confirms += got.confirms;
        misses += got.confirm_misses;
        ASSERT_EQ(got.found, want.result.found) << ctx;
        ASSERT_EQ(pair.found, got.found) << ctx;
        EXPECT_TRUE(same_bits(got.theta, want.result.theta)) << ctx;
        EXPECT_EQ(got.iterations, want.result.iterations) << ctx;
        EXPECT_TRUE(same_bits(got.last_infeasible_theta,
                              want.result.last_infeasible_theta))
            << ctx << " got " << got.last_infeasible_theta << " want "
            << want.result.last_infeasible_theta;
        EXPECT_LE(got.confirms, got.iterations) << ctx;
        EXPECT_LE(got.confirm_misses, got.confirms) << ctx;
        if (kind == 1) {
          // Full conversion: every transit arc exists, so the arena holds a
          // pair whenever the physical graph does and no confirm misses.
          EXPECT_EQ(got.confirm_misses, 0) << ctx;
        }
        if (got.found) {
          ++found;
          // The confirm cut the arena through the bound alone; the oracle
          // ran Suurballe under the accepted rung's arc mask.
          EXPECT_EQ(pair.first.edges, want.pair.first.edges) << ctx;
          EXPECT_EQ(pair.second.edges, want.pair.second.edges) << ctx;
          EXPECT_EQ(pair.first.cost, want.pair.first.cost) << ctx;
          EXPECT_EQ(pair.second.cost, want.pair.second.cost) << ctx;
        }
        if (HasFailure()) return;
      }
    }

    double got_exact = 0.0;
    double want_exact = 0.0;
    const bool got_ok =
        rwa::exact_min_threshold(net, inst.s, inst.t, &got_exact);
    ASSERT_EQ(got_ok,
              test::oracle_exact_min_threshold(net, inst.s, inst.t,
                                               &want_exact))
        << where;
    if (got_ok) {
      EXPECT_EQ(got_exact, want_exact) << where;
    }
  }
  // Both outcomes occur, and the physical check passes on rungs the arena
  // rejects (no or restricted conversion).
  EXPECT_GT(found, searches / 10);
  EXPECT_LT(found, searches);
  EXPECT_GT(misses, 0) << "no confirm missed in " << confirms << " confirms";
}

}  // namespace
}  // namespace wdm::fuzz
