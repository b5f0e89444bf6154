// Differential check of ConversionTable::mean_cost — the closed forms behind
// every transit-arc weight of G′, G_c and G_rc — against the O(|A|·|B|)
// scan it replaces (mean_cost_scan):
//   * the existence bit (some allowed pair) is identical;
//   * the mean agrees within 1e-12 relative on every table family the fuzz
//     generator draws (full, none, limited range r = 1..W−1, sparse
//     general), at W up to 64, for random, empty and full sets A and B;
//   * with a dyadic cost (0.5, the NetworkOptions default) the two are
//     bit-equal — the closed form rounds once where the scan rounds per
//     pair, and dyadic sums do not round at all;
//   * set() and forbid() on a factory table make it general, so a mutated
//     table can never take a closed form that no longer describes it.
//
// Budget knob: WDM_FUZZ_ITERATIONS scales the instance count (default 500,
// used as instances = max(20, WDM_FUZZ_ITERATIONS / 5)).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "fuzz/generator.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "wdm/conversion.hpp"

namespace wdm::net {
namespace {

using Shape = ConversionTable::Shape;

constexpr int kWavelengthChoices[] = {1, 2, 5, 16, 64};

int instance_budget() {
  const auto iters = support::env_int("WDM_FUZZ_ITERATIONS", 500);
  return std::max<int>(20, static_cast<int>(iters / 5));
}

/// A random subset of {λ_0, ..., λ_{W-1}}: empty, everything, one
/// wavelength, or a dense or sparse random mask.
WavelengthSet draw_set(int W, support::Rng& rng) {
  const std::uint64_t universe = WavelengthSet::all(W).bits();
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return {};
    case 1:
      return WavelengthSet::from_bits(universe);
    case 2:
      return WavelengthSet::single(static_cast<Wavelength>(rng.index(W)));
    case 3:
      return WavelengthSet::from_bits(rng() & universe);
    default:
      return WavelengthSet::from_bits(rng() & rng() & rng() & universe);
  }
}

/// Sparse general table as the fuzz generator draws it.
ConversionTable sparse_general(int W, support::Rng& rng, double max_cost) {
  ConversionTable t = ConversionTable::none(W);
  for (Wavelength a = 0; a < W; ++a) {
    for (Wavelength b = 0; b < W; ++b) {
      if (a != b && rng.bernoulli(0.4)) t.set(a, b, rng.uniform(0.0, max_cost));
    }
  }
  return t;
}

/// Closed form vs scan on `pairs` random (A, B) draws. `bit_equal` demands
/// identical doubles; otherwise 1e-12 relative.
void expect_mean_matches_scan(const ConversionTable& t, support::Rng& rng,
                              int pairs, bool bit_equal,
                              const std::string& ctx) {
  const int W = t.num_wavelengths();
  for (int k = 0; k < pairs; ++k) {
    const WavelengthSet a = draw_set(W, rng);
    const WavelengthSet b = draw_set(W, rng);
    double got = -1.0;
    double want = -1.0;
    const bool has = t.mean_cost(a, b, &got);
    const bool has_scan = t.mean_cost_scan(a, b, &want);
    ASSERT_EQ(has, has_scan) << ctx << " A=" << a.bits() << " B=" << b.bits();
    ASSERT_EQ(has, t.mean_cost(a, b, nullptr)) << ctx;
    if (!has) {
      EXPECT_EQ(got, -1.0) << ctx << ": *mean written without a pair";
      continue;
    }
    if (bit_equal) {
      ASSERT_EQ(got, want) << ctx << " A=" << a.bits() << " B=" << b.bits();
    } else {
      ASSERT_LE(std::abs(got - want), 1e-12 * std::abs(want))
          << ctx << " A=" << a.bits() << " B=" << b.bits() << " closed=" << got
          << " scan=" << want;
    }
  }
}

TEST(ConversionMeanFuzz, ClosedFormMatchesScanOnEveryFamily) {
  const int instances = instance_budget();
  for (int i = 0; i < instances; ++i) {
    support::Rng rng(0xc0a7ull * 1000003ull + static_cast<std::uint64_t>(i));
    const int W = kWavelengthChoices[static_cast<std::size_t>(i) %
                                     std::size(kWavelengthChoices)];
    const double c = rng.uniform(0.0, 2.0);
    const std::string ctx = "instance " + std::to_string(i) +
                            " W=" + std::to_string(W) +
                            " c=" + std::to_string(c);
    expect_mean_matches_scan(ConversionTable::full(W, c), rng, 8, false,
                             ctx + " full");
    expect_mean_matches_scan(ConversionTable::none(W), rng, 8, true,
                             ctx + " none");
    for (int r = 1; r < W; ++r) {
      expect_mean_matches_scan(ConversionTable::limited_range(W, r, c), rng, 4,
                               false, ctx + " limited r=" + std::to_string(r));
    }
    // A range past the universe behaves as r = W − 1.
    expect_mean_matches_scan(ConversionTable::limited_range(W, W + 3, c), rng,
                             4, false, ctx + " limited r>W");
    expect_mean_matches_scan(sparse_general(W, rng, 2.0), rng, 8, true,
                             ctx + " general");
  }
}

TEST(ConversionMeanFuzz, ClosedFormMatchesScanOnGeneratedInstances) {
  // The generator's own tables (fuzz::generate_instance draws full, none,
  // limited-range and sparse general tables per node), at W up to 64.
  fuzz::GenOptions opt;
  opt.min_wavelengths = 1;
  opt.max_wavelengths = 64;
  int seen[4] = {0, 0, 0, 0};
  const int instances = instance_budget();
  for (int i = 0; i < instances; ++i) {
    const fuzz::FuzzInstance inst =
        fuzz::generate_instance(0x5eedull + static_cast<std::uint64_t>(i), opt);
    support::Rng rng(static_cast<std::uint64_t>(i) + 17);
    for (NodeId v = 0; v < inst.network.num_nodes(); ++v) {
      const ConversionTable& t = inst.network.conversion(v);
      ++seen[static_cast<int>(t.shape())];
      expect_mean_matches_scan(t, rng, 6, false,
                               "seed " + std::to_string(inst.seed) + " node " +
                                   std::to_string(v));
    }
  }
  for (int s = 0; s < 4; ++s) EXPECT_GT(seen[s], 0) << "shape " << s;
}

TEST(ConversionMeanFuzz, DyadicCostIsBitEqual) {
  support::Rng rng(0xd1ad1cull);
  for (const int W : kWavelengthChoices) {
    for (const double c : {0.5, 0.25, 1.0, 3.0, 0.0}) {
      const std::string ctx =
          "W=" + std::to_string(W) + " c=" + std::to_string(c);
      expect_mean_matches_scan(ConversionTable::full(W, c), rng, 200, true,
                               ctx + " full");
      for (int r = 0; r < W; ++r) {
        expect_mean_matches_scan(ConversionTable::limited_range(W, r, c), rng,
                                 20, true,
                                 ctx + " limited r=" + std::to_string(r));
      }
    }
  }
}

TEST(ConversionMeanFuzz, FactoriesTagAndMutationsMakeGeneral) {
  const int W = 8;
  const ConversionTable full = ConversionTable::full(W, 0.5);
  EXPECT_EQ(full.shape(), Shape::kFull);
  EXPECT_EQ(full.uniform_cost(), 0.5);
  EXPECT_EQ(ConversionTable::none(W).shape(), Shape::kNone);
  EXPECT_EQ(ConversionTable(W).shape(), Shape::kNone);
  const ConversionTable limited = ConversionTable::limited_range(W, 2, 0.25);
  EXPECT_EQ(limited.shape(), Shape::kLimitedRange);
  EXPECT_EQ(limited.range(), 2);
  EXPECT_EQ(limited.uniform_cost(), 0.25);

  const ConversionTable factories[] = {full, ConversionTable::none(W), limited};
  for (const ConversionTable& f : factories) {
    ConversionTable set = f;
    set.set(3, 4, 0.75);
    EXPECT_EQ(set.shape(), Shape::kGeneral);
    EXPECT_EQ(set.uniform_cost(), 0.0);
    EXPECT_EQ(set.range(), 0);

    ConversionTable same_cost = f;
    same_cost.set(0, 1, f.allowed(0, 1) ? f.cost(0, 1) : 0.5);
    EXPECT_EQ(same_cost.shape(), Shape::kGeneral);

    ConversionTable forbidden = f;
    forbidden.forbid(1, 0);
    EXPECT_EQ(forbidden.shape(), Shape::kGeneral);

    // The general path still answers for the mutated table.
    support::Rng rng(7);
    expect_mean_matches_scan(set, rng, 50, true, "after set");
    expect_mean_matches_scan(forbidden, rng, 50, true, "after forbid");
  }
}

}  // namespace
}  // namespace wdm::net
