// Differential check of WdmNetwork's load bookkeeping (network_load(),
// mean_load(), theta_min() and theta_max(), read off counts kept up to date
// by every usage mutation) against the O(links) scans they replaced
// (fuzz::scan_network_load / scan_mean_load, and the (U + 1) / N scans
// here), and of its per-link residual_loads() against a recompute from
// available(e) and link_load(e). All must agree bit for bit after every
// step of a random sequence of
// reserve, release, restore_usage, fiber cut, repair and link growth, on
// copies and moved-into networks too. Capacities are drawn so that some
// networks hold only power-of-two N(e) (mean_load() reads its exact sum)
// and the others mix in 3, 5, 6, ... (mean_load() scans).
//
// Budget knob: WDM_FUZZ_ITERATIONS scales the sequence count (default 500,
// used as sequences = max(50, WDM_FUZZ_ITERATIONS / 2)).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/invariants.hpp"
#include "graph/path.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "wdm/network.hpp"

namespace wdm::fuzz {
namespace {

constexpr int kWavelengthChoices[] = {1, 3, 8, 16, 64};

/// An inventory of `count` distinct wavelengths out of W.
net::WavelengthSet draw_inventory(int W, int count, support::Rng& rng) {
  std::vector<net::Wavelength> all(static_cast<std::size_t>(W));
  for (int l = 0; l < W; ++l) all[static_cast<std::size_t>(l)] = l;
  for (std::size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.index(i)]);
  }
  net::WavelengthSet s;
  for (int k = 0; k < count; ++k) s.insert(all[static_cast<std::size_t>(k)]);
  return s;
}

/// N(e) for one new link: a power of two <= W, or (mixed) anything in [1, W].
int draw_capacity(int W, bool dyadic_only, support::Rng& rng) {
  if (!dyadic_only) return static_cast<int>(rng.uniform_int(1, W));
  const int top = std::bit_width(static_cast<unsigned>(W)) - 1;
  return 1 << rng.uniform_int(0, top);
}

void add_random_link(net::WdmNetwork& net, bool dyadic_only,
                     support::Rng& rng) {
  const auto n = static_cast<std::size_t>(net.num_nodes());
  const auto u = static_cast<net::NodeId>(rng.index(n));
  auto v = static_cast<net::NodeId>(rng.index(n));
  if (u == v) v = (v + 1) % net.num_nodes();
  const int N = draw_capacity(net.W(), dyadic_only, rng);
  net.add_link(u, v, draw_inventory(net.W(), N, rng), 1.0);
}

int sequence_budget() {
  const auto iters = support::env_int("WDM_FUZZ_ITERATIONS", 500);
  return std::max<int>(50, static_cast<int>(iters / 2));
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult matches_scans(const net::WdmNetwork& net) {
  const double rho = scan_network_load(net);
  const double mean = scan_mean_load(net);
  // ϑ_min / ϑ_max of §4.1 as the per-link scan computes them.
  double theta_min = graph::kInf;
  double theta_max = 0.0;
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    const double next = static_cast<double>(net.usage(e) + 1) /
                        static_cast<double>(net.capacity(e));
    theta_min = std::min(theta_min, next);
    theta_max = std::max(theta_max, next);
  }
  if (same_bits(net.network_load(), rho) && same_bits(net.mean_load(), mean) &&
      same_bits(net.theta_min(), theta_min) &&
      same_bits(net.theta_max(), theta_max)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "network_load " << net.network_load() << " vs scan " << rho
         << ", mean_load " << net.mean_load() << " vs scan " << mean
         << ", theta_min " << net.theta_min() << " vs scan " << theta_min
         << ", theta_max " << net.theta_max() << " vs scan " << theta_max;
}

/// net.residual_loads() against a recompute from the network's own
/// accessors: ρ(e) for a link with a free wavelength, else +inf.
::testing::AssertionResult residual_loads_match(const net::WdmNetwork& net) {
  const std::span<const double> got = net.residual_loads();
  if (got.size() != static_cast<std::size_t>(net.num_links())) {
    return ::testing::AssertionFailure() << "residual_loads holds "
                                         << got.size() << " links of "
                                         << net.num_links();
  }
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    const double want =
        net.available(e).empty() ? graph::kInf : net.link_load(e);
    if (!same_bits(got[static_cast<std::size_t>(e)], want)) {
      return ::testing::AssertionFailure()
             << "link " << e << " residual load "
             << got[static_cast<std::size_t>(e)] << " vs " << want;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(LoadBookkeepingDifferential, RandomMutationSequencesMatchScans) {
  const int sequences = sequence_budget();
  int dyadic_networks = 0;
  for (int i = 0; i < sequences; ++i) {
    support::Rng rng(0x10adull * 1000003ull + static_cast<std::uint64_t>(i));
    const int W = kWavelengthChoices[rng.index(std::size(kWavelengthChoices))];
    const bool dyadic_only = rng.bernoulli(0.5);
    dyadic_networks += dyadic_only;
    const auto n = static_cast<net::NodeId>(rng.uniform_int(2, 8));
    net::WdmNetwork net(n, W);
    ASSERT_TRUE(matches_scans(net)) << "empty network " << i;
    ASSERT_TRUE(residual_loads_match(net)) << "empty network " << i;
    const auto links = rng.uniform_int(1, 24);
    for (std::int64_t k = 0; k < links; ++k) {
      add_random_link(net, dyadic_only, rng);
    }
    std::vector<std::vector<std::uint64_t>> snapshots{net.usage_snapshot()};
    const int steps = static_cast<int>(rng.uniform_int(20, 200));
    for (int step = 0; step < steps; ++step) {
      const auto e = static_cast<graph::EdgeId>(
          rng.index(static_cast<std::size_t>(net.num_links())));
      std::string what;
      switch (rng.uniform_int(0, 9)) {
        case 0:
        case 1:
        case 2: {  // reserve a free wavelength (a failed link has none)
          const net::WavelengthSet free = net.available(e);
          if (free.empty()) continue;
          what = "reserve";
          const std::vector<net::Wavelength> pick = free.to_vector();
          net.reserve(e, pick[rng.index(pick.size())]);
          break;
        }
        case 3:
        case 4: {  // release a used one
          std::vector<net::Wavelength> used;
          net.installed(e).for_each([&](net::Wavelength l) {
            if (net.is_used(e, l)) used.push_back(l);
          });
          if (used.empty()) continue;
          what = "release";
          net.release(e, used[rng.index(used.size())]);
          break;
        }
        case 5:
          what = "snapshot + restore_usage";
          if (rng.bernoulli(0.5)) snapshots.push_back(net.usage_snapshot());
          net.restore_usage(snapshots[rng.index(snapshots.size())]);
          break;
        case 6:
          what = net.link_failed(e) ? "repair" : "fail";
          net.set_link_failed(e, !net.link_failed(e));
          break;
        case 7: {  // copy, then continue on the copy or a moved-into one
          what = "copy / move";
          net::WdmNetwork copy = net;
          ASSERT_TRUE(matches_scans(copy)) << "copy, sequence " << i;
          ASSERT_TRUE(residual_loads_match(copy)) << "copy, sequence " << i;
          net = rng.bernoulli(0.5) ? std::move(copy) : net::WdmNetwork(copy);
          break;
        }
        case 8:
          // Growth: older snapshots no longer fit, so start afresh.
          what = "add_link";
          add_random_link(net, dyadic_only, rng);
          snapshots.assign(1, net.usage_snapshot());
          break;
        default: {  // fill a link to capacity, making it the max
          what = "fill";
          net.available(e).for_each(
              [&](net::Wavelength l) { net.reserve(e, l); });
          break;
        }
      }
      ASSERT_TRUE(matches_scans(net))
          << "sequence " << i << " step " << step << " after " << what
          << " on link " << e << " (W=" << W
          << (dyadic_only ? ", dyadic" : ", mixed") << ")";
      ASSERT_TRUE(residual_loads_match(net))
          << "sequence " << i << " step " << step << " after " << what
          << " on link " << e;
    }
  }
  // Both mean_load() paths are exercised.
  EXPECT_GT(dyadic_networks, 0);
  EXPECT_LT(dyadic_networks, sequences);
}

}  // namespace
}  // namespace wdm::fuzz
