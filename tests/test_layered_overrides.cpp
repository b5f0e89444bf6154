// Tests for the per-link wavelength view (LinkView) that shared-backup
// provisioning passes to the Liang–Shen solver.
#include <gtest/gtest.h>

#include <vector>

#include "rwa/layered_graph.hpp"
#include "topology/network_builder.hpp"

namespace wdm::rwa {
namespace {

net::WdmNetwork chain(int W = 2) {
  net::WdmNetwork n(3, W);
  n.set_conversion(1, net::ConversionTable::full(W, 0.1));
  n.add_link(0, 1, net::WavelengthSet::all(W), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(W), 1.0);
  return n;
}

/// Liang–Shen over `view` with a fresh workspace.
net::Semilightpath solve(const net::WdmNetwork& n, NodeId s, NodeId t,
                         const LinkView& view,
                         std::span<const std::uint8_t> mask = {}) {
  SemilightpathWorkspace ws;
  net::Semilightpath p;
  optimal_semilightpath_into(n, s, t, mask, ws, &p, view);
  return p;
}

TEST(LayeredOverrides, DefaultMatchesPlainBuild) {
  const net::WdmNetwork n = chain();
  const net::Semilightpath a = optimal_semilightpath(n, 0, 2);
  const net::Semilightpath b = solve(n, 0, 2, LinkView{});
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_DOUBLE_EQ(a.cost(n), b.cost(n));
}

TEST(LayeredOverrides, AvailabilityOverrideOpensReservedChannels) {
  net::WdmNetwork n = chain(2);
  n.reserve(0, 0);
  n.reserve(0, 1);  // link 0 fully used: normally blocked
  EXPECT_FALSE(optimal_semilightpath(n, 0, 2).found);

  const std::vector<net::WavelengthSet> usable{n.installed(0),
                                               n.installed(1)};
  LinkView view;
  view.usable = usable;
  const net::Semilightpath p = solve(n, 0, 2, view);
  ASSERT_TRUE(p.found);  // the view sees through the reservations
  EXPECT_TRUE(p.well_formed(n));
  EXPECT_FALSE(p.fits_residual(n));  // but it is not realizable as-is
}

TEST(LayeredOverrides, AvailabilityOverrideCanRestrict) {
  const net::WdmNetwork n = chain(2);
  std::vector<net::WavelengthSet> usable{n.available(0), n.available(1)};
  for (net::WavelengthSet& set : usable) set.erase(0);
  LinkView view;
  view.usable = usable;
  const net::Semilightpath p = solve(n, 0, 2, view);
  ASSERT_TRUE(p.found);
  for (const net::Hop& h : p.hops) EXPECT_EQ(h.lambda, 1);
}

TEST(LayeredOverrides, WeightOverrideSteersChoice) {
  const net::WdmNetwork n = chain(2);
  // Price λ1 at 1% of its weight on both links: it becomes irresistible.
  const std::vector<net::WavelengthSet> shared(
      2, net::WavelengthSet::single(1));
  LinkView view;
  view.shared = shared;
  view.shared_price_factor = 0.01;
  SemilightpathWorkspace ws;
  net::Semilightpath p;
  const double priced = optimal_semilightpath_into(n, 0, 2, {}, ws, &p, view);
  ASSERT_TRUE(p.found);
  for (const net::Hop& h : p.hops) EXPECT_EQ(h.lambda, 1);
  EXPECT_DOUBLE_EQ(priced, 0.02);  // the search ran at the view's prices
  // Eq. (1) cost is still evaluated with the *real* weights.
  EXPECT_DOUBLE_EQ(p.cost(n), 2.0);
}

TEST(LayeredOverrides, ComposesWithLinkMask) {
  net::WdmNetwork n(3, 1);
  n.add_link(0, 2, net::WavelengthSet::all(1), 1.0);  // direct
  n.add_link(0, 1, net::WavelengthSet::all(1), 1.0);
  n.add_link(1, 2, net::WavelengthSet::all(1), 1.0);
  std::vector<std::uint8_t> mask{0, 1, 1};  // forbid the direct link
  const net::Semilightpath p = solve(n, 0, 2, LinkView{}, mask);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.length(), 2u);
}

}  // namespace
}  // namespace wdm::rwa
