// rwa::refine_along_into — the Lemma 2 refinement of one projected path —
// on hand-built chains: a simple s -> t chain is swept hop by hop, and the
// sweep must return the hops and the cost bits optimal_semilightpath_into
// returns under the chain's induced mask, ties included; a walk that
// repeats a node goes to that solver itself.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "rwa/layered_graph.hpp"
#include "support/telemetry.hpp"
#include "wdm/network.hpp"

namespace wdm::rwa {
namespace {

using net::Hop;
using net::WavelengthSet;

/// Refines `links` and checks the result against the solver under the
/// links' mask: equal found, equal hops, bit-equal cost. Returns the sweep's
/// path.
net::Semilightpath refine_and_check(const net::WdmNetwork& n, net::NodeId s,
                                    net::NodeId t,
                                    std::vector<graph::EdgeId> links) {
  SemilightpathWorkspace ws;
  net::Semilightpath got;
  const double got_cost = refine_along_into(n, s, t, links, ws, &got);
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(n.num_links()), 0);
  for (const graph::EdgeId e : links) mask[static_cast<std::size_t>(e)] = 1;
  SemilightpathWorkspace oracle_ws;
  net::Semilightpath want;
  const double want_cost =
      optimal_semilightpath_into(n, s, t, mask, oracle_ws, &want);
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.hops, want.hops);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got_cost),
            std::bit_cast<std::uint64_t>(want_cost))
      << got_cost << " vs " << want_cost;
  if (got.found) {
    EXPECT_EQ(got_cost, got.cost(n));
  }
  return got;
}

WavelengthSet only(std::initializer_list<net::Wavelength> ls) {
  WavelengthSet s;
  for (const net::Wavelength l : ls) s.insert(l);
  return s;
}

/// Chain 0 -> 1 -> ... -> hops over `W` wavelengths, every link installing
/// all of them at weight 1.0, with `table` at every node.
net::WdmNetwork chain(int hops, int W, const net::ConversionTable& table) {
  net::WdmNetwork n(hops + 1, W);
  for (net::NodeId v = 0; v <= hops; ++v) n.set_conversion(v, table);
  for (net::NodeId v = 0; v < hops; ++v) {
    n.add_link(v, v + 1, WavelengthSet::all(W), 1.0);
  }
  return n;
}

std::vector<graph::EdgeId> all_links(const net::WdmNetwork& n) {
  std::vector<graph::EdgeId> links;
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) links.push_back(e);
  return links;
}

TEST(RefineAlong, EqualCostWavelengthsTakeTheLeast) {
  for (const auto& table :
       {net::ConversionTable::full(4, 0.5), net::ConversionTable::none(4),
        net::ConversionTable::limited_range(4, 1, 0.5)}) {
    const net::WdmNetwork n = chain(3, 4, table);
    const net::Semilightpath p = refine_and_check(n, 0, 3, all_links(n));
    ASSERT_TRUE(p.found);
    EXPECT_EQ(p.hops, (std::vector<Hop>{{0, 0}, {1, 0}, {2, 0}}));
    EXPECT_EQ(p.cost(n), 3.0);
  }
}

TEST(RefineAlong, EqualOutLabelKeepsTheFirstSettledInCopy) {
  // At node 1 the in-labels are {λ0: 2, λ1: 1}. λ1 settles first and fans
  // out: (1, λ0)_out gets 1 + 1 = 2 from it, and λ0's own identity arc
  // offers 2 + 0 = 2, no improvement. The route converts λ1 -> λ0 even
  // though staying on λ0 costs the same.
  net::WdmNetwork n(3, 2);
  n.set_conversion(1, net::ConversionTable::full(2, 1.0));
  n.add_link(0, 1, WavelengthSet::all(2), std::vector<double>{2.0, 1.0});
  n.add_link(1, 2, WavelengthSet::all(2), std::vector<double>{1.0, 5.0});
  const net::Semilightpath p = refine_and_check(n, 0, 2, {0, 1});
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.hops, (std::vector<Hop>{{0, 1}, {1, 0}}));
  EXPECT_EQ(p.cost(n), 3.0);
}

TEST(RefineAlong, EqualOutLabelFromTwoWindowsKeepsTheLowerInLabel) {
  // Limited range r = 2, 1.0 per step: (1, λ0)_out is reached at 3 from λ0
  // (label 3, identity) and at 3 from λ1 (label 2, one step). λ1 has the
  // lower label, settles first and keeps the out-copy, so the route
  // converts although the higher λ ties.
  net::WdmNetwork n(3, 3);
  n.set_conversion(1, net::ConversionTable::limited_range(3, 2, 1.0));
  n.add_link(0, 1, WavelengthSet::all(3), std::vector<double>{3.0, 2.0, 9.0});
  n.add_link(1, 2, only({0}), 1.0);
  const net::Semilightpath p = refine_and_check(n, 0, 2, {0, 1});
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.hops, (std::vector<Hop>{{0, 1}, {1, 0}}));
  EXPECT_EQ(p.cost(n), 4.0);
}

TEST(RefineAlong, FailedLinkBlocks) {
  net::WdmNetwork n = chain(3, 4, net::ConversionTable::full(4, 0.5));
  n.set_link_failed(1, true);
  const net::Semilightpath p = refine_and_check(n, 0, 3, all_links(n));
  EXPECT_FALSE(p.found);
  EXPECT_TRUE(p.hops.empty());
}

TEST(RefineAlong, NoFreeWavelengthBlocks) {
  net::WdmNetwork n = chain(3, 2, net::ConversionTable::full(2, 0.5));
  n.reserve(2, 0);
  n.reserve(2, 1);
  EXPECT_FALSE(refine_and_check(n, 0, 3, all_links(n)).found);

  // No conversion: each link has a free λ, but not the same one.
  net::WdmNetwork m = chain(2, 2, net::ConversionTable::none(2));
  m.reserve(0, 1);
  m.reserve(1, 0);
  EXPECT_FALSE(refine_and_check(m, 0, 2, all_links(m)).found);
  // Full conversion at the middle node unblocks it.
  m.set_conversion(1, net::ConversionTable::full(2, 0.25));
  const net::Semilightpath p = refine_and_check(m, 0, 2, all_links(m));
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.hops, (std::vector<Hop>{{0, 0}, {1, 1}}));
}

TEST(RefineAlong, SingleWavelength) {
  for (const auto& table :
       {net::ConversionTable::full(1, 0.5), net::ConversionTable::none(1),
        net::ConversionTable::limited_range(1, 3, 0.5)}) {
    net::WdmNetwork n = chain(4, 1, table);
    const net::Semilightpath p = refine_and_check(n, 0, 4, all_links(n));
    ASSERT_TRUE(p.found);
    EXPECT_EQ(p.cost(n), 4.0);
    n.reserve(3, 0);
    EXPECT_FALSE(refine_and_check(n, 0, 4, all_links(n)).found);
  }
}

TEST(RefineAlong, LimitedRangeAtBothBandEdges) {
  const int W = 8;
  const auto limited = net::ConversionTable::limited_range(W, 2, 0.25);
  // Low edge: 0 -> 2 -> 0; high edge: 7 -> 5 -> 7; both within r = 2.
  for (const auto& [a, b] :
       {std::pair<net::Wavelength, net::Wavelength>{0, 2}, {7, 5}}) {
    net::WdmNetwork n(4, W);
    for (net::NodeId v = 0; v < 4; ++v) n.set_conversion(v, limited);
    n.add_link(0, 1, only({a}), 1.0);
    n.add_link(1, 2, only({b}), 1.0);
    n.add_link(2, 3, only({a}), 1.0);
    const net::Semilightpath p = refine_and_check(n, 0, 3, {0, 1, 2});
    ASSERT_TRUE(p.found) << a;
    EXPECT_EQ(p.hops, (std::vector<Hop>{{0, a}, {1, b}, {2, a}}));
    EXPECT_EQ(p.cost(n), 4.0);
  }
  // Three steps is out of range at either edge.
  for (const auto& [a, b] :
       {std::pair<net::Wavelength, net::Wavelength>{0, 3}, {7, 4}}) {
    net::WdmNetwork n(3, W);
    for (net::NodeId v = 0; v < 3; ++v) n.set_conversion(v, limited);
    n.add_link(0, 1, only({a}), 1.0);
    n.add_link(1, 2, only({b}), 1.0);
    EXPECT_FALSE(refine_and_check(n, 0, 2, {0, 1}).found) << a;
  }
}

TEST(RefineAlong, GeneralTableTakesTheCheapestAllowedConversion) {
  net::WdmNetwork n(3, 3);
  net::ConversionTable table(3);
  table.set(0, 2, 0.25);
  table.set(1, 2, 0.5);
  n.set_conversion(1, table);
  n.add_link(0, 1, only({0, 1}), std::vector<double>{1.25, 1.0, 9.0});
  n.add_link(1, 2, only({2}), 1.0);
  // 1.25 + 0.25 + 1 over λ0 and 1.0 + 0.5 + 1 over λ1 are both 2.5; λ1
  // (the lower in-label) settles first.
  const net::Semilightpath p = refine_and_check(n, 0, 2, {0, 1});
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.hops, (std::vector<Hop>{{0, 1}, {1, 2}}));
  EXPECT_EQ(p.cost(n), 2.5);
}

TEST(RefineAlong, RepeatedNodeTakesTheSolver) {
  // The walk s -> a -> b -> a -> t repeats a: the solver runs under the
  // walk's mask and may take the shortcut s -> a -> t.
  namespace tel = support::telemetry;
  net::WdmNetwork n(4, 2);
  for (net::NodeId v = 0; v < 4; ++v) {
    n.set_conversion(v, net::ConversionTable::full(2, 0.5));
  }
  n.add_link(0, 1, WavelengthSet::all(2), 1.0);  // s -> a
  n.add_link(1, 2, WavelengthSet::all(2), 1.0);  // a -> b
  n.add_link(2, 1, WavelengthSet::all(2), 1.0);  // b -> a
  n.add_link(1, 3, WavelengthSet::all(2), 1.0);  // a -> t
  tel::reset();
  tel::set_enabled(true);
  const net::Semilightpath p = refine_and_check(n, 0, 3, {0, 1, 2, 3});
  // A walk that does not start at s, or is not contiguous, goes there too.
  refine_and_check(n, 0, 3, {1, 2, 3});
  refine_and_check(n, 0, 3, {0, 2, 3});
  const auto counters = tel::counter_values();
  tel::set_enabled(false);
  ASSERT_TRUE(p.found);
  EXPECT_EQ(p.hops, (std::vector<Hop>{{0, 0}, {3, 0}}));
  if (tel::compiled_in()) {
    EXPECT_EQ(counters.at("rwa.refine.calls"), 3u);
    EXPECT_EQ(counters.at("rwa.refine.fallbacks"), 3u);
  }
}

TEST(RefineAlong, ReusedWorkspaceAcrossChainsOfDifferentSizes) {
  // One workspace, chains that grow and shrink in length and W: no state of
  // one sweep leaks into the next.
  SemilightpathWorkspace ws;
  net::Semilightpath got;
  for (const int hops : {6, 1, 9, 2, 4}) {
    for (const int W : {16, 1, 4}) {
      net::WdmNetwork n = chain(hops, W, net::ConversionTable::full(W, 0.5));
      if (W > 1) n.reserve(0, 0);
      const std::vector<graph::EdgeId> links = all_links(n);
      const double cost = refine_along_into(n, 0, hops, links, ws, &got);
      const net::Semilightpath want = optimal_semilightpath(
          n, 0, hops, std::vector<std::uint8_t>(links.size(), 1));
      ASSERT_EQ(got.found, want.found) << hops << " " << W;
      EXPECT_EQ(got.hops, want.hops) << hops << " " << W;
      if (got.found) {
        EXPECT_EQ(cost, want.cost(n));
      }
    }
  }
}

}  // namespace
}  // namespace wdm::rwa
