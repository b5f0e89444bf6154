#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "wdm/network.hpp"

namespace wdm::net {
namespace {

WdmNetwork make_triangle(int W = 4) {
  WdmNetwork net(3, W);
  net.add_link(0, 1, WavelengthSet::all(W), 1.0);
  net.add_link(1, 2, WavelengthSet::all(W), 1.0);
  net.add_link(0, 2, WavelengthSet::all(W), 1.0);
  return net;
}

TEST(WdmNetwork, BasicShape) {
  const WdmNetwork net = make_triangle();
  EXPECT_EQ(net.num_nodes(), 3);
  EXPECT_EQ(net.num_links(), 3);
  EXPECT_EQ(net.W(), 4);
  EXPECT_EQ(net.capacity(0), 4);
  EXPECT_EQ(net.usage(0), 0);
}

TEST(WdmNetwork, AddDuplexAddsBothDirections) {
  WdmNetwork net(2, 2);
  const auto [fwd, bwd] = net.add_duplex(0, 1, WavelengthSet::all(2), 3.0);
  EXPECT_EQ(net.graph().tail(fwd), 0);
  EXPECT_EQ(net.graph().tail(bwd), 1);
  EXPECT_DOUBLE_EQ(net.weight(fwd, 0), 3.0);
  EXPECT_DOUBLE_EQ(net.weight(bwd, 1), 3.0);
}

TEST(WdmNetwork, PartialInstallation) {
  WdmNetwork net(2, 4);
  WavelengthSet some;
  some.insert(1);
  some.insert(3);
  const graph::EdgeId e = net.add_link(0, 1, some, 1.0);
  EXPECT_EQ(net.capacity(e), 2);
  EXPECT_TRUE(net.available(e).contains(1));
  EXPECT_FALSE(net.available(e).contains(0));
  EXPECT_THROW(net.weight(e, 0), std::logic_error);  // λ ∉ Λ(e)
}

TEST(WdmNetwork, EmptyInstallationRejected) {
  WdmNetwork net(2, 4);
  EXPECT_THROW(net.add_link(0, 1, WavelengthSet{}, 1.0), std::logic_error);
}

TEST(WdmNetwork, OutOfUniverseInstallationRejected) {
  WdmNetwork net(2, 2);
  WavelengthSet bad;
  bad.insert(3);
  EXPECT_THROW(net.add_link(0, 1, bad, 1.0), std::logic_error);
}

TEST(WdmNetwork, ReserveReleaseLifecycle) {
  WdmNetwork net = make_triangle(2);
  net.reserve(0, 1);
  EXPECT_TRUE(net.is_used(0, 1));
  EXPECT_FALSE(net.available(0).contains(1));
  EXPECT_EQ(net.usage(0), 1);
  EXPECT_EQ(net.total_usage(), 1);
  net.release(0, 1);
  EXPECT_EQ(net.usage(0), 0);
  EXPECT_EQ(net.total_usage(), 0);
}

TEST(WdmNetwork, DoubleReserveThrows) {
  WdmNetwork net = make_triangle(2);
  net.reserve(0, 0);
  EXPECT_THROW(net.reserve(0, 0), std::logic_error);
}

TEST(WdmNetwork, ReleaseUnreservedThrows) {
  WdmNetwork net = make_triangle(2);
  EXPECT_THROW(net.release(0, 0), std::logic_error);
}

TEST(WdmNetwork, LinkLoadIsEq2) {
  WdmNetwork net = make_triangle(4);
  net.reserve(0, 0);
  net.reserve(0, 1);
  EXPECT_DOUBLE_EQ(net.link_load(0), 0.5);  // U/N = 2/4
  EXPECT_DOUBLE_EQ(net.link_load(1), 0.0);
  EXPECT_DOUBLE_EQ(net.network_load(), 0.5);  // max over links
  EXPECT_NEAR(net.mean_load(), 0.5 / 3.0, 1e-12);
}

TEST(WdmNetwork, ThetaMinMax) {
  WdmNetwork net = make_triangle(4);
  net.reserve(0, 0);
  net.reserve(0, 1);
  // (U+1)/N per link: 3/4, 1/4, 1/4.
  EXPECT_DOUBLE_EQ(net.theta_min(), 0.25);
  EXPECT_DOUBLE_EQ(net.theta_max(), 0.75);
}

TEST(WdmNetwork, FailureEmptiesAvailability) {
  WdmNetwork net = make_triangle(2);
  net.reserve(0, 0);
  net.set_link_failed(0, true);
  EXPECT_TRUE(net.available(0).empty());
  EXPECT_TRUE(net.link_failed(0));
  EXPECT_EQ(net.num_failed_links(), 1);
  // Usage persists through failure; release still works.
  EXPECT_EQ(net.usage(0), 1);
  net.release(0, 0);
  net.set_link_failed(0, false);
  EXPECT_EQ(net.available(0).count(), 2);
}

TEST(WdmNetwork, ReserveOnFailedLinkThrows) {
  WdmNetwork net = make_triangle(2);
  net.set_link_failed(0, true);
  EXPECT_THROW(net.reserve(0, 0), std::logic_error);
}

TEST(WdmNetwork, SnapshotRestoreRoundTrip) {
  WdmNetwork net = make_triangle(4);
  net.reserve(0, 2);
  net.reserve(2, 0);
  const auto snap = net.usage_snapshot();
  net.release(0, 2);
  net.reserve(1, 1);
  net.restore_usage(snap);
  EXPECT_TRUE(net.is_used(0, 2));
  EXPECT_TRUE(net.is_used(2, 0));
  EXPECT_FALSE(net.is_used(1, 1));
  EXPECT_EQ(net.total_usage(), 2);
}

TEST(WdmNetwork, PerWavelengthWeights) {
  WdmNetwork net(2, 3);
  const std::vector<double> costs{1.0, 2.0, 4.0};
  const graph::EdgeId e = net.add_link(0, 1, WavelengthSet::all(3), costs);
  EXPECT_DOUBLE_EQ(net.weight(e, 0), 1.0);
  EXPECT_DOUBLE_EQ(net.weight(e, 2), 4.0);
  EXPECT_DOUBLE_EQ(net.min_weight(e), 1.0);
  EXPECT_DOUBLE_EQ(net.mean_available_weight(e), 7.0 / 3.0);
  net.reserve(e, 0);
  EXPECT_DOUBLE_EQ(net.mean_available_weight(e), 3.0);  // mean over {2,4}
}

// A batch appends exactly what the same add_link calls would: ids,
// adjacency blocks, inventories and per-wavelength costs, also on top of
// links already present (parallel links and a self-loop included).
TEST(WdmNetwork, AddLinksEqualsAddLinkOneByOne) {
  const int W = 3;
  WavelengthSet odd;
  odd.insert(1);
  const std::vector<NodeId> tails{0, 2, 1, 3, 0, 2};
  const std::vector<NodeId> heads{1, 3, 1, 0, 1, 0};
  const std::vector<WavelengthSet> inventory{
      WavelengthSet::all(W), odd, WavelengthSet::all(W),
      odd, WavelengthSet::all(W), WavelengthSet::all(W)};
  std::vector<double> costs;
  for (std::size_t i = 0; i < tails.size(); ++i) {
    for (int l = 0; l < W; ++l) {
      costs.push_back(1.0 + static_cast<double>(i) + 0.25 * l);
    }
  }
  WdmNetwork one(4, W);
  WdmNetwork batch(4, W);
  one.add_link(3, 2, WavelengthSet::all(W), 9.0);
  batch.add_link(3, 2, WavelengthSet::all(W), 9.0);
  for (std::size_t i = 0; i < tails.size(); ++i) {
    one.add_link(tails[i], heads[i], inventory[i],
                 std::span<const double>(costs).subspan(i * W, W));
  }
  batch.add_links(tails, heads, inventory, costs);

  ASSERT_EQ(batch.num_links(), one.num_links());
  for (EdgeId e = 0; e < one.num_links(); ++e) {
    EXPECT_EQ(batch.graph().tail(e), one.graph().tail(e));
    EXPECT_EQ(batch.graph().head(e), one.graph().head(e));
    EXPECT_EQ(batch.installed(e).bits(), one.installed(e).bits());
    EXPECT_EQ(batch.usage(e), 0);
    EXPECT_EQ(batch.link_revision(e), one.link_revision(e));
    one.installed(e).for_each([&](Wavelength l) {
      EXPECT_EQ(batch.weight(e, l), one.weight(e, l));
    });
  }
  for (NodeId v = 0; v < one.num_nodes(); ++v) {
    const auto out_one = one.graph().out_edges(v);
    const auto out_batch = batch.graph().out_edges(v);
    EXPECT_TRUE(std::equal(out_one.begin(), out_one.end(), out_batch.begin(),
                           out_batch.end()));
    const auto in_one = one.graph().in_edges(v);
    const auto in_batch = batch.graph().in_edges(v);
    EXPECT_TRUE(std::equal(in_one.begin(), in_one.end(), in_batch.begin(),
                           in_batch.end()));
  }
}

// Bad input in any fiber rejects the whole batch and leaves the network as
// it was.
TEST(WdmNetwork, AddLinksRejectsBadBatchWhole) {
  WdmNetwork net(3, 2);
  net.add_link(0, 1, WavelengthSet::all(2), 1.0);
  const std::vector<double> costs(4, 1.0);
  const std::vector<WavelengthSet> two{WavelengthSet::all(2),
                                       WavelengthSet::all(2)};
  const std::vector<NodeId> tails{1, 2};
  const std::vector<WavelengthSet> empty_second{WavelengthSet::all(2),
                                                WavelengthSet{}};
  EXPECT_THROW(net.add_links(tails, std::vector<NodeId>{2, 7}, two, costs),
               std::logic_error);  // endpoint outside the network
  EXPECT_THROW(net.add_links(tails, std::vector<NodeId>{2, 0}, empty_second,
                             costs),
               std::logic_error);  // empty inventory
  EXPECT_THROW(net.add_links(tails, std::vector<NodeId>{2}, two, costs),
               std::logic_error);  // lengths differ
  EXPECT_THROW(net.add_links(tails, std::vector<NodeId>{2, 0}, two,
                             std::vector<double>(3, 1.0)),
               std::logic_error);  // costs not 2 x W
  EXPECT_EQ(net.num_links(), 1);
  EXPECT_EQ(net.graph().out_edges(1).size(), 0u);
  net.add_links(tails, std::vector<NodeId>{2, 0}, two, costs);
  EXPECT_EQ(net.num_links(), 3);
  EXPECT_EQ(net.graph().find_edge(2, 0), 2);
}

TEST(WdmNetwork, ConversionTablePerNode) {
  WdmNetwork net(2, 2);
  net.set_conversion(0, ConversionTable::full(2, 0.7));
  EXPECT_TRUE(net.conversion(0).allowed(0, 1));
  EXPECT_FALSE(net.conversion(1).allowed(0, 1));  // default: none
  EXPECT_THROW(net.set_conversion(0, ConversionTable::full(3, 0.1)),
               std::logic_error);  // wrong W
}

}  // namespace
}  // namespace wdm::net
