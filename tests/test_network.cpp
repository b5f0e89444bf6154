#include <gtest/gtest.h>

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
