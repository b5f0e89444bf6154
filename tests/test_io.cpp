#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "support/rng.hpp"
#include "test_util.hpp"
#include "topology/network_builder.hpp"
#include "wdm/io.hpp"

namespace wdm::io {
namespace {

void expect_equal_networks(const net::WdmNetwork& a, const net::WdmNetwork& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_links(), b.num_links());
  ASSERT_EQ(a.W(), b.W());
  for (graph::EdgeId e = 0; e < a.num_links(); ++e) {
    EXPECT_EQ(a.graph().tail(e), b.graph().tail(e));
    EXPECT_EQ(a.graph().head(e), b.graph().head(e));
    EXPECT_EQ(a.installed(e).bits(), b.installed(e).bits());
    EXPECT_EQ(a.link_failed(e), b.link_failed(e));
    a.installed(e).for_each([&](net::Wavelength l) {
      EXPECT_DOUBLE_EQ(a.weight(e, l), b.weight(e, l));
      EXPECT_EQ(a.is_used(e, l), b.is_used(e, l));
    });
  }
  for (net::NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.conversion(v).shape(), b.conversion(v).shape()) << "node " << v;
    EXPECT_EQ(a.conversion(v).uniform_cost(), b.conversion(v).uniform_cost());
    EXPECT_EQ(a.conversion(v).range(), b.conversion(v).range());
    for (net::Wavelength x = 0; x < a.W(); ++x) {
      for (net::Wavelength y = 0; y < a.W(); ++y) {
        ASSERT_EQ(a.conversion(v).allowed(x, y), b.conversion(v).allowed(x, y));
        if (a.conversion(v).allowed(x, y)) {
          EXPECT_DOUBLE_EQ(a.conversion(v).cost(x, y),
                           b.conversion(v).cost(x, y));
        }
      }
    }
  }
}

TEST(Io, RoundTripSimpleNetwork) {
  const net::WdmNetwork original = topo::nsfnet_network(8, 0.5);
  const net::WdmNetwork loaded = read_network(write_network(original));
  expect_equal_networks(original, loaded);
}

TEST(Io, RoundTripWithUsageAndFailures) {
  net::WdmNetwork n = topo::nsfnet_network(4, 0.5);
  support::Rng rng(3);
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
    n.available(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(0.3)) n.reserve(e, l);
    });
  }
  n.set_link_failed(5, true);
  n.set_link_failed(17, true);
  const net::WdmNetwork loaded = read_network(write_network(n));
  expect_equal_networks(n, loaded);
  EXPECT_EQ(loaded.num_failed_links(), 2);
  EXPECT_EQ(loaded.total_usage(), n.total_usage());
}

TEST(Io, RoundTripPerWavelengthCostsAndPartialInstall) {
  topo::NetworkOptions opt;
  opt.cost_model = topo::CostModel::kRandomPerWavelength;
  opt.install_probability = 0.6;
  opt.conversion_model = topo::ConversionModel::kLimitedRange;
  opt.conversion_range = 2;
  opt.conversion_cost = 0.3;
  net::WdmNetwork n = test::random_network(6, 5, 5, 77, opt);
  expect_equal_networks(n, read_network(write_network(n)));
}

TEST(Io, RoundTripGeneralConversionTable) {
  net::WdmNetwork n(2, 3);
  net::ConversionTable t(3);
  t.set(0, 2, 1.25);
  t.set(2, 1, 0.5);
  n.set_conversion(0, t);
  n.add_link(0, 1, net::WavelengthSet::all(3), 1.0);
  expect_equal_networks(n, read_network(write_network(n)));
}

TEST(Io, RoundTripKeepsConversionShape) {
  using Shape = net::ConversionTable::Shape;
  const int W = 8;
  net::WdmNetwork n(6, W);
  n.set_conversion(0, net::ConversionTable::full(W, 0.3));
  n.set_conversion(1, net::ConversionTable::none(W));
  n.set_conversion(2, net::ConversionTable::limited_range(W, 3, 0.7));
  n.set_conversion(3, net::ConversionTable::limited_range(W, 0, 0.25));
  net::ConversionTable general = net::ConversionTable::full(W, 0.5);
  general.forbid(1, 2);
  n.set_conversion(4, general);
  // Full content, general tag: written pair by pair, so it stays general
  // (and keeps the scan's floating-point results) when read back.
  net::ConversionTable full_general = net::ConversionTable::full(W, 0.3);
  full_general.set(0, 1, 0.3);
  n.set_conversion(5, full_general);
  for (net::NodeId v = 0; v + 1 < n.num_nodes(); ++v) {
    n.add_link(v, v + 1, net::WavelengthSet::all(W), 1.0);
  }

  const std::string text = write_network(n);
  // A limited-range table is one factory line, not W·2r conv lines.
  EXPECT_NE(text.find("conversion 2 limited 3 0.69999999999999996\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("conv 2 "), std::string::npos) << text;

  const net::WdmNetwork loaded = read_network(text);
  expect_equal_networks(n, loaded);
  EXPECT_EQ(loaded.conversion(0).shape(), Shape::kFull);
  EXPECT_EQ(loaded.conversion(1).shape(), Shape::kNone);
  EXPECT_EQ(loaded.conversion(2).shape(), Shape::kLimitedRange);
  EXPECT_EQ(loaded.conversion(3).shape(), Shape::kLimitedRange);
  EXPECT_EQ(loaded.conversion(4).shape(), Shape::kGeneral);
  EXPECT_EQ(loaded.conversion(5).shape(), Shape::kGeneral);
}

TEST(Io, ParsesHandWrittenInput) {
  const net::WdmNetwork n = read_network(
      "# tiny test network\n"
      "network 3 2\n"
      "conversion 1 full 0.5\n"
      "link 0 1 cost 1.5\n"
      "link 1 2 cost 2.5 lambdas 1\n"
      "reserve 0 0\n");
  EXPECT_EQ(n.num_nodes(), 3);
  EXPECT_EQ(n.num_links(), 2);
  EXPECT_DOUBLE_EQ(n.weight(0, 0), 1.5);
  EXPECT_EQ(n.capacity(1), 1);
  EXPECT_TRUE(n.is_used(0, 0));
  EXPECT_TRUE(n.conversion(1).allowed(0, 1));
  EXPECT_FALSE(n.conversion(0).allowed(0, 1));
}

TEST(Io, RoundTripSrlgBlocks) {
  net::WdmNetwork original(4, 3);
  original.add_link(0, 1, net::WavelengthSet::all(3), 1.0);
  original.add_link(1, 2, net::WavelengthSet::all(3), 2.0);
  original.add_link(2, 3, net::WavelengthSet::all(3), 3.0);
  original.add_link(0, 3, net::WavelengthSet::all(3), 4.0);
  original.add_srlg({0, 2}, 0.25);
  original.add_srlg({1, 2, 3}, 0.125);

  const std::string text = write_network(original);
  const net::WdmNetwork loaded = read_network(text);
  expect_equal_networks(original, loaded);
  ASSERT_EQ(loaded.num_srlgs(), 2);
  EXPECT_EQ(loaded.srlg(0).links, (std::vector<graph::EdgeId>{0, 2}));
  EXPECT_EQ(loaded.srlg(1).links, (std::vector<graph::EdgeId>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(loaded.srlg(0).failure_probability, 0.25);
  EXPECT_DOUBLE_EQ(loaded.srlg(1).failure_probability, 0.125);
  // Exact text round-trip: save -> load -> save is byte-identical.
  EXPECT_EQ(text, write_network(loaded));
}

TEST(Io, SrlgRejectsMalformedBlocks) {
  const std::string base = "network 3 2\nlink 0 1 cost 1\nlink 1 2 cost 1\n";
  // Duplicate group id.
  EXPECT_THROW(read_network(base + "srlg 0 0.5 0\nsrlg 0 0.5 1\n"), ParseError);
  // Ids must be dense and in order.
  EXPECT_THROW(read_network(base + "srlg 1 0.5 0\n"), ParseError);
  // Out-of-range link reference.
  EXPECT_THROW(read_network(base + "srlg 0 0.5 0,7\n"), ParseError);
  EXPECT_THROW(read_network(base + "srlg 0 0.5 -1\n"), ParseError);
  // Probability outside [0, 1] or non-finite.
  EXPECT_THROW(read_network(base + "srlg 0 1.5 0\n"), ParseError);
  EXPECT_THROW(read_network(base + "srlg 0 -0.1 0\n"), ParseError);
  EXPECT_THROW(read_network(base + "srlg 0 nan 0\n"), ParseError);
  EXPECT_THROW(read_network(base + "srlg 0 inf 0\n"), ParseError);
  // Empty member list / arity errors / srlg before any network header.
  EXPECT_THROW(read_network(base + "srlg 0 0.5\n"), ParseError);
  EXPECT_THROW(read_network(base + "srlg 0 0.5 ,,,\n"), ParseError);
  EXPECT_THROW(read_network("srlg 0 0.5 0\n"), ParseError);
}

TEST(Io, SrlgErrorsCarryLineNumbers) {
  try {
    read_network("network 3 2\nlink 0 1 cost 1\nsrlg 0 2.0 0\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(Io, ErrorsCarryLineNumbers) {
  try {
    read_network("network 2 2\nlink 0 5 cost 1\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Io, RejectsMalformedInput) {
  EXPECT_THROW(read_network(""), ParseError);                    // no header
  EXPECT_THROW(read_network("link 0 1 cost 1\n"), ParseError);   // header late
  EXPECT_THROW(read_network("network 2 2\nnetwork 2 2\n"), ParseError);
  EXPECT_THROW(read_network("network 2 2\nbogus 1 2\n"), ParseError);
  EXPECT_THROW(read_network("network 2 2\nlink 0 1 cost abc\n"), ParseError);
  EXPECT_THROW(read_network("network 2 2\nlink 0 1 cost 1 lambdas 9\n"),
               ParseError);
  EXPECT_THROW(
      read_network("network 2 2\nlink 0 1 cost 1\nreserve 0 0\nreserve 0 0\n"),
      ParseError);  // double reserve surfaces as a parse error with a line
  EXPECT_THROW(read_network("network 2 2\nreserve 3 0\n"), ParseError);
  EXPECT_THROW(read_network("network 2 2\nlink 0 1 costs 1,2,3\n"),
               ParseError);  // wrong costs arity
}

TEST(Io, RejectsNonFiniteNumbers) {
  EXPECT_THROW(read_network("network 2 2\nlink 0 1 cost nan\n"), ParseError);
  EXPECT_THROW(read_network("network 2 2\nlink 0 1 cost inf\n"), ParseError);
  EXPECT_THROW(read_network("network 2 2\nlink 0 1 cost -inf\n"), ParseError);
  EXPECT_THROW(read_network("network 2 2\nconversion 0 full nan\n"),
               ParseError);
}

TEST(Io, FileErrorsCarryFileNameAndLine) {
  const std::string path = testing::TempDir() + "io_bad_input.wdm";
  {
    std::ofstream out(path);
    out << "network 2 2\nlink 0 1 cost oops\n";
  }
  try {
    read_network_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), path);
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find(path + ":line 2:"),
              std::string::npos);
    // message() is the bare diagnostic, not doubly prefixed.
    EXPECT_EQ(std::string(e.message()).find("line 2"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Io, MissingFileIsAParseErrorNotACrash) {
  try {
    read_network_file("/nonexistent/robustwdm.wdm");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), "/nonexistent/robustwdm.wdm");
    EXPECT_EQ(e.line(), 0);
  }
}

TEST(Io, CommentsAndBlankLinesIgnored) {
  const net::WdmNetwork n = read_network(
      "\n# leading comment\nnetwork 2 1\n\nlink 0 1 cost 1 # trailing\n\n");
  EXPECT_EQ(n.num_links(), 1);
}

TEST(Io, FailedLinkSurvivesEvenWithReservations) {
  net::WdmNetwork n(2, 2);
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  n.reserve(0, 1);
  n.set_link_failed(0, true);
  const net::WdmNetwork loaded = read_network(write_network(n));
  EXPECT_TRUE(loaded.link_failed(0));
  EXPECT_TRUE(loaded.is_used(0, 1));
}

}  // namespace
}  // namespace wdm::io
