#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rwa/approx_router.hpp"
#include "rwa/aux_graph.hpp"
#include "sim/simulator.hpp"
#include "support/telemetry.hpp"
#include "topology/network_builder.hpp"

namespace wdm::support::telemetry {
namespace {

/// Every test starts from a clean slate and leaves telemetry disabled.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

TEST_F(TelemetryTest, CounterAddsAndMacroCaches) {
  Counter& c = counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same instance.
  EXPECT_EQ(&counter("test.counter"), &c);
  WDM_TEL_COUNT("test.counter");
  WDM_TEL_COUNT_N("test.counter", 7);
  // With telemetry compiled out the macros are no-ops by design.
  EXPECT_EQ(c.value(), compiled_in() ? 50u : 42u);
}

TEST_F(TelemetryTest, MacrosAreInertWhenDisabled) {
  set_enabled(false);
  WDM_TEL_COUNT("test.disabled");
  WDM_TEL_COUNT_N("test.disabled", 100);
  if (compiled_in()) {
    // The counter may not even be registered; if it is, it must be zero.
    const auto values = counter_values();
    const auto it = values.find("test.disabled");
    if (it != values.end()) {
      EXPECT_EQ(it->second, 0u);
    }
  }
}

TEST_F(TelemetryTest, HistogramBucketBoundaries) {
  LatencyHistogram h;
  h.record_ns(0);  // bucket 0: {0}
  h.record_ns(1);  // bucket 1: [1, 2)
  h.record_ns(2);  // bucket 2: [2, 4)
  h.record_ns(3);  // bucket 2
  h.record_ns(4);  // bucket 3: [4, 8)
  h.record_ns(1023);  // bucket 10: [512, 1024)
  h.record_ns(1024);  // bucket 11: [1024, 2048)
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.bucket_count(10), 1u);
  EXPECT_EQ(h.bucket_count(11), 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum_ns(), 0u + 1 + 2 + 3 + 4 + 1023 + 1024);
  EXPECT_EQ(h.min_ns(), 0u);
  EXPECT_EQ(h.max_ns(), 1024u);
  // Bucket bounds are contiguous: hi(b) == lo(b + 1).
  for (int b = 0; b + 1 < LatencyHistogram::kBuckets - 1; ++b) {
    EXPECT_EQ(LatencyHistogram::bucket_hi(b), LatencyHistogram::bucket_lo(b + 1))
        << "bucket " << b;
  }
  // The last bucket absorbs everything, including saturating values.
  h.record_ns(~std::uint64_t{0});
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
}

TEST_F(TelemetryTest, HistogramEmptyIsWellDefined) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_ns(), 0u);
  EXPECT_EQ(h.min_ns(), 0u);
  EXPECT_EQ(h.max_ns(), 0u);
}

TEST_F(TelemetryTest, HistogramIsThreadSafe) {
  LatencyHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i) {
    ts.emplace_back([&h] {
      for (int k = 0; k < kPerThread; ++k) {
        h.record_ns(static_cast<std::uint64_t>(k));
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h.min_ns(), 0u);
  EXPECT_EQ(h.max_ns(), static_cast<std::uint64_t>(kPerThread - 1));
}

TEST_F(TelemetryTest, ResetZeroesEverythingButKeepsHandles) {
  Counter& c = counter("test.reset");
  LatencyHistogram& h = histogram("test.reset_hist");
  c.add(5);
  h.record_ns(10);
  reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min_ns(), 0u);
  // The handle survives the reset.
  c.add(1);
  EXPECT_EQ(&counter("test.reset"), &c);
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(TelemetryTest, JsonOutputContainsRegisteredData) {
  counter("test.json_counter").add(3);
  histogram("test.json_hist").record_ns(1000);
  series("test.json_series").add(1.0, 0.5);
  std::ostringstream out;
  write_json(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"schema\": \"robustwdm-telemetry-v4\""),
            std::string::npos);
  // v4 carries no span or event sections.
  EXPECT_EQ(s.find("\"spans\""), std::string::npos);
  EXPECT_EQ(s.find("\"events\""), std::string::npos);
  EXPECT_NE(s.find("\"test.json_counter\": 3"), std::string::npos);
  EXPECT_NE(s.find("test.json_hist"), std::string::npos);
  EXPECT_NE(s.find("test.json_series"), std::string::npos);
  // Run metadata and drop accounting are always present.
  EXPECT_NE(s.find("\"meta\""), std::string::npos);
  EXPECT_NE(s.find("\"dropped\": { \"points\": 0 }"), std::string::npos);
}

TEST_F(TelemetryTest, SeriesCollectsPointsInOrder) {
  Series& s = series("test.series");
  s.add(0.5, 1.0);
  s.add(1.5, 2.0);
  s.add(2.5, 4.0);
  const auto pts = s.points();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[1], (std::pair<double, double>{1.5, 2.0}));
  EXPECT_EQ(s.dropped(), 0u);
  EXPECT_EQ(&series("test.series"), &s);
  const auto all = series_values();
  ASSERT_TRUE(all.count("test.series"));
  EXPECT_EQ(all.at("test.series").size(), 3u);
}

TEST_F(TelemetryTest, MetaCarriesBuildInfoAndRunKeys) {
  const auto meta = meta_values();
  // Build identity is auto-populated (values may be "unknown" outside a git
  // checkout, but the keys must exist so teldiff can gate on them).
  for (const char* key : {"git", "compiler", "build_type", "cxx_flags",
                          "telemetry_compiled", "hardware_threads"}) {
    EXPECT_TRUE(meta.count(key)) << "missing meta key " << key;
  }
  EXPECT_EQ(meta.at("telemetry_compiled"), compiled_in() ? "1" : "0");
  set_meta("seed", "42");
  EXPECT_EQ(meta_values().at("seed"), "42");
  std::ostringstream out;
  write_json(out);
  EXPECT_NE(out.str().find("\"seed\": \"42\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism contract (DESIGN.md §8): sim.* counters and sim.series.*
// samples are a pure function of (topology, router, seed). The golden values
// below were recorded from the §2 batch mode (rwa::provision_batch) on this
// configuration, and re-recorded when the heap began popping equal keys in
// id order (equal-cost wavelengths and pairs broke ties differently); timing
// data carries no such guarantee.

sim::SimOptions batch_options() {
  sim::SimOptions opt;
  opt.traffic.arrival_rate = 12.0;
  opt.traffic.mean_holding = 1.0;
  opt.duration = 30.0;
  opt.seed = 11;
  opt.batching.interval = 0.5;
  opt.series_interval = 2.0;
  return opt;
}

void run_batch_sim() {
  reset();
  rwa::ApproxDisjointRouter router;
  sim::Simulator sim(topo::nsfnet_network(8, 0.5), router, batch_options());
  (void)sim.run();
}

std::map<std::string, std::uint64_t> run_and_snapshot() {
  run_batch_sim();
  return counter_values();
}

std::map<std::string, std::uint64_t> sim_subset(
    const std::map<std::string, std::uint64_t>& all) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [k, v] : all) {
    if (k.rfind("sim.", 0) == 0) out.emplace(k, v);
  }
  return out;
}

TEST_F(TelemetryTest, CountersDeterministicAcrossRuns) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const auto a = run_and_snapshot();
  const auto b = run_and_snapshot();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.at("sim.offered"), 0u);
}

TEST_F(TelemetryTest, SimCountersMatchGolden) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  // Nothing blocks in this run, so no blocked counter is ever touched.
  const std::map<std::string, std::uint64_t> golden = {
      {"sim.accepted", 353},
      {"sim.offered", 353}};
  EXPECT_EQ(sim_subset(run_and_snapshot()), golden);
}

// A second, longer batch-mode run (60 sim-time units at 20 Erlang, seed 7,
// series every 5 units), pinned the same way.
TEST_F(TelemetryTest, SimCountersMatchGoldenOnSecondBatchRun) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  rwa::ApproxDisjointRouter router;
  sim::SimOptions opt;
  opt.traffic.arrival_rate = 20.0;
  opt.traffic.mean_holding = 1.0;
  opt.duration = 60.0;
  opt.seed = 7;
  opt.batching.interval = 0.5;
  opt.series_interval = 5.0;
  sim::Simulator s(topo::nsfnet_network(8, 0.5), router, opt);
  (void)s.run();
  // Batch provisioning attributes no cause: every block counts as "none".
  const std::map<std::string, std::uint64_t> golden = {
      {"sim.accepted", 1222},
      {"sim.blocked", 22},
      {"sim.blocked_by.none", 22},
      {"sim.offered", 1244}};
  EXPECT_EQ(sim_subset(counter_values()), golden);
  const auto offered = series_values().at("sim.series.offered");
  ASSERT_EQ(offered.size(), 12u);
  EXPECT_EQ(offered.back(), (std::pair<double, double>{60.0, 1244.0}));
}

TEST_F(TelemetryTest, SimSeriesMatchGolden) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  run_batch_sim();
  std::map<std::string, std::vector<double>> values;
  for (const auto& [k, points] : series_values()) {
    if (k.rfind("sim.series.", 0) != 0) continue;
    std::vector<double>& v = values[k];
    std::vector<double> times;
    for (const auto& [t, y] : points) {
      times.push_back(t);
      v.push_back(y);
    }
    EXPECT_EQ(times, (std::vector<double>{2, 4, 6, 8, 10, 12, 14, 16, 18, 20,
                                          22, 24, 26, 28, 30}))
        << k;
  }
  const std::vector<double> zeros(15, 0.0);
  const std::vector<double> ones(15, 1.0);
  const std::map<std::string, std::vector<double>> golden = {
      {"sim.series.offered", {21, 46, 70, 96, 126, 152, 173, 192, 213, 233,
                              257, 276, 300, 333, 353}},
      {"sim.series.accepted", {14, 38, 68, 90, 115, 146, 165, 187, 210, 229,
                               253, 272, 295, 326, 347}},
      {"sim.series.blocked", zeros},
      {"sim.series.live_connections",
       {4, 9, 9, 10, 10, 9, 6, 6, 11, 9, 8, 8, 10, 14, 11}},
      {"sim.series.load_rho", {0.25, 0.5, 0.5, 0.5, 0.5, 0.5, 0.375, 0.5,
                               0.5, 0.625, 0.5, 0.625, 0.625, 0.625, 0.5}},
      {"sim.series.availability", ones},
      {"sim.series.srlg_failures", zeros},
  };
  for (const auto& [k, v] : golden) {
    ASSERT_TRUE(values.count(k)) << k;
    EXPECT_EQ(values.at(k), v) << k;
  }
  // The blocking probability is the running blocked / offered ratio.
  ASSERT_TRUE(values.count("sim.series.blocking_probability"));
  const auto& bp = values.at("sim.series.blocking_probability");
  ASSERT_EQ(bp.size(), 15u);
  for (std::size_t i = 0; i < bp.size(); ++i) {
    EXPECT_EQ(bp[i], values.at("sim.series.blocked")[i] /
                         values.at("sim.series.offered")[i]);
  }
  EXPECT_EQ(values.size(), golden.size() + 1);  // no unpinned sim.series.*
}

// The builder's telemetry counters mirror its CacheStats, rebinds included:
// every build on a different network object drops the caches and counts.
TEST_F(TelemetryTest, AuxBuilderRebindsCounterMatchesStats) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const net::WdmNetwork a = topo::nsfnet_network(8, 0.5);
  const net::WdmNetwork b = topo::nsfnet_network(8, 0.5);
  rwa::AuxGraphBuilder builder;
  builder.build(a, 0, 13);
  builder.build(b, 0, 13);
  builder.build(a, 0, 13);
  builder.build(a, 1, 12);  // same network: no rebind
  EXPECT_EQ(builder.stats().rebinds, 3u);
  const auto counters = counter_values();
  EXPECT_EQ(counters.at("rwa.aux_builder.rebinds"), builder.stats().rebinds);
  EXPECT_EQ(counters.at("rwa.aux_builder.builds"), builder.stats().builds);
}

}  // namespace
}  // namespace wdm::support::telemetry
