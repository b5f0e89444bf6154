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

TEST_F(TelemetryTest, HistogramMergeIsElementwise) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.record_ns(3);
  a.record_ns(100);
  b.record_ns(5);
  b.record_ns(2000);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum_ns(), 3u + 100 + 5 + 2000);
  EXPECT_EQ(a.min_ns(), 3u);
  EXPECT_EQ(a.max_ns(), 2000u);
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
  WDM_TEL_EVENT("test.json_event", 1.5);
  std::ostringstream out;
  write_json(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"schema\": \"robustwdm-telemetry-v2\""),
            std::string::npos);
  EXPECT_NE(s.find("\"test.json_counter\": 3"), std::string::npos);
  EXPECT_NE(s.find("test.json_hist"), std::string::npos);
  EXPECT_NE(s.find("test.json_series"), std::string::npos);
  // v2 sections: run metadata and drop accounting are always present.
  EXPECT_NE(s.find("\"meta\""), std::string::npos);
  EXPECT_NE(s.find("\"dropped\""), std::string::npos);
  if (compiled_in()) {
    EXPECT_NE(s.find("test.json_event"), std::string::npos);
  }
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

TEST_F(TelemetryTest, SpanOverflowDropsOldestAndCounts) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const std::uint32_t name = intern("test.overflow_span");
  constexpr std::size_t kOver = 16;
  for (std::size_t i = 0; i < kMaxSpansPerThread + kOver; ++i) {
    SpanRecord s;
    s.name = name;
    s.span_id = detail::new_span_id();
    s.start_ns = i;
    s.dur_ns = 1;
    record_span(s);
  }
  // The ring retains the newest kMaxSpans records; the overflow is counted
  // both per-thread (dump header) and in the tel.dropped_spans counter.
  EXPECT_EQ(span_snapshot().size(), kMaxSpansPerThread);
  EXPECT_EQ(counter_values().at("tel.dropped_spans"), kOver);
  std::ostringstream out;
  write_json(out);
  EXPECT_NE(out.str().find("\"spans\": 16"), std::string::npos);
}

TEST_F(TelemetryTest, FlightRecorderRetainsOnlyRequestedTraces) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const std::uint32_t name = intern("test.retained_span");
  // Retention must be armed before roots are recorded: trace roots are noted
  // at record time, not retroactively.
  set_trace_retention(/*last_k=*/2, /*worst_k=*/0);
  // Ten single-span traces with increasing durations, plus one untraced span.
  for (std::uint64_t t = 1; t <= 10; ++t) {
    SpanRecord s;
    s.name = name;
    s.trace = t;
    s.span_id = detail::new_span_id();
    s.start_ns = t * 100;
    s.dur_ns = t * 10;
    record_span(s);
  }
  record_span(name, 5, 7);  // untraced: always kept
  const auto spans = span_snapshot();
  std::size_t traced = 0;
  for (const auto& s : spans) {
    if (s.span.trace != 0) {
      ++traced;
      EXPECT_GE(s.span.trace, 9u) << "older trace leaked past retention";
    }
  }
  EXPECT_EQ(traced, 2u);
  EXPECT_EQ(spans.size(), 3u);
}

// ---------------------------------------------------------------------------
// Determinism contract (DESIGN.md §8): sim.* counters and sim.series.*
// samples are a pure function of (topology, router, seed). The golden values
// below were recorded from the §2 batch mode (rwa::provision_batch) on this
// configuration; timing data carries no such guarantee.

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
  const std::map<std::string, std::uint64_t> golden = {
      {"sim.accepted", 351}, {"sim.blocked", 2}, {"sim.offered", 353}};
  EXPECT_EQ(sim_subset(run_and_snapshot()), golden);
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
      {"sim.series.accepted", {14, 38, 68, 90, 115, 144, 163, 185, 208, 227,
                               251, 270, 293, 324, 345}},
      {"sim.series.blocked", {0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}},
      {"sim.series.live_connections",
       {4, 9, 9, 10, 10, 9, 6, 6, 11, 9, 8, 8, 10, 14, 11}},
      {"sim.series.load_rho", {0.25, 0.5, 0.5, 0.5, 0.75, 0.5, 0.375, 0.5, 0.5,
                               0.625, 0.5, 0.625, 0.625, 0.625, 0.5}},
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

// ---------------------------------------------------------------------------
// Request-lifecycle tracing: every offered request yields a causally linked
// span tree (sim.request -> router route span -> pipeline stage spans).

TEST_F(TelemetryTest, RequestSpanTreeIsCausallyLinked) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  rwa::ApproxDisjointRouter router;
  sim::SimOptions opt;
  opt.traffic.arrival_rate = 5.0;
  opt.traffic.mean_holding = 1.0;
  opt.duration = 10.0;
  opt.seed = 7;
  sim::Simulator sim(topo::nsfnet_network(8, 0.5), router, opt);
  (void)sim.run();

  const std::uint32_t n_request = intern("sim.request");
  const std::uint32_t n_route = intern("rwa.approx.route");
  const std::uint32_t n_aux = intern("rwa.approx.aux_build");
  const std::uint32_t n_suurballe = intern("rwa.approx.suurballe");
  const std::uint32_t n_liang_shen = intern("rwa.approx.liang_shen");

  const auto spans = span_snapshot();
  std::map<TraceId, std::uint64_t> root_of;    // trace -> sim.request span id
  std::map<TraceId, std::uint64_t> route_of;   // trace -> route span id
  for (const auto& s : spans) {
    if (s.span.name == n_request) {
      EXPECT_EQ(s.span.parent_id, 0u) << "sim.request must be a trace root";
      EXPECT_NE(s.span.trace, 0u);
      root_of[s.span.trace] = s.span.span_id;
    } else if (s.span.name == n_route) {
      route_of[s.span.trace] = s.span.span_id;
    }
  }
  ASSERT_GT(root_of.size(), 10u) << "expected one trace per offered request";
  // Trace ids are the offered-request ordinals: 1..offered, no gaps.
  EXPECT_TRUE(root_of.count(1));
  EXPECT_TRUE(root_of.count(root_of.size()));
  for (const auto& s : spans) {
    if (s.span.name == n_route) {
      ASSERT_TRUE(root_of.count(s.span.trace));
      EXPECT_EQ(s.span.parent_id, root_of.at(s.span.trace))
          << "route span must attach under its request's root";
    } else if (s.span.name == n_aux || s.span.name == n_suurballe ||
               s.span.name == n_liang_shen) {
      ASSERT_TRUE(route_of.count(s.span.trace));
      EXPECT_EQ(s.span.parent_id, route_of.at(s.span.trace))
          << "stage span must attach under its request's route span";
    }
  }
}

}  // namespace
}  // namespace wdm::support::telemetry
