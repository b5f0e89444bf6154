// Gauges and the live JSONL stream publisher (DESIGN.md §8.5): gauge
// set/add/reset semantics and dump output, Prometheus text exposition,
// interval/final frame structure on disk, flush-on-unwind via StreamScope,
// stop_stream idempotence, and a streamed batch-mode run's final frame
// against a dump of the same run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rwa/approx_router.hpp"
#include "sim/simulator.hpp"
#include "support/telemetry.hpp"
#include "tools/json_mini.hpp"
#include "topology/network_builder.hpp"

namespace wdm::support::telemetry {
namespace {

using wdm::tools::json::Json;
using wdm::tools::json::JsonPtr;
using wdm::tools::json::Parser;

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stop_stream();  // never inherit a live publisher from a sibling test
    reset();
    set_enabled(true);
  }
  void TearDown() override {
    stop_stream();
    set_enabled(false);
    reset();
  }
};

std::vector<JsonPtr> read_frames(const std::string& path) {
  std::vector<JsonPtr> frames;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    frames.push_back(Parser(line).parse());
  }
  return frames;
}

const Json* field(const Json& obj, const char* key) {
  const JsonPtr* p = obj.find(key);
  return p != nullptr ? p->get() : nullptr;
}

TEST_F(StreamTest, GaugeSetAddAndReset) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  Gauge& g = gauge("test.gauge");
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_EQ(g.value(), 4.0);
  g.add(-5.0);
  EXPECT_EQ(g.value(), -1.0);  // gauges are levels; negatives are legal
  // Same name resolves to the same instance, like counters.
  EXPECT_EQ(&gauge("test.gauge"), &g);

  WDM_TEL_GAUGE_SET("test.gauge", 7);
  EXPECT_EQ(g.value(), 7.0);
  WDM_TEL_GAUGE_ADD("test.gauge", -2);
  EXPECT_EQ(g.value(), 5.0);

  const auto values = gauge_values();
  const auto it = values.find("test.gauge");
  ASSERT_NE(it, values.end());
  EXPECT_EQ(it->second, 5.0);

  reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST_F(StreamTest, GaugeMacrosInertWhenDisabled) {
  set_enabled(false);
  WDM_TEL_GAUGE_SET("test.gauge.off", 9);
  WDM_TEL_GAUGE_ADD("test.gauge.off", 1);
  if (!compiled_in()) return;
  const auto values = gauge_values();
  const auto it = values.find("test.gauge.off");
  if (it != values.end()) {
    EXPECT_EQ(it->second, 0.0);
  }
}

TEST_F(StreamTest, GaugesAppearInJsonDump) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  gauge("test.dump.gauge").set(3.25);
  std::ostringstream out;
  write_json(out);
  const std::string doc = out.str();
  const JsonPtr root = Parser(doc).parse();
  const Json* gauges = field(*root, "gauges");
  ASSERT_NE(gauges, nullptr);
  const Json* g = field(*gauges, "test.dump.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->num, 3.25);
}

TEST_F(StreamTest, PrometheusExposition) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  counter("test.prom.requests").add(42);
  gauge("test.prom.depth").set(6.0);
  histogram("test.prom.latency_ns").record_ns(1500);
  std::ostringstream out;
  write_prometheus(out);
  const std::string text = out.str();
  // Counters get a _total suffix, dots fold to underscores, everything is
  // namespaced under robustwdm_.
  EXPECT_NE(text.find("robustwdm_test_prom_requests_total 42"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE robustwdm_test_prom_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("robustwdm_test_prom_depth 6"), std::string::npos);
  // Histograms expose cumulative le buckets plus _sum/_count and +Inf.
  EXPECT_NE(text.find("robustwdm_test_prom_latency_ns_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("robustwdm_test_prom_latency_ns_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("robustwdm_build_info"), std::string::npos);
}

TEST_F(StreamTest, PublisherEmitsIntervalAndFinalFrames) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const std::string path = ::testing::TempDir() + "stream_frames.jsonl";
  StreamOptions opt;
  opt.path = path;
  opt.interval_s = 0.01;
  ASSERT_TRUE(start_stream(opt));
  EXPECT_TRUE(stream_active());
  // Counter activity spread across several publisher ticks.
  for (int i = 0; i < 10; ++i) {
    counter("test.stream.work").add(5);
    gauge("test.stream.depth").set(i);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop_stream();
  EXPECT_FALSE(stream_active());

  const auto frames = read_frames(path);
  ASSERT_GE(frames.size(), 2u) << "expected interval frames plus a final";
  std::uint64_t delta_sum = 0;
  double prev_seq = 0.0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const Json& f = *frames[i];
    const Json* schema = field(f, "schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "robustwdm-telemetry-stream-v1");
    const Json* seq = field(f, "seq");
    ASSERT_NE(seq, nullptr);
    EXPECT_GT(seq->num, prev_seq);
    prev_seq = seq->num;
    const Json* kind = field(f, "kind");
    ASSERT_NE(kind, nullptr);
    if (i + 1 < frames.size()) {
      EXPECT_EQ(kind->str, "interval");
      const Json* counters = field(f, "counters");
      ASSERT_NE(counters, nullptr);
      if (const Json* d = field(*counters, "test.stream.work")) {
        delta_sum += static_cast<std::uint64_t>(d->num);
      }
    } else {
      EXPECT_EQ(kind->str, "final");
    }
  }
  // The final frame is cumulative and dump-shaped.
  const Json& fin = *frames.back();
  const Json* counters = field(fin, "counters");
  ASSERT_NE(counters, nullptr);
  const Json* total = field(*counters, "test.stream.work");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->num, 50.0);
  EXPECT_GE(static_cast<std::uint64_t>(total->num), delta_sum);
  const Json* gauges = field(fin, "gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(field(*gauges, "test.stream.depth"), nullptr);
  ASSERT_NE(field(fin, "meta"), nullptr);
  const Json* nframes = field(fin, "frames");
  ASSERT_NE(nframes, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(nframes->num) + 1, frames.size());
}

TEST_F(StreamTest, StartStreamRejectsBadOptions) {
  StreamOptions none;  // neither path nor fd
  EXPECT_FALSE(start_stream(none));
  StreamOptions bad;
  bad.path = ::testing::TempDir() + "never_written.jsonl";
  bad.interval_s = 0.0;
  EXPECT_FALSE(start_stream(bad));
  if (!compiled_in()) return;
  StreamOptions ok;
  ok.path = ::testing::TempDir() + "double_start.jsonl";
  ok.interval_s = 0.05;
  ASSERT_TRUE(start_stream(ok));
  EXPECT_FALSE(start_stream(ok)) << "second start while active must fail";
  stop_stream();
}

TEST_F(StreamTest, StopStreamIsIdempotent) {
  stop_stream();  // never started: no-op
  stop_stream();
  if (!compiled_in()) return;
  StreamOptions opt;
  opt.path = ::testing::TempDir() + "idempotent.jsonl";
  opt.interval_s = 0.05;
  ASSERT_TRUE(start_stream(opt));
  stop_stream();
  stop_stream();  // second stop after a real run: still a no-op
  const auto frames = read_frames(opt.path);
  std::size_t finals = 0;
  for (const JsonPtr& f : frames) {
    const Json* kind = field(*f, "kind");
    if (kind != nullptr && kind->str == "final") ++finals;
  }
  EXPECT_EQ(finals, 1u) << "double stop must not write a second final frame";
}

TEST_F(StreamTest, StreamScopeFlushesFinalFrameOnUnwind) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const std::string path = ::testing::TempDir() + "unwind.jsonl";
  try {
    StreamOptions opt;
    opt.path = path;
    opt.interval_s = 10.0;  // no interval tick fires during the test
    StreamScope scope(opt);
    counter("test.unwind.work").add(3);
    throw std::runtime_error("bench died mid-run");
  } catch (const std::exception&) {
  }
  // The scope's destructor ran during unwind, so the final frame — with the
  // cumulative counter — must already be on disk.
  const auto frames = read_frames(path);
  ASSERT_EQ(frames.size(), 1u);
  const Json* kind = field(*frames[0], "kind");
  ASSERT_NE(kind, nullptr);
  EXPECT_EQ(kind->str, "final");
  const Json* counters = field(*frames[0], "counters");
  ASSERT_NE(counters, nullptr);
  const Json* v = field(*counters, "test.unwind.work");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->num, 3.0);
}

/// The streamed final frame carries the same sim.* content as a dump of the
/// same batch-mode run: cumulative sim.* counters and every sim.series.*
/// sample. (rwa.* counters, timings and gauges are not compared.)
TEST_F(StreamTest, SimStreamFinalFrameMatchesDumpUnderBatching) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const std::string path = ::testing::TempDir() + "sim_batch.jsonl";
  StreamOptions sopt;
  sopt.path = path;
  sopt.interval_s = 0.01;
  ASSERT_TRUE(start_stream(sopt));
  rwa::ApproxDisjointRouter router;
  sim::SimOptions opt;
  opt.traffic.arrival_rate = 20.0;
  opt.traffic.mean_holding = 1.0;
  opt.duration = 60.0;
  opt.seed = 7;
  opt.batching.interval = 0.5;
  opt.series_interval = 5.0;
  sim::Simulator s(topo::nsfnet_network(8, 0.5), router, opt);
  s.run();
  stop_stream();

  auto frames = read_frames(path);
  ASSERT_FALSE(frames.empty());
  const JsonPtr streamed = std::move(frames.back());
  std::ostringstream dump_out;
  write_json(dump_out);
  const std::string dump = dump_out.str();
  const JsonPtr dumped = Parser(dump).parse();

  auto sim_counters = [&](const Json& f) {
    std::map<std::string, double> out;
    const Json* counters = field(f, "counters");
    if (counters == nullptr) return out;
    for (const auto& [name, v] : counters->obj) {
      if (name.rfind("sim.", 0) == 0) out.emplace(name, v->num);
    }
    return out;
  };
  const auto c = sim_counters(*streamed);
  EXPECT_EQ(c, (std::map<std::string, double>{
                   {"sim.accepted", 1228}, {"sim.blocked", 16},
                   {"sim.offered", 1244}}));
  EXPECT_EQ(c, sim_counters(*dumped));

  auto sim_series = [&](const Json& f) {
    std::map<std::string, std::vector<std::pair<double, double>>> out;
    const Json* series = field(f, "series");
    if (series == nullptr) return out;
    for (const auto& [name, v] : series->obj) {
      if (name.rfind("sim.series.", 0) != 0) continue;
      const Json* points = field(*v, "points");
      if (points == nullptr) continue;
      auto& dst = out[name];
      for (const JsonPtr& p : points->arr) {
        dst.emplace_back(p->arr[0]->num, p->arr[1]->num);
      }
    }
    return out;
  };
  const auto ser = sim_series(*streamed);
  EXPECT_FALSE(ser.empty());
  EXPECT_EQ(ser, sim_series(*dumped));
}

}  // namespace
}  // namespace wdm::support::telemetry
