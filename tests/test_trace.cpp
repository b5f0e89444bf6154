// Golden-file test for the Chrome trace-event exporter plus the structural
// checks of a serial (route-on-arrival) trace.
//
// The golden signature is *structural*: counts of slice root-paths and
// instant names. Timestamps, span/thread ids, and "M" metadata are
// excluded — they vary run to run — so for a fixed seed in serial mode the
// signature is fully deterministic and any change to what the exporter
// emits (names, nesting, event kinds) shows up as a diff.
//
// Regenerating after an intentional trace-shape change:
//   WDM_REGEN_TRACE_GOLDEN=1 ./build/tests/test_trace
// rewrites tests/testdata/trace_golden_nsfnet.txt in the source tree.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "rwa/approx_router.hpp"
#include "sim/simulator.hpp"
#include "support/telemetry.hpp"
#include "tools/json_mini.hpp"
#include "topology/network_builder.hpp"

namespace wdm::support::telemetry {
namespace {

namespace json = ::wdm::tools::json;

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
    reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

std::string run_and_export(const sim::SimOptions& opt) {
  rwa::ApproxDisjointRouter router;
  sim::Simulator sim(topo::nsfnet_network(8, 0.5), router, opt);
  (void)sim.run();
  std::ostringstream out;
  write_chrome_trace(out);
  return out.str();
}

sim::SimOptions golden_options() {
  sim::SimOptions opt;
  opt.traffic.arrival_rate = 5.0;
  opt.traffic.mean_holding = 1.0;
  opt.duration = 10.0;
  opt.seed = 3;
  return opt;
}

/// Parses a Chrome trace document into its structural signature, one line
/// per distinct (kind, key): "X <root-path> x <count>", "i <name> x <count>".
/// Lines are sorted (std::map iteration order).
std::string trace_signature(const std::string& chrome_json) {
  json::Parser parser(chrome_json);
  const json::JsonPtr doc = parser.parse();
  const json::JsonPtr* events = doc->find("traceEvents");
  if (events == nullptr || !(*events)->is(json::Json::Type::kArray)) {
    throw std::runtime_error("no traceEvents array");
  }
  struct Slice {
    std::string name;
    std::uint64_t parent = 0;
  };
  std::map<std::uint64_t, Slice> slices;  // span id -> slice
  std::map<std::string, int> instants;
  for (const json::JsonPtr& e : (*events)->arr) {
    const std::string& ph = (*e->find("ph"))->str;
    if (ph == "X") {
      const json::JsonPtr& args = *e->find("args");
      const auto id =
          static_cast<std::uint64_t>((*args->find("span"))->num);
      const auto parent =
          static_cast<std::uint64_t>((*args->find("parent"))->num);
      slices[id] = {(*e->find("name"))->str, parent};
    } else if (ph == "i") {
      ++instants[(*e->find("name"))->str];
    }
  }
  std::map<std::string, int> paths;
  for (const auto& [id, slice] : slices) {
    std::string path = slice.name;
    std::uint64_t up = slice.parent;
    for (int depth = 0; up != 0 && depth < 32; ++depth) {
      const auto it = slices.find(up);
      if (it == slices.end()) {
        path = "<missing-parent>/" + path;
        break;
      }
      path = it->second.name + "/" + path;
      up = it->second.parent;
    }
    ++paths[path];
  }
  std::ostringstream sig;
  for (const auto& [path, n] : paths) sig << "X " << path << " x " << n << "\n";
  for (const auto& [name, n] : instants) {
    sig << "i " << name << " x " << n << "\n";
  }
  return sig.str();
}

TEST_F(TraceTest, GoldenSignatureOnFixedSeedNsfnet) {
  const std::string sig = trace_signature(run_and_export(golden_options()));
  const std::string golden_path =
      std::string(WDM_TEST_DATA_DIR) + "/trace_golden_nsfnet.txt";
  if (std::getenv("WDM_REGEN_TRACE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << sig;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "missing golden file " << golden_path
                  << " — run with WDM_REGEN_TRACE_GOLDEN=1 to create it";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(sig, golden.str())
      << "trace structure changed; if intentional, regenerate with "
         "WDM_REGEN_TRACE_GOLDEN=1";
}

TEST_F(TraceTest, SerialTraceHasOneTreePerRequestAndParsesClean) {
  const std::string doc_text = run_and_export(golden_options());
  json::Parser parser(doc_text);
  const json::JsonPtr doc = parser.parse();
  ASSERT_NE(doc->find("displayTimeUnit"), nullptr);
  const std::string sig = trace_signature(doc_text);
  // Every slice path is rooted at sim.request, and the full pipeline chain
  // (aux-build -> Suurballe -> Liang-Shen) appears under the route span.
  EXPECT_NE(sig.find("X sim.request x "), std::string::npos) << sig;
  EXPECT_NE(sig.find("X sim.request/rwa.approx.route/rwa.approx.suurballe"),
            std::string::npos)
      << sig;
  EXPECT_EQ(sig.find("X rwa."), std::string::npos)
      << "router span not rooted under sim.request:\n"
      << sig;
}

}  // namespace
}  // namespace wdm::support::telemetry
