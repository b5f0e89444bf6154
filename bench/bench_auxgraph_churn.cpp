// E16 — repeated auxiliary-graph builds under reserve/release churn:
// a fresh AuxGraphBuilder per call (cold: arena construction, every weight
// and conversion mean derived from scratch) vs one persistent builder
// (arena reuse + dirty-only re-weighting: only the links, transit pairs
// and nodes whose revisions moved since the last build). Both arms
// build the same stable-arena layout.
//
// This is the workload every router actually generates: the dynamic-traffic
// simulator and the MinCog ϑ search rebuild G' / G_c / G_rc thousands of
// times against a network that changes by a handful of wavelengths between
// builds. The acceptance bar for the builder is >= 2x on NSFNET.
//
// Writes BENCH_auxgraph.json in the working directory (path override via
// argv: --out <path>); a --quick run writes its record only to an explicit
// --out.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "rwa/aux_graph.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "topology/network_builder.hpp"

namespace {

using namespace wdm;

struct ArmResult {
  std::string scenario;
  std::string weighting;
  int builds = 0;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  double speedup() const { return warm_ms > 0.0 ? cold_ms / warm_ms : 0.0; }
  std::uint64_t conv_hits = 0;
  std::uint64_t conv_misses = 0;
};

/// A few random reservation mutations between consecutive builds — the
/// simulator's steady-state: most links untouched, a handful churned.
void churn(net::WdmNetwork& net, support::Rng& rng, int ops) {
  for (int i = 0; i < ops; ++i) {
    const auto e = static_cast<graph::EdgeId>(
        rng.index(static_cast<std::size_t>(net.num_links())));
    if (rng.bernoulli(0.5)) {
      const auto avail = net.available(e).to_vector();
      if (!avail.empty()) net.reserve(e, avail[rng.index(avail.size())]);
    } else {
      std::vector<net::Wavelength> used;
      net.installed(e).for_each([&](net::Wavelength l) {
        if (net.is_used(e, l)) used.push_back(l);
      });
      if (!used.empty()) net.release(e, used[rng.index(used.size())]);
    }
  }
}

ArmResult run_arm(const char* scenario, const net::WdmNetwork& base,
                  rwa::AuxWeighting weighting, const char* wname, int builds,
                  std::uint64_t seed) {
  ArmResult r;
  r.scenario = scenario;
  r.weighting = wname;
  r.builds = builds;

  rwa::AuxGraphOptions opt;
  opt.weighting = weighting;
  if (weighting != rwa::AuxWeighting::kCost) opt.theta = 0.9;

  const auto n = static_cast<std::size_t>(base.num_nodes());
  // Pre-draw identical query + churn streams for both arms.
  std::vector<std::pair<net::NodeId, net::NodeId>> queries;
  {
    support::Rng qrng(seed);
    for (int i = 0; i < builds; ++i) {
      const auto s = static_cast<net::NodeId>(qrng.index(n));
      const auto t = static_cast<net::NodeId>(
          (static_cast<std::size_t>(s) + 1 + qrng.index(n - 1)) % n);
      queries.emplace_back(s, t);
    }
  }

  // The arms run interleaved, build by build: two network copies take the
  // same churn stream, and each arm's stopwatch times only its own churn
  // and build, so host noise lands on both arms alike instead of on
  // whichever of two back-to-back loops it happened to overlap.
  volatile double sink = 0.0;  // defeat dead-code elimination
  net::WdmNetwork cold_net = base;
  net::WdmNetwork warm_net = base;
  support::Rng cold_rng(seed + 1);
  support::Rng warm_rng(seed + 1);  // identical churn stream
  rwa::AuxGraphBuilder builder;
  for (int i = 0; i < builds; ++i) {
    const auto [s, t] = queries[static_cast<std::size_t>(i)];
    support::Stopwatch cold_sw;
    churn(cold_net, cold_rng, 3);
    {
      rwa::AuxGraphBuilder fresh;
      const rwa::AuxGraph& aux = fresh.build(cold_net, s, t, opt);
      sink = sink + (aux.w.empty() ? 0.0 : aux.w.back());
    }
    r.cold_ms += cold_sw.elapsed_ms();
    support::Stopwatch warm_sw;
    churn(warm_net, warm_rng, 3);
    const rwa::AuxGraph& aux = builder.build(warm_net, s, t, opt);
    sink = sink + (aux.w.empty() ? 0.0 : aux.w.back());
    r.warm_ms += warm_sw.elapsed_ms();
  }
  r.conv_hits = builder.stats().conv_hits;
  r.conv_misses = builder.stats().conv_misses;
  (void)sink;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  wdm::bench::TelemetryScope telemetry(argc, argv);
  const bool quick = wdm::bench::quick_mode(argc, argv);
  const std::string out_path =
      wdm::bench::record_path(argc, argv, quick, "BENCH_auxgraph.json");
  wdm::bench::banner(
      "E16 — aux-graph build throughput under churn",
      "Expected shape: the reusable AuxGraphBuilder (arena reuse + "
      "dirty-only re-weighting) beats a fresh "
      "builder per request by >= 2x on NSFNET, growing with "
      "topology size and wavelength count.");

  const int builds = quick ? 300 : 2000;

  std::vector<ArmResult> results;
  {
    // NSFNET, W=16, full conversion — the paper's canonical setting.
    const net::WdmNetwork nsf = topo::nsfnet_network(16, 0.5);
    results.push_back(run_arm("nsfnet-w16", nsf, rwa::AuxWeighting::kCost,
                              "G'", builds, 101));
    results.push_back(run_arm("nsfnet-w16", nsf,
                              rwa::AuxWeighting::kLoadExponential, "G_c",
                              builds, 102));
    results.push_back(run_arm("nsfnet-w16", nsf,
                              rwa::AuxWeighting::kCostLoadFiltered, "G_rc",
                              builds, 103));
  }
  {
    // Larger random WAN: 60 nodes, extra duplex links, W=32.
    support::Rng rng(7);
    const topo::Topology t = topo::random_connected(60, 50, rng);
    topo::NetworkOptions nopt;
    nopt.num_wavelengths = 32;
    const net::WdmNetwork big = topo::build_network(t, nopt, rng);
    results.push_back(run_arm("random60-w32", big, rwa::AuxWeighting::kCost,
                              "G'", builds / 2, 201));
    results.push_back(run_arm("random60-w32", big,
                              rwa::AuxWeighting::kCostLoadFiltered, "G_rc",
                              builds / 2, 202));
  }

  wdm::support::TextTable table({"scenario", "graph", "builds", "cold ms",
                                 "warm ms", "speedup", "conv hit rate"});
  bool nsfnet_bar_met = true;
  for (const ArmResult& r : results) {
    const double hit_rate =
        (r.conv_hits + r.conv_misses)
            ? static_cast<double>(r.conv_hits) /
                  static_cast<double>(r.conv_hits + r.conv_misses)
            : 0.0;
    if (r.scenario == "nsfnet-w16" && r.speedup() < 2.0) {
      nsfnet_bar_met = false;
    }
    table.add_row({r.scenario, r.weighting,
                   wdm::support::TextTable::integer(r.builds),
                   wdm::support::TextTable::num(r.cold_ms, 2),
                   wdm::support::TextTable::num(r.warm_ms, 2),
                   wdm::support::TextTable::num(r.speedup(), 2),
                   wdm::support::TextTable::num(hit_rate, 3)});
  }
  wdm::bench::print_table(table);
  std::printf("NSFNET >= 2x acceptance bar: %s\n",
              nsfnet_bar_met ? "MET" : "NOT MET");

  if (out_path.empty()) return nsfnet_bar_met ? 0 : 2;
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"experiment\": \"E16 aux-graph churn\",\n");
  std::fprintf(f, "  \"builds_per_arm\": %d,\n  \"churn_ops_per_build\": 3,\n",
               builds);
  std::fprintf(f, "  \"nsfnet_2x_bar_met\": %s,\n",
               nsfnet_bar_met ? "true" : "false");
  std::fprintf(f, "  \"arms\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ArmResult& r = results[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"graph\": \"%s\", \"builds\": %d, "
        "\"cold_ms\": %.3f, \"warm_ms\": %.3f, \"speedup\": %.3f, "
        "\"conv_hits\": %llu, \"conv_misses\": %llu}%s\n",
        r.scenario.c_str(), r.weighting.c_str(), r.builds, r.cold_ms,
        r.warm_ms, r.speedup(), static_cast<unsigned long long>(r.conv_hits),
        static_cast<unsigned long long>(r.conv_misses),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return nsfnet_bar_met ? 0 : 2;
}
