// E22 — continental-scale routing hot path: cold vs warm request latency on
// 250/500/1000-node geo-grid and Waxman WANs.
//
// The claim under test: with the CSR aux-graph arena (built once, then only
// re-weighted where links changed), its conversion-mean caches, and the
// pooled RouteScratch, a steady-state request's latency grows sublinearly
// in the routing problem size (stable-arena arc count), while the cold path
// (fresh router per request: arena construction, every cache and buffer
// from scratch) tracks it linearly or worse. Both passes run
// ApproxDisjointRouter with refinement off, fed by 8 recurring sources.
//
// Arms: {geo-grid, waxman} × {250, 500, 1000} nodes. Quick mode drops W
// from 64 to 16 and shrinks the request count; the deterministic
// `rwa.scale.*` outcome counters it emits are gated against
// baselines/telemetry_scale_quick.json by teldiff in CI (timings are
// reported but never gated).
//
// Exit protocol: 0 = ok, 2 = sublinearity bar missed (full mode only;
// quick sizes are too small for a stable ratio on shared CI hardware).
// Writes BENCH_scale.json (override: --out <path>).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "rwa/approx_router.hpp"
#include "rwa/aux_graph.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"
#include "topology/network_builder.hpp"
#include "topology/topologies.hpp"

namespace {

using namespace wdm;

struct ArmSpec {
  const char* label;      // also the telemetry counter infix
  const char* family;     // "geo" | "waxman"
  int n;                  // node count
  int rows, cols;         // geo-grid shape (family == "geo")
};

constexpr ArmSpec kArms[] = {
    {"geo-250", "geo", 250, 10, 25},
    {"geo-500", "geo", 500, 20, 25},
    {"geo-1000", "geo", 1000, 25, 40},
    {"waxman-250", "waxman", 250, 0, 0},
    {"waxman-500", "waxman", 500, 0, 0},
    {"waxman-1000", "waxman", 1000, 0, 0},
};

struct ArmResult {
  std::string label;
  int n = 0;
  int links = 0;
  long long aux_arcs = 0;  // stable-arena universe size — the problem size
  int requests = 0;
  int found = 0;
  // Latency ladders in microseconds: [p50, p90, p99].
  std::vector<double> cold_us;
  std::vector<double> warm_us;
  double warm_mean_us = 0.0;
  double cold_mean_us = 0.0;
};

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

ArmResult run_arm(const ArmSpec& spec, int wavelengths, int requests,
                  std::uint64_t seed) {
  support::Rng topo_rng(seed);
  const topo::Topology t =
      std::strcmp(spec.family, "geo") == 0
          ? topo::geo_grid(spec.rows, spec.cols, /*chord_p=*/0.3, topo_rng)
          : topo::waxman(spec.n, /*alpha=*/0.08, /*beta=*/0.12, topo_rng);
  topo::NetworkOptions nopt;
  nopt.num_wavelengths = wavelengths;
  nopt.cost_model = topo::CostModel::kLength;
  const net::WdmNetwork base = topo::build_network(t, nopt, topo_rng);

  ArmResult r;
  r.label = spec.label;
  r.n = spec.n;
  r.links = static_cast<int>(base.num_links());
  r.requests = requests;
  {
    // The routing-layer size of this topology: arcs in the stable-arena
    // universe graph (transit arcs grow with Σ deg², so Waxman arms are
    // far "bigger" than their node count suggests).
    rwa::AuxGraphBuilder sizer;
    r.aux_arcs = sizer.build(base, 0, 1).g.num_edges();
  }

  // Identical query + churn streams for both passes. Sources come from a
  // small recurring pool (spread across the id space): a WAN's provisioning
  // requests originate at a handful of ingress points. Destinations stay
  // uniform.
  const auto n = static_cast<std::size_t>(base.num_nodes());
  const std::size_t pool = std::min<std::size_t>(8, n);
  std::vector<std::pair<net::NodeId, net::NodeId>> queries;
  {
    support::Rng qrng(seed + 1);
    for (int i = 0; i < requests; ++i) {
      const auto s =
          static_cast<net::NodeId>((qrng.index(pool) * n) / pool);
      const auto d = static_cast<net::NodeId>(
          (static_cast<std::size_t>(s) + 1 + qrng.index(n - 1)) % n);
      queries.emplace_back(s, d);
    }
  }

  std::vector<double> cold_lat, warm_lat;
  cold_lat.reserve(static_cast<std::size_t>(requests));
  warm_lat.reserve(static_cast<std::size_t>(requests));

  {
    // Cold pass: a fresh router per request — the pre-arena cost model
    // (structure build, cold caches, every scratch buffer allocated).
    // Cold requests cost milliseconds each, so a prefix of the stream is
    // plenty for a stable contrast p50.
    const int cold_n = std::min(requests, 120);
    net::WdmNetwork net = base;
    support::Rng crng(seed + 2);
    for (int i = 0; i < cold_n; ++i) {
      const auto& [s, d] = queries[static_cast<std::size_t>(i)];
      churn(net, crng, 4);
      const rwa::ApproxDisjointRouter cold_router(/*refine=*/false);
      support::Stopwatch sw;
      const rwa::RouteResult res = cold_router.route(net, s, d);
      cold_lat.push_back(sw.elapsed_us());
      (void)res;
    }
  }
  {
    // Warm pass: one persistent router, recycled result, identical streams.
    net::WdmNetwork net = base;
    support::Rng crng(seed + 2);
    const rwa::ApproxDisjointRouter router(/*refine=*/false);
    rwa::RouteResult out;
    // Untimed warmup sizes the arena, the caches and the scratch buffers.
    for (int i = 0; i < std::min(requests, 8); ++i) {
      router.route_into(net, queries[static_cast<std::size_t>(i)].first,
                        queries[static_cast<std::size_t>(i)].second, &out);
    }
    for (const auto& [s, d] : queries) {
      churn(net, crng, 4);
      support::Stopwatch sw;
      router.route_into(net, s, d, &out);
      warm_lat.push_back(sw.elapsed_us());
      if (out.found) ++r.found;
    }
  }

  // Deterministic outcome counters for the teldiff gate; timings stay out.
  // WDM_TEL_COUNT_DYN, not WDM_TEL_COUNT_N: the per-arm names are
  // runtime-built, and the static-handle macro would fold all six arms into
  // the first arm's counters (debug builds now abort on that misuse).
  {
    const std::string prefix = std::string("rwa.scale.") + spec.label;
    WDM_TEL_COUNT_DYN(prefix + ".requests", r.requests);
    WDM_TEL_COUNT_DYN(prefix + ".found", r.found);
    WDM_TEL_COUNT_DYN(prefix + ".links", r.links);
  }

  const std::vector<double> qs{0.5, 0.9, 0.99};
  r.cold_us = support::percentiles(cold_lat, qs);
  r.warm_us = support::percentiles(warm_lat, qs);
  r.cold_mean_us = support::mean_of(cold_lat);
  r.warm_mean_us = support::mean_of(warm_lat);
  return r;
}

/// 250-node-arm -> 1000-node-arm growth ratio of one family, over an
/// arbitrary per-arm metric (warm p50, cold p50, arena arcs, ...).
template <typename Metric>
double growth(const std::vector<ArmResult>& results, const char* fam,
              Metric metric) {
  double lo = 0.0, hi = 0.0;
  for (const ArmResult& r : results) {
    if (r.label == std::string(fam) + "-250") lo = metric(r);
    if (r.label == std::string(fam) + "-1000") hi = metric(r);
  }
  return lo > 0.0 ? hi / lo : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  wdm::bench::TelemetryScope telemetry(argc, argv);
  const bool quick = wdm::bench::quick_mode(argc, argv);
  std::string out_path = "BENCH_scale.json";
  const char* only = nullptr;  // run a single arm (profiling aid)
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
    if (std::strcmp(argv[i], "--only") == 0) only = argv[i + 1];
  }
  wdm::bench::banner(
      "E22 — continental-scale hot path (cold vs warm request latency)",
      "Expected shape: from 250 to 1000 nodes, warm steady-state p50 grows "
      "slower than the aux-arena arc count while cold tracks it.");

  const int W = quick ? 16 : 64;
  const int requests = quick ? 48 : 400;

  std::vector<ArmResult> results;
  for (std::size_t i = 0; i < std::size(kArms); ++i) {
    if (only != nullptr && std::strcmp(kArms[i].label, only) != 0) continue;
    results.push_back(
        run_arm(kArms[i], W, requests, 5000 + 31 * static_cast<int>(i)));
  }

  wdm::support::TextTable table(
      {"arm", "nodes", "links", "aux arcs", "found", "cold p50 us",
       "cold p99 us", "warm p50 us", "warm p90 us", "warm p99 us",
       "speedup p50"});
  for (const ArmResult& r : results) {
    table.add_row(
        {r.label, wdm::support::TextTable::integer(r.n),
         wdm::support::TextTable::integer(r.links),
         wdm::support::TextTable::integer(r.aux_arcs),
         wdm::support::TextTable::integer(r.found),
         wdm::support::TextTable::num(r.cold_us[0], 1),
         wdm::support::TextTable::num(r.cold_us[2], 1),
         wdm::support::TextTable::num(r.warm_us[0], 1),
         wdm::support::TextTable::num(r.warm_us[1], 1),
         wdm::support::TextTable::num(r.warm_us[2], 1),
         wdm::support::TextTable::num(
             r.warm_us[0] > 0.0 ? r.cold_us[0] / r.warm_us[0] : 0.0, 2)});
  }
  wdm::bench::print_table(table);

  // The bar: warm p50 must grow strictly slower than the routing problem
  // itself. "Topology size" is the stable-arena arc count, not the node
  // count — Waxman transit gadgets grow with Σ deg², so the 1000-node arm
  // is ~25x the 250-node arm even though the node ratio is 4x.
  const auto warm_p50 = [](const ArmResult& r) { return r.warm_us[0]; };
  const auto arcs = [](const ArmResult& r) {
    return static_cast<double>(r.aux_arcs);
  };
  const double geo_growth = growth(results, "geo", warm_p50);
  const double wax_growth = growth(results, "waxman", warm_p50);
  const double geo_arcs = growth(results, "geo", arcs);
  const double wax_arcs = growth(results, "waxman", arcs);
  const bool bar_met = geo_growth > 0.0 && wax_growth > 0.0 &&
                       geo_growth < geo_arcs && wax_growth < wax_arcs;
  std::printf(
      "growth 250 -> 1000 nodes (node-count ratio 4.00x):\n"
      "  geo    warm p50 %.2fx vs aux arcs %.2fx\n"
      "  waxman warm p50 %.2fx vs aux arcs %.2fx\n"
      "sublinearity bar (warm p50 growth < aux arc growth, both families): "
      "%s\n",
      geo_growth, geo_arcs, wax_growth, wax_arcs,
      bar_met ? "MET" : "NOT MET");
  wdm::bench::note(
      "cold = fresh router per request (arena construction + cold caches + "
      "all allocations); warm = persistent router: arena re-weighted in "
      "place, warm conversion-mean caches, pooled scratch. Quick mode: W=16, "
      "small request count — use the full run for publishable ratios.");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"experiment\": \"E22 continental scale\",\n");
  std::fprintf(f, "  \"wavelengths\": %d,\n  \"requests_per_arm\": %d,\n", W,
               requests);
  std::fprintf(f, "  \"warm_p50_growth_geo\": %.3f,\n", geo_growth);
  std::fprintf(f, "  \"warm_p50_growth_waxman\": %.3f,\n", wax_growth);
  std::fprintf(f, "  \"aux_arc_growth_geo\": %.3f,\n", geo_arcs);
  std::fprintf(f, "  \"aux_arc_growth_waxman\": %.3f,\n", wax_arcs);
  std::fprintf(f, "  \"sublinear_bar_met\": %s,\n", bar_met ? "true" : "false");
  std::fprintf(f, "  \"arms\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ArmResult& r = results[i];
    std::fprintf(
        f,
        "    {\"arm\": \"%s\", \"nodes\": %d, \"links\": %d, "
        "\"aux_arcs\": %lld, \"requests\": %d, \"found\": %d, "
        "\"cold_us\": [%.1f, %.1f, %.1f], \"warm_us\": [%.1f, %.1f, %.1f], "
        "\"cold_mean_us\": %.1f, \"warm_mean_us\": %.1f}%s\n",
        r.label.c_str(), r.n, r.links, r.aux_arcs, r.requests, r.found,
        r.cold_us[0], r.cold_us[1], r.cold_us[2], r.warm_us[0], r.warm_us[1],
        r.warm_us[2], r.cold_mean_us, r.warm_mean_us,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  if (!quick && only == nullptr && !bar_met) return 2;
  return 0;
}
