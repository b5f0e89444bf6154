// E20 — service availability under correlated SRLG failures.
//
// NSFNET with conduit-style SRLG annotations (each group bundles a few
// fibers that share a physical risk), correlated failure events drawn at
// rate srlg_failure_rate x p(g). Arms: the approx router under
// ProtectPolicy full / srlg / partial:0.25, plus the unprotected baseline.
// The claim: SRLG-disjoint protection converts correlated cuts from
// connection losses into switchovers, so its availability dominates the
// unprotected baseline and is at least competitive with edge-disjoint
// (full) protection, which can place both paths in one conduit.
//
// Writes BENCH_reliability.json (--out <path>; a --quick run writes its
// record only to an explicit --out). The sim.* workload
// counters emitted under --telemetry are deterministic for the committed
// seeds and gate in CI via teldiff against
// baselines/telemetry_reliability_quick.json.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "rwa/approx_router.hpp"
#include "rwa/baselines.hpp"
#include "sim/replicate.hpp"
#include "support/rng.hpp"
#include "topology/network_builder.hpp"

namespace {

using namespace wdm;

/// NSFNET with conduit-style SRLGs: consecutive directed fibers bundled in
/// groups of three with per-group failure probabilities cycling through
/// {0.4, 0.25, 0.1}. Deterministic — the teldiff baseline depends on it.
net::WdmNetwork annotated_nsfnet(int W) {
  net::WdmNetwork n = topo::nsfnet_network(W, 0.5);
  const double probs[] = {0.4, 0.25, 0.1};
  int g = 0;
  for (graph::EdgeId e = 0; e + 2 < n.num_links(); e += 3, ++g) {
    n.add_srlg({e, static_cast<graph::EdgeId>(e + 1),
                static_cast<graph::EdgeId>(e + 2)},
               probs[g % 3]);
  }
  return n;
}

struct ArmResult {
  std::string arm;
  sim::ReplicationSummary summary;
};

}  // namespace

int main(int argc, char** argv) {
  wdm::bench::TelemetryScope telemetry(argc, argv);
  const bool quick = wdm::bench::quick_mode(argc, argv);
  const std::string out_path = wdm::bench::record_path(
      argc, argv, quick, "BENCH_reliability.json");
  wdm::bench::banner(
      "E20 — availability under correlated SRLG failures",
      "Expected shape: on SRLG-annotated NSFNET under correlated group "
      "failures, SRLG-disjoint protection keeps availability above the "
      "unprotected baseline (full edge-disjoint protection may place both "
      "paths in one conduit and lose them together).");

  const int W = 8;
  const int replicas = quick ? 4 : 16;
  const double duration = quick ? 80.0 : 400.0;
  const net::WdmNetwork base = annotated_nsfnet(W);
  const topo::Topology t = topo::nsfnet();

  sim::SimOptions opt;
  opt.traffic.arrival_rate = 12.0;
  opt.traffic.mean_holding = 1.0;
  opt.duration = duration;
  opt.seed = 20;
  opt.failures.srlg_failure_rate = 0.05;
  opt.failures.duplex_failure_rate = 0.005;
  opt.failures.mean_repair = 2.0;
  opt.reverse_of = t.reverse_of;

  struct Arm {
    const char* name;
    std::unique_ptr<rwa::Router> router;
  };
  std::vector<Arm> arms;
  arms.push_back({"full", std::make_unique<rwa::ApproxDisjointRouter>(
                              true, net::ProtectPolicy::full())});
  arms.push_back({"srlg", std::make_unique<rwa::ApproxDisjointRouter>(
                              true, net::ProtectPolicy::srlg())});
  arms.push_back({"partial:0.25",
                  std::make_unique<rwa::ApproxDisjointRouter>(
                      true, net::ProtectPolicy::partial(0.25))});
  arms.push_back({"unprotected", std::make_unique<rwa::UnprotectedRouter>()});

  std::vector<ArmResult> results;
  for (const Arm& arm : arms) {
    ArmResult r;
    r.arm = arm.name;
    r.summary = sim::replicate(base, *arm.router, opt, replicas);
    results.push_back(std::move(r));
  }

  wdm::support::TextTable table(
      {"policy", "blocking", "recovery", "availability", "avail ci95"});
  double avail_srlg = 0.0, avail_unprotected = 0.0;
  for (const ArmResult& r : results) {
    if (r.arm == "srlg") avail_srlg = r.summary.availability.mean;
    if (r.arm == "unprotected") {
      avail_unprotected = r.summary.availability.mean;
    }
    table.add_row({r.arm,
                   wdm::support::TextTable::num(r.summary.blocking.mean, 4),
                   wdm::support::TextTable::num(
                       r.summary.recovery_success.mean, 4),
                   wdm::support::TextTable::num(
                       r.summary.availability.mean, 5),
                   wdm::support::TextTable::num(
                       r.summary.availability.ci95, 5)});
  }
  wdm::bench::print_table(table);
  const bool bar_met = avail_srlg >= avail_unprotected;
  std::printf("SRLG availability >= unprotected acceptance bar: %s\n",
              bar_met ? "MET" : "NOT MET");

  if (out_path.empty()) return bar_met ? 0 : 2;
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"experiment\": \"E20 SRLG reliability\",\n");
  std::fprintf(f, "  \"replicas\": %d,\n  \"duration\": %.1f,\n", replicas,
               duration);
  std::fprintf(f, "  \"srlg_bar_met\": %s,\n", bar_met ? "true" : "false");
  std::fprintf(f, "  \"arms\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::ReplicationSummary& s = results[i].summary;
    std::fprintf(f,
                 "    {\"policy\": \"%s\", \"blocking\": %.6f, "
                 "\"recovery\": %.6f, \"availability\": %.6f, "
                 "\"availability_ci95\": %.6f}%s\n",
                 results[i].arm.c_str(), s.blocking.mean,
                 s.recovery_success.mean, s.availability.mean,
                 s.availability.ci95, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return bar_met ? 0 : 2;
}
