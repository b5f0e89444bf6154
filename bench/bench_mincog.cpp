// E5 — Theorem 3: Find_Two_Paths_MinCog delivers a network-load threshold
// within the theorem's ratio of the optimum, in O(log 1/Δ) probes. We
// compare the accepted ϑ against the exact minimum bottleneck load L*
// (exact_min_threshold: the smallest link load L whose strict-filter probe
// at nextafter(L, +inf) admits an edge-disjoint pair), report the overshoot
// ratio against the last infeasible probe (the quantity the telescoping
// proof bounds), and count probe iterations.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "rwa/mincog.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "topology/network_builder.hpp"

namespace {

using namespace wdm;

}  // namespace

int main(int argc, char** argv) {
  const bool quick = wdm::bench::quick_mode(argc, argv);
  const int trials = quick ? 30 : 300;
  wdm::bench::banner(
      "E5 / Theorem 3 — MinCog threshold quality and probe count",
      "Expected shape: accepted ϑ strictly above the exact bottleneck L*, "
      "overshoot ratio vs the last infeasible probe < 3 beyond the first "
      "increment, probes logarithmic in 1/Δ.");

  wdm::support::TextTable table(
      {"occupancy", "trials", "feasible", "mean L*", "mean ϑ",
       "mean ϑ-L*", "max ratio(>2 probes)", "mean probes", "max probes"});

  for (double occupancy : {0.2, 0.4, 0.6, 0.8}) {
    support::RunningStats lstar, theta, gap, probes;
    double max_ratio = 0.0;
    int feasible = 0;
    for (int trial = 0; trial < trials; ++trial) {
      support::Rng rng(static_cast<std::uint64_t>(occupancy * 1000) * 131 +
                       trial);
      topo::NetworkOptions opt;
      opt.num_wavelengths = 8;
      net::WdmNetwork network =
          topo::build_network(topo::nsfnet(), opt, rng);
      for (graph::EdgeId e = 0; e < network.num_links(); ++e) {
        network.available(e).for_each([&](net::Wavelength l) {
          if (rng.bernoulli(occupancy)) network.reserve(e, l);
        });
      }
      const auto s = static_cast<net::NodeId>(rng.uniform_int(0, 13));
      auto t = s;
      while (t == s) t = static_cast<net::NodeId>(rng.uniform_int(0, 13));

      double exact = 0.0;
      const bool ok = rwa::exact_min_threshold(network, s, t, &exact);
      const rwa::MinCogResult mc = rwa::find_two_paths_mincog(network, s, t);
      if (!ok || !mc.found) continue;
      ++feasible;
      lstar.add(exact);
      theta.add(mc.theta);
      gap.add(mc.theta - exact);
      probes.add(mc.iterations);
      if (mc.iterations > 2 && !std::isnan(mc.last_infeasible_theta) &&
          mc.last_infeasible_theta > 0) {
        max_ratio =
            std::max(max_ratio, mc.theta / mc.last_infeasible_theta);
      }
    }
    table.add_row({wdm::support::TextTable::num(occupancy, 1),
                   wdm::support::TextTable::integer(trials),
                   wdm::support::TextTable::integer(feasible),
                   wdm::support::TextTable::num(lstar.mean(), 4),
                   wdm::support::TextTable::num(theta.mean(), 4),
                   wdm::support::TextTable::num(gap.mean(), 4),
                   wdm::support::TextTable::num(max_ratio, 3),
                   wdm::support::TextTable::num(probes.mean(), 2),
                   wdm::support::TextTable::num(probes.max(), 0)});
  }
  wdm::bench::print_table(table);
  wdm::bench::note(
      "L* from the exact-threshold oracle (smallest link load L whose "
      "strict-filter probe at nextafter(L, +inf) admits an edge-disjoint "
      "pair); the strict-filter search accepts the first probe above it. Ratio column only counts searches with >2 probes, "
      "where the Theorem 3 telescoping bound applies.");
  return 0;
}
