#include "rwa/mincog.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "rwa/protection_stage.hpp"
#include "rwa/srlg.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {

namespace {

/// Bisection stops when the bracket is narrower than this.
constexpr double kBisectionTolerance = 1e-3;

/// G_c(ϑ) for the search's options. Shared by every probe and by
/// MinLoadRouter's kSrlg rebuild of the accepted graph, so the rebuild
/// carries the probe's exact weights and arena ids.
AuxGraphOptions gc_options(double theta, const MinCogOptions& opt) {
  AuxGraphOptions aopt;
  aopt.weighting = AuxWeighting::kLoadExponential;
  aopt.theta = theta;
  aopt.load_base = opt.load_base;
  return aopt;
}

/// The builder, Suurballe workspace and pair buffer every probe of one
/// search shares.
struct ProbeScratch {
  AuxGraphBuilder& builder;
  graph::SuurballeWorkspace& ws;
  graph::DisjointPair& pair;
};

/// One probe: build G_c(ϑ) through the shared warm builder, run Suurballe
/// into `sc.pair`. Feasible iff a pair exists. The network is untouched between probes, so
/// only the first probe of a search pays the transit-arc scans.
bool probe(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
           double theta, const MinCogOptions& opt, ProbeScratch& sc) {
  WDM_TEL_COUNT("rwa.mincog.probes");
  support::telemetry::SplitTimer tel;
  const AuxGraph& aux = sc.builder.build(net, s, t, gc_options(theta, opt));
  tel.split(WDM_TEL_HIST("rwa.mincog.aux_build_ns"),
            WDM_TEL_NAME("rwa.mincog.aux_build"));
  graph::suurballe_into(aux.g, aux.w, aux.s_prime, aux.t_second, {}, &sc.ws,
                        &sc.pair);
  tel.split(WDM_TEL_HIST("rwa.mincog.suurballe_ns"),
            WDM_TEL_NAME("rwa.mincog.suurballe"));
  return sc.pair.found;
}

/// Ablation variant: probe every distinct boundary value just past each
/// link load (plus ϑ_min / ϑ_max) in increasing order. Exact minimum grid
/// threshold, up to O(m) probes.
MinCogResult mincog_linear_scan(const net::WdmNetwork& net, net::NodeId s,
                                net::NodeId t, const MinCogOptions& opt,
                                ProbeScratch& sc) {
  MinCogResult result;
  std::set<double> grid;
  grid.insert(net.theta_min());
  grid.insert(net.theta_max());
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    // Just past each load boundary, where the strict filter admits the link.
    grid.insert(std::nextafter(net.link_load(e),
                               std::numeric_limits<double>::infinity()));
  }
  for (double theta : grid) {
    ++result.iterations;
    if (probe(net, s, t, theta, opt, sc)) {
      result.found = true;
      result.theta = theta;
      return result;
    }
    result.last_infeasible_theta = theta;
  }
  return result;
}

/// Ablation variant: bisection on [ϑ_min, ϑ_max] after establishing
/// feasibility at ϑ_max. Later infeasible probes overwrite `sc.pair`, so the
/// best feasible probe's pair is swapped aside and restored at the end.
MinCogResult mincog_bisection(const net::WdmNetwork& net, net::NodeId s,
                              net::NodeId t, const MinCogOptions& opt,
                              ProbeScratch& sc) {
  MinCogResult result;
  double lo = net.theta_min();
  double hi = net.theta_max();
  ++result.iterations;
  if (probe(net, s, t, lo, opt, sc)) {
    result.found = true;
    result.theta = lo;
    return result;
  }
  result.last_infeasible_theta = lo;
  ++result.iterations;
  if (!probe(net, s, t, hi, opt, sc)) {
    result.last_infeasible_theta = hi;
    return result;  // drop: infeasible even with every link admitted
  }
  double best = hi;
  graph::DisjointPair best_pair;
  std::swap(best_pair, sc.pair);
  while (hi - lo > kBisectionTolerance) {
    const double mid = 0.5 * (lo + hi);
    ++result.iterations;
    if (probe(net, s, t, mid, opt, sc)) {
      hi = mid;
      best = mid;
      std::swap(best_pair, sc.pair);
    } else {
      lo = mid;
      result.last_infeasible_theta = mid;
    }
  }
  std::swap(sc.pair, best_pair);
  result.found = true;
  result.theta = best;
  return result;
}

}  // namespace

MinCogResult find_two_paths_mincog(const net::WdmNetwork& net, net::NodeId s,
                                   net::NodeId t, const MinCogOptions& opt,
                                   AuxGraphBuilder* builder,
                                   graph::SuurballeWorkspace* ws,
                                   graph::DisjointPair* pair) {
  AuxGraphBuilder local_builder;
  graph::SuurballeWorkspace local_ws;
  graph::DisjointPair local_pair;
  ProbeScratch sc{builder != nullptr ? *builder : local_builder,
                  ws != nullptr ? *ws : local_ws,
                  pair != nullptr ? *pair : local_pair};
  if (opt.search == ThetaSearch::kLinearScan) {
    return mincog_linear_scan(net, s, t, opt, sc);
  }
  if (opt.search == ThetaSearch::kBisection) {
    return mincog_bisection(net, s, t, opt, sc);
  }

  MinCogResult result;
  const double theta_min = net.theta_min();
  const double theta_max = net.theta_max();
  const double delta = theta_max - theta_min;

  double theta = theta_min;
  // j0 = -⌈log2(Δ)⌉ as in the paper; for Δ >= 1 start doubling immediately.
  int j = (delta > 0.0)
              ? std::max(0, static_cast<int>(std::ceil(-std::log2(delta))))
              : 0;
  while (true) {
    ++result.iterations;
    if (probe(net, s, t, theta, opt, sc)) {
      result.found = true;
      result.theta = theta;
      return result;
    }
    result.last_infeasible_theta = theta;
    if (theta >= theta_max || delta <= 0.0) break;  // ϑ_max probe failed: drop
    theta = std::min(theta + delta / std::pow(2.0, j), theta_max);
    --j;
    // j < 0 means the increment has grown past Δ; the clamp above has already
    // pushed ϑ to ϑ_max, so the next probe is the final one.
  }
  return result;
}

bool exact_min_threshold(const net::WdmNetwork& net, net::NodeId s,
                         net::NodeId t, double* theta_out) {
  // Under the strict filter, feasibility of G_c(ϑ) flips exactly when ϑ
  // crosses a link-load value U(e)/N(e): the probe at ϑ = nextafter(L, +inf)
  // asks "does a pair exist over links with load <= L" (for doubles,
  // load < nextafter(L) iff load <= L), and the smallest feasible L is the
  // exact minimum bottleneck load.
  std::set<double> candidates;
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    candidates.insert(net.link_load(e));
  }
  AuxGraphBuilder builder;  // warm across the probe sweep
  graph::SuurballeWorkspace ws;
  graph::DisjointPair pair;
  ProbeScratch sc{builder, ws, pair};
  for (double load : candidates) {
    if (probe(net, s, t,
              std::nextafter(load, std::numeric_limits<double>::infinity()),
              MinCogOptions{}, sc)) {
      if (theta_out != nullptr) *theta_out = load;
      return true;
    }
  }
  return false;
}

namespace {

WDM_STAGE_NAMES(MinLoadNames, "rwa.minload.");

}  // namespace

RouteResult MinLoadRouter::route(const net::WdmNetwork& net, net::NodeId s,
                                 net::NodeId t) const {
  if (policy_.kind == net::ProtectKind::kPartial) {
    return route_partial(net, s, t, policy_.threshold);
  }
  WDM_TEL_COUNT("rwa.minload.attempts");
  WDM_TEL_SPAN(tel_span, "rwa.minload.route");
  support::telemetry::SplitTimer tel;
  RouteResult result;
  result.route.policy = policy_;
  auto sc = scratch_.lease(net);
  if (!theta_prelude<MinLoadNames>(net, s, t, opt_, *sc, tel, &result)) {
    return result;
  }
  if (policy_.kind == net::ProtectKind::kSrlg && net.num_srlgs() > 0) {
    // Rebuild the accepted G_c(ϑ) through the warm builder and rerun the
    // pair search on it with conflict sets.
    protect_on_aux<MinLoadNames>(net, s, t, gc_options(result.theta, opt_),
                                 policy_, /*refine=*/true, *sc, tel, &result);
  } else {
    // The prelude left the accepted probe's Suurballe pair on G_c(ϑ) in the
    // scratch, and the builder's arena in G_c's layout.
    realize_pair<MinLoadNames>(net, s, t, sc->builder.last(),
                               /*refine=*/true, *sc, tel, &result);
  }
  return result;
}

}  // namespace wdm::rwa
