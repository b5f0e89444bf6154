#include "rwa/mincog.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "rwa/layered_graph.hpp"
#include "rwa/srlg.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {

namespace {

/// The builder and Suurballe workspace every probe of one search shares.
struct ProbeScratch {
  AuxGraphBuilder& builder;
  graph::SuurballeWorkspace& ws;
};

/// One probe: build G_c(ϑ) through the shared warm builder, run Suurballe.
/// Feasible iff a pair exists. The network is untouched between probes, so
/// only the first probe of a search pays the transit-arc scans.
bool probe(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
           double theta, const MinCogOptions& opt, ProbeScratch& sc,
           MinCogResult* into, bool inclusive = false) {
  WDM_TEL_COUNT("rwa.mincog.probes");
  support::telemetry::SplitTimer tel;
  AuxGraphOptions aopt;
  aopt.weighting = AuxWeighting::kLoadExponential;
  aopt.theta = theta;
  aopt.load_base = opt.load_base;
  aopt.include_at_threshold = inclusive;
  const AuxGraph& aux = sc.builder.build(net, s, t, aopt);
  tel.split(WDM_TEL_HIST("rwa.mincog.aux_build_ns"),
            WDM_TEL_NAME("rwa.mincog.aux_build"));
  graph::DisjointPair pair;
  graph::suurballe_into(aux.g, aux.w, aux.s_prime, aux.t_second, {}, &sc.ws,
                        &pair);
  tel.split(WDM_TEL_HIST("rwa.mincog.suurballe_ns"),
            WDM_TEL_NAME("rwa.mincog.suurballe"));
  if (!pair.found) return false;
  if (into != nullptr) {
    into->aux_pair = std::move(pair);
    into->aux = aux;  // copy out of the builder's arena (success path only)
  }
  return true;
}

}  // namespace

namespace {

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
    if (probe(net, s, t, theta, opt, sc, &result)) {
      result.found = true;
      result.theta = theta;
      return result;
    }
    result.last_infeasible_theta = theta;
  }
  return result;
}

/// Ablation variant: bisection on [ϑ_min, ϑ_max] after establishing
/// feasibility at ϑ_max.
MinCogResult mincog_bisection(const net::WdmNetwork& net, net::NodeId s,
                              net::NodeId t, const MinCogOptions& opt,
                              ProbeScratch& sc) {
  MinCogResult result;
  double lo = net.theta_min();
  double hi = net.theta_max();
  ++result.iterations;
  if (probe(net, s, t, lo, opt, sc, &result)) {
    result.found = true;
    result.theta = lo;
    return result;
  }
  result.last_infeasible_theta = lo;
  ++result.iterations;
  if (!probe(net, s, t, hi, opt, sc, &result)) {
    result.last_infeasible_theta = hi;
    return result;  // drop: infeasible even with every link admitted
  }
  double best = hi;
  while (hi - lo > opt.bisection_tolerance) {
    const double mid = 0.5 * (lo + hi);
    ++result.iterations;
    MinCogResult probe_result;
    if (probe(net, s, t, mid, opt, sc, &probe_result)) {
      hi = mid;
      best = mid;
      result.aux_pair = std::move(probe_result.aux_pair);
      result.aux = std::move(probe_result.aux);
    } else {
      lo = mid;
      result.last_infeasible_theta = mid;
    }
  }
  result.found = true;
  result.theta = best;
  return result;
}

}  // namespace

MinCogResult find_two_paths_mincog(const net::WdmNetwork& net, net::NodeId s,
                                   net::NodeId t, const MinCogOptions& opt,
                                   AuxGraphBuilder* builder,
                                   graph::SuurballeWorkspace* ws) {
  AuxGraphBuilder local_builder;
  graph::SuurballeWorkspace local_ws;
  ProbeScratch sc{builder != nullptr ? *builder : local_builder,
                  ws != nullptr ? *ws : local_ws};
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
    if (probe(net, s, t, theta, opt, sc, &result)) {
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
  // crosses a link-load value U(e)/N(e): the inclusive probe at load L asks
  // "does a pair exist over links with load <= L", and the smallest feasible
  // L is the exact minimum bottleneck load.
  std::set<double> candidates;
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    candidates.insert(net.link_load(e));
  }
  AuxGraphBuilder builder;  // warm across the probe sweep
  graph::SuurballeWorkspace ws;
  ProbeScratch sc{builder, ws};
  for (double load : candidates) {
    if (probe(net, s, t, load, MinCogOptions{}, sc, nullptr, /*inclusive=*/true)) {
      if (theta_out != nullptr) *theta_out = load;
      return true;
    }
  }
  return false;
}

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
  const bool srlg_path =
      policy_.kind == net::ProtectKind::kSrlg && net.num_srlgs() > 0;
  auto sc = scratch_.lease(net);
  MinCogResult mc =
      find_two_paths_mincog(net, s, t, opt_, &sc->builder, &sc->suurballe);
  result.theta = mc.theta;
  result.theta_iterations = mc.iterations;
  tel.split(WDM_TEL_HIST("rwa.minload.theta_search_ns"),
            WDM_TEL_NAME("rwa.minload.theta_search"));
  WDM_TEL_COUNT_N("rwa.minload.theta_probes", mc.iterations);
  if (!mc.found) {
    WDM_TEL_COUNT("rwa.minload.blocked");
    tel.total(WDM_TEL_HIST("rwa.minload.route_ns"));
    return result;
  }
  if (srlg_path) {
    // Rerun the pair search on the accepted G_c(ϑ) with conflict sets.
    SrlgPairResult sp = srlg_disjoint_pair(net, mc.aux);
    result.srlg_exhaustive = sp.exhaustive;
    if (!sp.pair.found) {
      WDM_TEL_COUNT("rwa.minload.blocked");
      tel.total(WDM_TEL_HIST("rwa.minload.route_ns"));
      return result;
    }
    mc.aux_pair = std::move(sp.pair);
  }
  result.aux_cost = mc.aux_pair.total_cost();

  mc.aux.induced_link_mask_into(mc.aux_pair.first, net.num_links(),
                                &sc->mask1);
  mc.aux.induced_link_mask_into(mc.aux_pair.second, net.num_links(),
                                &sc->mask2);
  net::Semilightpath p1 = optimal_semilightpath(net, s, t, sc->mask1);
  net::Semilightpath p2 = optimal_semilightpath(net, s, t, sc->mask2);
  tel.split(WDM_TEL_HIST("rwa.minload.liang_shen_ns"),
            WDM_TEL_NAME("rwa.minload.liang_shen"));
  tel.total(WDM_TEL_HIST("rwa.minload.route_ns"));
  if (!p1.found || !p2.found) {
    WDM_TEL_COUNT("rwa.minload.blocked");
    return result;
  }
  WDM_DCHECK(net::edge_disjoint(p1, p2));
  WDM_TEL_COUNT("rwa.minload.found");
  if (p2.cost(net) < p1.cost(net)) std::swap(p1, p2);
  result.found = true;
  result.route.found = true;
  result.route.primary = std::move(p1);
  result.route.backup = std::move(p2);
  return result;
}

}  // namespace wdm::rwa
