#include "rwa/loadcost_router.hpp"

#include <algorithm>

#include "graph/suurballe.hpp"
#include "rwa/layered_graph.hpp"
#include "rwa/srlg.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {

RouteResult LoadCostRouter::route(const net::WdmNetwork& net, net::NodeId s,
                                  net::NodeId t) const {
  if (policy_.kind == net::ProtectKind::kPartial) {
    return route_partial(net, s, t, policy_.threshold);
  }
  WDM_TEL_COUNT("rwa.loadcost.attempts");
  WDM_TEL_SPAN(tel_span, "rwa.loadcost.route");
  support::telemetry::SplitTimer tel;
  RouteResult result;
  result.route.policy = policy_;
  const bool srlg_path =
      policy_.kind == net::ProtectKind::kSrlg && net.num_srlgs() > 0;
  auto sc = scratch_.lease(net);

  // Phase 1: minimum feasible network-load threshold. Probes go through the
  // scratch builder and Suurballe workspace, so phase 2 (and the next
  // request) finds the arena and the conversion-mean cache warm.
  const MinCogResult mc =
      find_two_paths_mincog(net, s, t, opt_, &sc->builder, &sc->suurballe);
  result.theta = mc.theta;
  result.theta_iterations = mc.iterations;
  tel.split(WDM_TEL_HIST("rwa.loadcost.theta_search_ns"),
            WDM_TEL_NAME("rwa.loadcost.theta_search"));
  WDM_TEL_COUNT_N("rwa.loadcost.theta_probes", mc.iterations);
  if (!mc.found) {
    WDM_TEL_COUNT("rwa.loadcost.blocked");
    tel.total(WDM_TEL_HIST("rwa.loadcost.route_ns"));
    return result;
  }

  // Phase 2: cost-weighted routing restricted to links below ϑ.
  AuxGraphOptions aopt;
  aopt.weighting = AuxWeighting::kCostLoadFiltered;
  aopt.theta = mc.theta;
  aopt.grc_mean_over_available = grc_mean_over_available_;
  const AuxGraph& aux = sc->builder.build(net, s, t, aopt);
  tel.split(WDM_TEL_HIST("rwa.loadcost.aux_build_ns"),
            WDM_TEL_NAME("rwa.loadcost.aux_build"));
  if (srlg_path) {
    SrlgPairResult sp = srlg_disjoint_pair(net, aux);
    sc->pair = std::move(sp.pair);
    result.srlg_exhaustive = sp.exhaustive;
  } else {
    graph::suurballe_into(aux.g, aux.w, aux.s_prime, aux.t_second, {},
                          &sc->suurballe, &sc->pair);
  }
  graph::DisjointPair& pair = sc->pair;
  tel.split(WDM_TEL_HIST("rwa.loadcost.suurballe_ns"),
            WDM_TEL_NAME("rwa.loadcost.suurballe"));
  // G_rc(ϑ) has the same topology as the G_c(ϑ) phase 1 accepted, so a pair
  // must exist; guard anyway for robustness.
  if (!pair.found) {
    WDM_TEL_COUNT("rwa.loadcost.blocked");
    tel.total(WDM_TEL_HIST("rwa.loadcost.route_ns"));
    return result;
  }
  result.aux_cost = pair.total_cost();

  aux.induced_link_mask_into(pair.first, net.num_links(), &sc->mask1);
  aux.induced_link_mask_into(pair.second, net.num_links(), &sc->mask2);
  net::Semilightpath p1 = optimal_semilightpath(net, s, t, sc->mask1);
  net::Semilightpath p2 = optimal_semilightpath(net, s, t, sc->mask2);
  tel.split(WDM_TEL_HIST("rwa.loadcost.liang_shen_ns"),
            WDM_TEL_NAME("rwa.loadcost.liang_shen"));
  tel.total(WDM_TEL_HIST("rwa.loadcost.route_ns"));
  if (!p1.found || !p2.found) {
    WDM_TEL_COUNT("rwa.loadcost.blocked");
    return result;
  }
  WDM_DCHECK(net::edge_disjoint(p1, p2));
  WDM_TEL_COUNT("rwa.loadcost.found");
  if (p2.cost(net) < p1.cost(net)) std::swap(p1, p2);
  result.found = true;
  result.route.found = true;
  result.route.primary = std::move(p1);
  result.route.backup = std::move(p2);
  return result;
}

}  // namespace wdm::rwa
