#include "rwa/node_disjoint_router.hpp"

#include <algorithm>

#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/layered_graph.hpp"
#include "rwa/srlg.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {

RouteResult NodeDisjointRouter::route(const net::WdmNetwork& net,
                                      net::NodeId s, net::NodeId t,
                                      RouteFootprint* fp) const {
  if (fp != nullptr) fp->mark_opaque();
  if (policy_.kind == net::ProtectKind::kPartial) {
    return route_partial(net, s, t, policy_.threshold);
  }
  WDM_TEL_COUNT("rwa.node_disjoint.attempts");
  WDM_TEL_SPAN(tel_span, "rwa.node_disjoint.route");
  support::telemetry::SplitTimer tel;
  RouteResult result;
  result.route.policy = policy_;
  const bool srlg_path =
      policy_.kind == net::ProtectKind::kSrlg && net.num_srlgs() > 0;
  if (fp != nullptr && !srlg_path) {
    // The node-protection hub weights are means over transit-pair means, so
    // the gadget is still a pure function of the G' cost channel.
    fp->begin();
    fp->cost_semantics = true;
  }
  AuxGraphOptions opt;
  opt.weighting = AuxWeighting::kCost;
  opt.protect_nodes = true;
  auto sc = scratch_.lease(net);
  const AuxGraph& aux = sc->builder.build(net, s, t, opt);
  tel.split(WDM_TEL_HIST("rwa.node_disjoint.aux_build_ns"),
            WDM_TEL_NAME("rwa.node_disjoint.aux_build"));

  if (srlg_path) {
    SrlgPairResult sp = srlg_disjoint_pair(net, aux);
    sc->pair = std::move(sp.pair);
    result.srlg_exhaustive = sp.exhaustive;
  } else {
    graph::suurballe_into(aux.g, aux.w, aux.s_prime, aux.t_second, {},
                          &sc->suurballe, &sc->pair);
  }
  graph::DisjointPair& pair = sc->pair;
  tel.split(WDM_TEL_HIST("rwa.node_disjoint.suurballe_ns"),
            WDM_TEL_NAME("rwa.node_disjoint.suurballe"));
  if (!pair.found) {
    WDM_TEL_COUNT("rwa.node_disjoint.blocked");
    tel.total(WDM_TEL_HIST("rwa.node_disjoint.route_ns"));
    return result;
  }
  result.aux_cost = pair.total_cost();

  aux.induced_link_mask_into(pair.first, net.num_links(), &sc->mask1);
  aux.induced_link_mask_into(pair.second, net.num_links(), &sc->mask2);
  if (fp != nullptr && !fp->opaque) {
    fp->add_exact_mask(sc->mask1);
    fp->add_exact_mask(sc->mask2);
  }
  net::Semilightpath p1 = optimal_semilightpath(net, s, t, sc->mask1);
  net::Semilightpath p2 = optimal_semilightpath(net, s, t, sc->mask2);
  tel.split(WDM_TEL_HIST("rwa.node_disjoint.liang_shen_ns"),
            WDM_TEL_NAME("rwa.node_disjoint.liang_shen"));
  tel.total(WDM_TEL_HIST("rwa.node_disjoint.route_ns"));
  if (!p1.found || !p2.found) {
    WDM_TEL_COUNT("rwa.node_disjoint.blocked");
    return result;
  }
  WDM_DCHECK(net::edge_disjoint(p1, p2));
  WDM_TEL_COUNT("rwa.node_disjoint.found");
  if (p2.cost(net) < p1.cost(net)) std::swap(p1, p2);
  result.found = true;
  result.route.found = true;
  result.route.primary = std::move(p1);
  result.route.backup = std::move(p2);
  return result;
}

}  // namespace wdm::rwa
