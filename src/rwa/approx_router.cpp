#include "rwa/approx_router.hpp"

#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/baselines.hpp"
#include "rwa/layered_graph.hpp"
#include "rwa/srlg.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {

void ApproxDisjointRouter::route_into(const net::WdmNetwork& net, net::NodeId s,
                                      net::NodeId t, RouteResult* out,
                                      RouteFootprint* fp) const {
  if (fp != nullptr) fp->mark_opaque();
  out->reset_keep_capacity();
  if (policy_.kind == net::ProtectKind::kPartial) {
    *out = route_partial(net, s, t, policy_.threshold);
    return;
  }
  WDM_TEL_COUNT("rwa.approx.attempts");
  WDM_TEL_SPAN(tel_span, "rwa.approx.route");
  support::telemetry::SplitTimer tel;
  out->route.policy = policy_;
  const bool srlg_path =
      policy_.kind == net::ProtectKind::kSrlg && net.num_srlgs() > 0;
  if (fp != nullptr && !srlg_path) {
    // G' is a pure function of the cost channel; everything downstream of
    // the pair reads only the induced masks, added below.
    fp->begin();
    fp->cost_semantics = true;
  }
  AuxGraphOptions opt;
  opt.weighting = AuxWeighting::kCost;
  auto sc = scratch_.lease(net);
  const AuxGraph& aux = sc->builder.build(net, s, t, opt);
  tel.split(WDM_TEL_HIST("rwa.approx.aux_build_ns"),
            WDM_TEL_NAME("rwa.approx.aux_build"));

  if (srlg_path) {
    SrlgPairResult sp = srlg_disjoint_pair(net, aux);
    sc->pair = std::move(sp.pair);
    out->srlg_exhaustive = sp.exhaustive;
  } else {
    graph::suurballe_into(aux.g, aux.w, aux.s_prime, aux.t_second, {},
                          &sc->suurballe, &sc->pair);
  }
  graph::DisjointPair& pair = sc->pair;
  tel.split(WDM_TEL_HIST("rwa.approx.suurballe_ns"),
            WDM_TEL_NAME("rwa.approx.suurballe"));
  if (!pair.found) {
    WDM_TEL_COUNT("rwa.approx.blocked");
    tel.total(WDM_TEL_HIST("rwa.approx.route_ns"));
    return;  // no two edge-disjoint routes exist in G'
  }
  out->aux_cost = pair.total_cost();

  // Projection + realization. With refinement (Lemma 2): per-subgraph
  // optimal semilightpath. Without: first-fit wavelength assignment along
  // the projected link sequence, written straight into the recycled result.
  net::Semilightpath& p1 = out->route.primary;
  net::Semilightpath& p2 = out->route.backup;
  if (refine_) {
    aux.induced_link_mask_into(pair.first, net.num_links(), &sc->mask1);
    aux.induced_link_mask_into(pair.second, net.num_links(), &sc->mask2);
    if (fp != nullptr && !fp->opaque) {
      fp->add_exact_mask(sc->mask1);
      fp->add_exact_mask(sc->mask2);
    }
    p1 = optimal_semilightpath(net, s, t, sc->mask1);
    p2 = optimal_semilightpath(net, s, t, sc->mask2);
  } else {
    aux.project_into(pair.first, &sc->links1);
    aux.project_into(pair.second, &sc->links2);
    if (fp != nullptr && !fp->opaque) {
      for (graph::EdgeId e : sc->links1) fp->add_exact_link(e);
      for (graph::EdgeId e : sc->links2) fp->add_exact_link(e);
    }
    assign_wavelengths_into(net, sc->links1, WaPolicy::kFirstFit, nullptr, &p1);
    assign_wavelengths_into(net, sc->links2, WaPolicy::kFirstFit, nullptr, &p2);
  }
  tel.split(WDM_TEL_HIST("rwa.approx.liang_shen_ns"),
            WDM_TEL_NAME("rwa.approx.liang_shen"));
  tel.total(WDM_TEL_HIST("rwa.approx.route_ns"));
  if (!p1.found || !p2.found) {
    // Outside assumption (i) a transit arc only certifies per-adjacent-pair
    // convertibility, not a consistent end-to-end wavelength assignment, so
    // the induced subgraph can be infeasible. Treat as blocked.
    WDM_TEL_COUNT("rwa.approx.blocked");
    return;
  }
  WDM_DCHECK(net::edge_disjoint(p1, p2));
  WDM_TEL_COUNT("rwa.approx.found");
  out->found = true;
  if (p2.cost(net) < p1.cost(net)) std::swap(p1, p2);
  out->route.found = true;
}

}  // namespace wdm::rwa
