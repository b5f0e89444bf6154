// The protection stage every policy router ends with: auxiliary graph ->
// protected route.
//
// §3.3.2, §4.1 and §4.2 all finish the same way: Find_Two_Paths on an
// auxiliary graph (G', G_c(ϑ) or G_rc(ϑ)), then each auxiliary path is
// projected to its induced physical subgraph and realized there by the
// Liang–Shen optimal semilightpath (Lemma 2). protect_on_aux is that step
// for a graph it builds; the four routers differ only in the
// AuxGraphOptions they hand the stage. The load-aware routers (§4.1, §4.2)
// enter through protect_on_theta: one load snapshot and one build at
// ϑ_max, the MinCog ϑ search on it (a physical pair check per rung, a
// Suurballe on the arena per passing rung), then realize_pair on the
// accepted rung's pair. Every Suurballe the stage runs is goal-directed by
// `sc.bound` (rwa::ArenaLowerBound): the physical graph's distances to t,
// one reverse Dijkstra over the physical links per Suurballe, bound the
// arena's from below, so both of its rounds settle only nodes on the way
// to t (graph/suurballe.hpp). The bound's time is part of the suurballe
// split.
//
// Telemetry names come from a per-router names tag, a struct of
// `static constexpr const char*` members that WDM_STAGE_NAMES defines from
// the router's prefix. Each instantiation gets its own cached-handle
// statics, so every macro sees a name that is static at its call site.
// Internal to the router implementations.
#pragma once

#include <utility>

#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/layered_graph.hpp"
#include "rwa/mincog.hpp"
#include "rwa/route_scratch.hpp"
#include "rwa/router.hpp"
#include "rwa/srlg.hpp"
#include "rwa/wavelength_assignment.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

/// Defines `Tag`, the names tag for the router whose telemetry prefix is the
/// string literal `P` (e.g. "rwa.approx."). Every member is a literal.
#define WDM_STAGE_NAMES(Tag, P)                                          \
  struct Tag {                                                           \
    static constexpr const char* kBlocked = P "blocked";                 \
    static constexpr const char* kFound = P "found";                     \
    static constexpr const char* kRouteNs = P "route_ns";                \
    static constexpr const char* kAuxBuildNs = P "aux_build_ns";         \
    static constexpr const char* kSuurballeNs = P "suurballe_ns";        \
    static constexpr const char* kLiangShenNs = P "liang_shen_ns";       \
    static constexpr const char* kThetaSearchNs = P "theta_search_ns";   \
    static constexpr const char* kThetaProbes = P "theta_probes";        \
  }

namespace wdm::rwa {

/// The MinCog search's splits for the router whose names tag is `Names`:
/// its theta_search and suurballe histograms, on `tel`.
template <class Names>
ThetaSplits theta_splits(support::telemetry::SplitTimer& tel) {
  return ThetaSplits{
      &tel,
      [](support::telemetry::SplitTimer& t) {
        t.split(WDM_TEL_HIST(Names::kThetaSearchNs));
      },
      [](support::telemetry::SplitTimer& t) {
        t.split(WDM_TEL_HIST(Names::kSuurballeNs));
      }};
}

/// Realizes the pair in `sc.pair` (found) on `aux`: with `refine`, Liang–Shen
/// inside each path's induced subgraph (refine_along_into: a sweep along
/// the projected chain, the solver under the induced mask when the walk
/// repeats a node); without, first-fit along the projected links. Only the arena's structure is read (arc -> physical
/// link), so any build of `aux`'s layout serves. Writes into `*out` in
/// place; on success the cheaper path is the primary. An infeasible
/// realization leaves `out->found` false (blocked by kRefineInfeasible).
/// Records the liang_shen split of `tel` and the route total.
template <class Names>
void realize_pair(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
                  const AuxGraph& aux, bool refine, RouteScratch& sc,
                  support::telemetry::SplitTimer& tel, RouteResult* out) {
  const graph::DisjointPair& pair = sc.pair;
  out->aux_cost = pair.total_cost();

  net::Semilightpath& p1 = out->route.primary;
  net::Semilightpath& p2 = out->route.backup;
  aux.project_into(pair.first, &sc.links1);
  aux.project_into(pair.second, &sc.links2);
  if (refine) {
    refine_along_into(net, s, t, sc.links1, sc.semilightpath, &p1);
    refine_along_into(net, s, t, sc.links2, sc.semilightpath, &p2);
  } else {
    assign_wavelengths_into(net, sc.links1, WaPolicy::kFirstFit, nullptr, &p1);
    assign_wavelengths_into(net, sc.links2, WaPolicy::kFirstFit, nullptr, &p2);
  }
  tel.split(WDM_TEL_HIST(Names::kLiangShenNs));
  tel.total(WDM_TEL_HIST(Names::kRouteNs));
  if (!p1.found || !p2.found) {
    // Outside assumption (i) a transit arc only certifies per-adjacent-pair
    // convertibility, not a consistent end-to-end wavelength assignment, so
    // the induced subgraph can be infeasible. Treat as blocked.
    WDM_TEL_COUNT(Names::kBlocked);
    out->blocked_by = BlockedBy::kRefineInfeasible;
    return;
  }
  WDM_DCHECK(net::edge_disjoint(p1, p2));
  WDM_TEL_COUNT(Names::kFound);
  if (p2.cost(net) < p1.cost(net)) std::swap(p1, p2);
  out->found = true;
  out->route.found = true;
}

/// Builds the auxiliary graph for `opt` through `sc.builder`, finds the pair
/// (the SRLG conflict-set search under kSrlg on a network with groups,
/// Suurballe goal-directed by `sc.bound` otherwise) into `sc.pair`, and
/// realizes it (realize_pair).
/// No pair leaves `out->found` false (blocked by kNoAuxPair, or
/// kSrlgCandidateCap when the SRLG search hit its budget). Records the
/// aux_build / suurballe splits of `tel`, then realize_pair's.
template <class Names>
void protect_on_aux(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
                    const AuxGraphOptions& opt, net::ProtectPolicy policy,
                    bool refine, RouteScratch& sc,
                    support::telemetry::SplitTimer& tel, RouteResult* out) {
  const AuxGraph& aux = sc.builder.build(net, s, t, opt);
  tel.split(WDM_TEL_HIST(Names::kAuxBuildNs));

  if (policy.kind == net::ProtectKind::kSrlg && net.num_srlgs() > 0) {
    SrlgPairResult sp = srlg_disjoint_pair(net, aux);
    sc.pair = std::move(sp.pair);
    out->srlg_exhaustive = sp.exhaustive;
  } else {
    graph::suurballe_into(aux.g, aux.w, aux.s_prime, aux.t_second, {},
                          &sc.suurballe, &sc.pair,
                          sc.bound.compute(net, aux, s, t));
  }
  tel.split(WDM_TEL_HIST(Names::kSuurballeNs));
  if (!sc.pair.found) {
    WDM_TEL_COUNT(Names::kBlocked);
    tel.total(WDM_TEL_HIST(Names::kRouteNs));
    // No two edge-disjoint routes exist in the auxiliary graph, unless the
    // SRLG search stopped at its candidate budget without proving it.
    out->blocked_by = (policy.kind == net::ProtectKind::kSrlg &&
                       net.num_srlgs() > 0 && !out->srlg_exhaustive)
                          ? BlockedBy::kSrlgCandidateCap
                          : BlockedBy::kNoAuxPair;
    return;
  }
  realize_pair<Names>(net, s, t, aux, refine, sc, tel, out);
}

/// The load-aware routers' stage (§4.1, §4.2). Builds the router's one
/// auxiliary graph, `aopt` (G_c or G_rc; its theta is ignored) at the
/// network's ϑ_max, and runs the MinCog ϑ search on it: a physical
/// link-disjoint pair check per rung and, on each rung that passes,
/// Suurballe on the arena cut to the rung's open links (those whose
/// net.residual_loads() entry is below ϑ, through `sc.bound`) into
/// `sc.pair`. The
/// accepted rung's pair is bit-identical to Suurballe on a fresh build at
/// ϑ, and realize_pair refines it on the same arena; the stage runs no
/// Suurballe of its own. Under kSrlg on a network with groups the
/// conflict-set search takes no cut, so G_x(ϑ) is rebuilt
/// through protect_on_aux. Records ϑ, the probe count and the aux_build /
/// theta_search / suurballe / liang_shen splits (the search closes the
/// theta_search and suurballe splits itself, one suurballe sample per
/// Suurballe); an exhausted search leaves `out->found` false (blocked by
/// kThetaExhausted).
template <class Names>
void protect_on_theta(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
                      const MinCogOptions& opt, AuxGraphOptions aopt,
                      net::ProtectPolicy policy, RouteScratch& sc,
                      support::telemetry::SplitTimer& tel, RouteResult* out) {
  aopt.theta = net.theta_max();
  const AuxGraph& aux = sc.builder.build(net, s, t, aopt);
  tel.split(WDM_TEL_HIST(Names::kAuxBuildNs));
  const MinCogResult mc =
      mincog_search(net, s, t, aux, opt, &sc.bound, &sc.suurballe, &sc.pair,
                    theta_splits<Names>(tel));
  out->theta = mc.theta;
  out->theta_iterations = mc.iterations;
  WDM_TEL_COUNT_N(Names::kThetaProbes, mc.iterations);
  if (!mc.found) {
    WDM_TEL_COUNT(Names::kBlocked);
    tel.total(WDM_TEL_HIST(Names::kRouteNs));
    out->blocked_by = BlockedBy::kThetaExhausted;
    return;
  }
  if (policy.kind == net::ProtectKind::kSrlg && net.num_srlgs() > 0) {
    aopt.theta = mc.theta;
    protect_on_aux<Names>(net, s, t, aopt, policy, /*refine=*/true, sc, tel,
                          out);
    return;
  }
  realize_pair<Names>(net, s, t, aux, /*refine=*/true, sc, tel, out);
}

}  // namespace wdm::rwa
