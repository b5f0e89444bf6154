#include "rwa/srlg.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/yen.hpp"
#include "rwa/layered_graph.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {

namespace {

/// Upper bound on Yen candidate primaries tried before giving up. The result
/// is exact whenever the enumeration closes (see SrlgPairResult::exhaustive).
constexpr int kMaxPrimaryCandidates = 32;

/// Physical links traversed by `p`, deduplicated.
std::vector<graph::EdgeId> projected_links(const AuxGraph& aux,
                                           const graph::Path& p) {
  std::vector<graph::EdgeId> links = aux.project(p);
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  return links;
}

/// Marks every physical link that conflicts with `links` under SRLG
/// semantics: the links themselves plus any link sharing a group with one.
std::vector<std::uint8_t> conflict_links(const net::WdmNetwork& net,
                                         std::span<const graph::EdgeId> links) {
  std::vector<std::uint8_t> blocked(
      static_cast<std::size_t>(net.num_links()), 0);
  std::vector<std::uint8_t> group_hit(
      static_cast<std::size_t>(net.num_srlgs()), 0);
  for (graph::EdgeId e : links) {
    blocked[static_cast<std::size_t>(e)] = 1;
    for (int g : net.srlgs_of_link(e)) {
      group_hit[static_cast<std::size_t>(g)] = 1;
    }
  }
  for (graph::EdgeId f = 0; f < net.num_links(); ++f) {
    if (blocked[static_cast<std::size_t>(f)]) continue;
    for (int g : net.srlgs_of_link(f)) {
      if (group_hit[static_cast<std::size_t>(g)]) {
        blocked[static_cast<std::size_t>(f)] = 1;
        break;
      }
    }
  }
  return blocked;
}

bool aux_paths_srlg_disjoint(const net::WdmNetwork& net, const AuxGraph& aux,
                             const graph::Path& a, const graph::Path& b) {
  const std::vector<graph::EdgeId> la = projected_links(aux, a);
  const std::vector<std::uint8_t> blocked = conflict_links(net, la);
  for (graph::EdgeId e : aux.project(b)) {
    if (blocked[static_cast<std::size_t>(e)]) return false;
  }
  return true;
}

}  // namespace

SrlgPairResult srlg_disjoint_pair(const net::WdmNetwork& net,
                                  const AuxGraph& aux) {
  SrlgPairResult out;
  const graph::DisjointPair base =
      graph::suurballe(aux.g, aux.w, aux.s_prime, aux.t_second);
  if (!base.found) {
    // No edge-disjoint pair ⇒ a fortiori no SRLG-disjoint pair.
    out.exhaustive = true;
    return out;
  }
  if (net.num_srlgs() == 0 ||
      aux_paths_srlg_disjoint(net, aux, base.first, base.second)) {
    // The minimum over edge-disjoint pairs is a lower bound on the minimum
    // over SRLG-disjoint pairs; being itself SRLG-disjoint, it is optimal.
    out.pair = base;
    out.exhaustive = true;
    return out;
  }
  WDM_TEL_COUNT("rwa.srlg.conflict_searches");

  // Conflict-set search: for each candidate primary (Yen, nondecreasing
  // cost), mask its own arcs plus every link arc in SRLG conflict with it,
  // and take the cheapest surviving backup.
  graph::KShortestPathEnumerator yen(aux.g, aux.w, aux.s_prime, aux.t_second);
  std::vector<std::uint8_t> arc_enabled;
  double best = graph::kInf;
  for (int k = 0; k < kMaxPrimaryCandidates; ++k) {
    const std::optional<graph::Path> primary = yen.next();
    if (!primary) {
      out.exhaustive = true;  // every simple auxiliary primary was tried
      break;
    }
    if (primary->cost >= best) {
      // Candidates arrive in nondecreasing cost: no later primary can
      // improve on the best total, so the search is closed.
      out.exhaustive = true;
      break;
    }
    const std::vector<graph::EdgeId> plinks = projected_links(aux, *primary);
    const std::vector<std::uint8_t> blocked = conflict_links(net, plinks);
    arc_enabled.assign(static_cast<std::size_t>(aux.g.num_edges()), 1);
    for (graph::EdgeId a = 0; a < aux.g.num_edges(); ++a) {
      const graph::EdgeId pe = aux.phys_edge_of_arc[static_cast<std::size_t>(a)];
      if (pe != graph::kInvalidEdge && blocked[static_cast<std::size_t>(pe)]) {
        arc_enabled[static_cast<std::size_t>(a)] = 0;
      }
    }
    // Masking the primary's own arcs (transit and hub arcs included) keeps
    // the pair arc-disjoint, which under the node-protection gadget also
    // preserves internal node-disjointness.
    for (graph::EdgeId a : primary->edges) {
      arc_enabled[static_cast<std::size_t>(a)] = 0;
    }
    const graph::Path backup = graph::shortest_path(
        aux.g, aux.w, aux.s_prime, aux.t_second, arc_enabled);
    if (backup.found && primary->cost + backup.cost < best) {
      best = primary->cost + backup.cost;
      out.pair.first = *primary;
      out.pair.second = backup;
      out.pair.found = true;
    }
  }
  WDM_TEL_COUNT_N("rwa.srlg.candidates", static_cast<long long>(yen.emitted()));
  return out;
}

RouteResult route_partial(const net::WdmNetwork& net, net::NodeId s,
                          net::NodeId t, double threshold) {
  WDM_TEL_COUNT("rwa.partial.attempts");
  RouteResult result;
  result.route.policy = net::ProtectPolicy::partial(threshold);

  SemilightpathWorkspace ws;
  net::Semilightpath primary;
  optimal_semilightpath_into(net, s, t, {}, ws, &primary);
  if (!primary.found) {
    WDM_TEL_COUNT("rwa.partial.blocked");
    result.blocked_by = BlockedBy::kPartialClosure;
    return result;
  }

  std::vector<graph::EdgeId> risky;
  for (const net::Hop& h : primary.hops) {
    if (net.link_failure_probability(h.edge) > threshold) {
      risky.push_back(h.edge);
    }
  }
  if (risky.empty()) {
    // Nothing on the primary is failure-prone enough: accept unprotected.
    WDM_TEL_COUNT("rwa.partial.unprotected");
    result.found = true;
    result.route.found = true;
    result.route.primary = std::move(primary);
    result.route.backup = net::Semilightpath::not_found();
    return result;
  }

  // The backup must survive the failure of any risky group: forbid the
  // risky links and everything sharing an SRLG with them. Safe links may be
  // shared with the primary, but never the same (e, λ) channel: the backup
  // searches the residual less the primary's channels.
  const std::vector<std::uint8_t> blocked = conflict_links(net, risky);
  std::vector<std::uint8_t> enabled(blocked.size());
  std::vector<net::WavelengthSet> usable(blocked.size());
  std::vector<graph::EdgeId> avoid;
  for (std::size_t e = 0; e < blocked.size(); ++e) {
    enabled[e] = blocked[e] ? 0 : 1;
    if (blocked[e]) avoid.push_back(static_cast<graph::EdgeId>(e));
    usable[e] = net.available(static_cast<graph::EdgeId>(e));
  }
  for (const net::Hop& h : primary.hops) {
    usable[static_cast<std::size_t>(h.edge)].erase(h.lambda);
  }
  LinkView view;
  view.usable = usable;
  net::Semilightpath backup;
  optimal_semilightpath_into(net, s, t, enabled, ws, &backup, view);
  if (!backup.found) {
    // A risky segment that cannot be covered blocks the request, exactly
    // like an unprotectable request under full protection.
    WDM_TEL_COUNT("rwa.partial.blocked");
    result.blocked_by = BlockedBy::kPartialClosure;
    return result;
  }
  WDM_TEL_COUNT("rwa.partial.protected");
  result.found = true;
  result.route.found = true;
  result.route.primary = std::move(primary);
  result.route.backup = std::move(backup);
  result.route.avoid = std::move(avoid);
  WDM_DCHECK(result.route.feasible(net));
  return result;
}

}  // namespace wdm::rwa
