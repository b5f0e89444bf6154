#include "fuzz/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "fuzz/generator.hpp"
#include "graph/mincostflow.hpp"
#include "graph/suurballe.hpp"
#include "rwa/approx_router.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/baselines.hpp"
#include "rwa/exact_router.hpp"
#include "rwa/ilp_router.hpp"
#include "rwa/loadcost_router.hpp"
#include "rwa/mincog.hpp"
#include "rwa/node_disjoint_router.hpp"

namespace wdm::fuzz {

namespace {

void add(std::vector<Violation>& out, std::string invariant, std::string router,
         std::string detail) {
  out.push_back(Violation{std::move(invariant), std::move(router),
                          std::move(detail)});
}

/// Flags any bit of difference between the load bookkeeping and the scans.
void check_load_bookkeeping(const net::WdmNetwork& net, const char* after,
                            const std::string& router,
                            std::vector<Violation>& out) {
  const double rho = scan_network_load(net);
  const double mean = scan_mean_load(net);
  if (net.network_load() != rho || net.mean_load() != mean) {
    std::ostringstream d;
    d.precision(17);
    d << "after " << after << ": network_load() " << net.network_load()
      << " / mean_load() " << net.mean_load() << " != scanned " << rho
      << " / " << mean;
    add(out, "rho-recompute", router, d.str());
  }
}

/// Structural re-check of one semilightpath from raw tables: contiguity,
/// endpoints, installation, residual availability, conversion legality.
/// Returns false (with a violation) on the first defect.
bool check_path_structure(const net::WdmNetwork& net,
                          const net::Semilightpath& p, net::NodeId s,
                          net::NodeId t, const std::string& router,
                          const char* which, std::vector<Violation>& out) {
  const auto& g = net.graph();
  if (!p.found || p.hops.empty()) {
    add(out, "structure", router, std::string(which) + " path marked found but empty");
    return false;
  }
  for (std::size_t i = 0; i < p.hops.size(); ++i) {
    const net::Hop& h = p.hops[i];
    std::ostringstream where;
    where << which << " hop " << i << " (edge " << h.edge << ", λ" << h.lambda
          << ")";
    if (!g.valid_edge(h.edge) || h.lambda < 0 || h.lambda >= net.W()) {
      add(out, "structure", router, where.str() + ": invalid edge/wavelength");
      return false;
    }
    if (!net.installed(h.edge).contains(h.lambda)) {
      add(out, "structure", router, where.str() + ": λ not installed on link");
      return false;
    }
    if (net.link_failed(h.edge)) {
      add(out, "structure", router, where.str() + ": link is failed");
      return false;
    }
    if (net.is_used(h.edge, h.lambda)) {
      add(out, "structure", router,
          where.str() + ": wavelength already reserved (not in residual)");
      return false;
    }
    if (i + 1 < p.hops.size()) {
      const net::Hop& nx = p.hops[i + 1];
      if (g.head(h.edge) != g.tail(nx.edge)) {
        add(out, "structure", router, where.str() + ": hops not contiguous");
        return false;
      }
      // Wavelength continuity: a change across the intermediate node is a
      // conversion and must be allowed by that node's table.
      const net::NodeId mid = g.head(h.edge);
      if (h.lambda != nx.lambda &&
          !net.conversion(mid).allowed(h.lambda, nx.lambda)) {
        add(out, "continuity", router,
            where.str() + ": conversion λ" + std::to_string(h.lambda) + "->λ" +
                std::to_string(nx.lambda) + " not allowed at node " +
                std::to_string(mid));
        return false;
      }
    }
  }
  if (g.tail(p.hops.front().edge) != s || g.head(p.hops.back().edge) != t) {
    add(out, "endpoints", router,
        std::string(which) + " path does not run s->t");
    return false;
  }
  return true;
}

std::set<graph::NodeId> internal_nodes(const net::WdmNetwork& net,
                                       const net::Semilightpath& p) {
  std::set<graph::NodeId> ns;
  for (std::size_t i = 0; i + 1 < p.hops.size(); ++i) {
    ns.insert(net.graph().head(p.hops[i].edge));
  }
  return ns;
}

bool same_semilightpath(const net::Semilightpath& a,
                        const net::Semilightpath& b) {
  if (a.found != b.found || a.hops.size() != b.hops.size()) return false;
  for (std::size_t i = 0; i < a.hops.size(); ++i) {
    if (a.hops[i].edge != b.hops[i].edge ||
        a.hops[i].lambda != b.hops[i].lambda) {
      return false;
    }
  }
  return true;
}

bool same_route(const rwa::RouteResult& a, const rwa::RouteResult& b) {
  return a.found == b.found &&
         same_semilightpath(a.route.primary, b.route.primary) &&
         same_semilightpath(a.route.backup, b.route.backup);
}

bool path_touches_group(const net::Semilightpath& p,
                        const std::vector<graph::EdgeId>& members) {
  for (const net::Hop& h : p.hops) {
    if (std::find(members.begin(), members.end(), h.edge) != members.end()) {
      return true;
    }
  }
  return false;
}

/// 1 - Π(1 - p_g) over raw group membership: deliberately never calls
/// WdmNetwork::link_failure_probability / srlgs_of_link.
double independent_failure_probability(const net::WdmNetwork& net,
                                       graph::EdgeId e) {
  double survive = 1.0;
  for (int g = 0; g < net.num_srlgs(); ++g) {
    const net::Srlg& grp = net.srlg(g);
    if (std::find(grp.links.begin(), grp.links.end(), e) != grp.links.end()) {
      survive *= 1.0 - grp.failure_probability;
    }
  }
  return 1.0 - survive;
}

}  // namespace

double recompute_cost_eq1(const net::WdmNetwork& net,
                          const net::Semilightpath& p) {
  double c = 0.0;
  for (std::size_t i = 0; i < p.hops.size(); ++i) {
    c += net.weight(p.hops[i].edge, p.hops[i].lambda);
    if (i + 1 < p.hops.size()) {
      c += net.conversion(net.graph().head(p.hops[i].edge))
               .cost(p.hops[i].lambda, p.hops[i + 1].lambda);
    }
  }
  return c;
}

void check_route_result(const FuzzInstance& inst, const rwa::RouteResult& r,
                        const std::string& router, bool requires_backup,
                        bool requires_node_disjoint, bool check_aux_bound,
                        double eps, std::vector<Violation>& out) {
  if (!r.found) return;
  const net::WdmNetwork& net = inst.network;

  bool ok = check_path_structure(net, r.route.primary, inst.s, inst.t, router,
                                 "primary", out);
  if (requires_backup) {
    ok = check_path_structure(net, r.route.backup, inst.s, inst.t, router,
                              "backup", out) &&
         ok;
  }
  if (!ok) return;

  // Edge-disjointness (§2): share no directed physical link.
  if (requires_backup) {
    std::set<graph::EdgeId> pe;
    for (const net::Hop& h : r.route.primary.hops) pe.insert(h.edge);
    for (const net::Hop& h : r.route.backup.hops) {
      if (pe.count(h.edge)) {
        add(out, "edge-disjoint", router,
            "primary and backup share link " + std::to_string(h.edge));
        return;
      }
    }
    // Differential: the library's own feasibility predicate must agree with
    // the independent re-derivation above.
    if (!r.route.feasible(net)) {
      add(out, "feasible-predicate", router,
          "ProtectedRoute::feasible disagrees with independent checks");
      return;
    }
  }

  if (requires_node_disjoint) {
    const auto a = internal_nodes(net, r.route.primary);
    const auto b = internal_nodes(net, r.route.backup);
    for (graph::NodeId v : a) {
      if (b.count(v)) {
        add(out, "node-disjoint", router,
            "paths share intermediate node " + std::to_string(v));
      }
    }
  }

  // Independent Eq. (1) re-accounting of each path and of the total.
  double total = 0.0;
  const net::Semilightpath* paths[2] = {&r.route.primary, &r.route.backup};
  const char* names[2] = {"primary", "backup"};
  for (int i = 0; i < (requires_backup ? 2 : 1); ++i) {
    const double independent = recompute_cost_eq1(net, *paths[i]);
    const double library = paths[i]->cost(net);
    if (std::abs(independent - library) > eps) {
      std::ostringstream d;
      d << names[i] << " Eq.(1) mismatch: independent " << independent
        << " vs Semilightpath::cost " << library;
      add(out, "cost-accounting", router, d.str());
    }
    total += independent;
  }
  if (requires_backup && std::abs(total - r.total_cost(net)) > eps) {
    std::ostringstream d;
    d << "total_cost " << r.total_cost(net) << " != independent sum " << total;
    add(out, "cost-accounting", router, d.str());
  }

  // Lemma 2: delivered cost bounded by the auxiliary-graph pair weight.
  if (check_aux_bound && !std::isnan(r.aux_cost) && requires_backup) {
    if (total > r.aux_cost + eps) {
      std::ostringstream d;
      d << "delivered cost " << total << " exceeds aux-graph bound "
        << r.aux_cost << " (Lemma 2)";
      add(out, "aux-bound", router, d.str());
    }
  }

  // Version 2 threshold: every link the route uses had load < ϑ when the
  // G_c / G_rc filter admitted it.
  if (!std::isnan(r.theta) && requires_backup) {
    for (int i = 0; i < 2; ++i) {
      for (const net::Hop& h : paths[i]->hops) {
        if (net.link_load(h.edge) >= r.theta) {
          std::ostringstream d;
          d << names[i] << " uses link " << h.edge << " with load "
            << net.link_load(h.edge) << " >= accepted ϑ " << r.theta;
          add(out, "theta-filter", router, d.str());
        }
      }
    }
  }

  // Reservation accounting: reserve the route in a copy, recompute per-link
  // usage and ρ (Eq. 2) independently, release, and verify no leak. Along
  // the way the load bookkeeping must equal the scans bit for bit after
  // every kind of mutation: reserve, fail and repair, restore_usage and
  // release.
  net::WdmNetwork copy = net;  // value semantics: full state copy
  const long long usage_before = copy.total_usage();
  const std::vector<std::uint64_t> snapshot = copy.usage_snapshot();
  check_load_bookkeeping(copy, "copy", router, out);
  std::vector<int> extra(static_cast<std::size_t>(copy.num_links()), 0);
  for (int i = 0; i < (requires_backup ? 2 : 1); ++i) {
    paths[i]->reserve_in(copy);
    for (const net::Hop& h : paths[i]->hops) {
      ++extra[static_cast<std::size_t>(h.edge)];
    }
  }
  double rho = 0.0;
  for (graph::EdgeId e = 0; e < copy.num_links(); ++e) {
    // Recount in-use wavelengths bit by bit rather than trusting usage().
    int used = 0;
    for (net::Wavelength l = 0; l < copy.W(); ++l) {
      if (copy.installed(e).contains(l) && copy.is_used(e, l)) ++used;
    }
    const int expect = net.usage(e) + extra[static_cast<std::size_t>(e)];
    if (used != expect) {
      std::ostringstream d;
      d << "link " << e << " usage after reserve is " << used << ", expected "
        << expect;
      add(out, "rho-recompute", router, d.str());
    }
    rho = std::max(rho, static_cast<double>(used) /
                            static_cast<double>(copy.capacity(e)));
  }
  if (rho != copy.network_load()) {
    std::ostringstream d;
    d << "network_load() " << copy.network_load()
      << " != independently recomputed ρ " << rho;
    add(out, "rho-recompute", router, d.str());
  }
  check_load_bookkeeping(copy, "reserve", router, out);
  // A cut keeps its reservations: neither U nor N moves.
  const graph::EdgeId cut = paths[0]->hops.front().edge;
  copy.set_link_failed(cut, true);
  check_load_bookkeeping(copy, "fail", router, out);
  copy.set_link_failed(cut, false);
  check_load_bookkeeping(copy, "repair", router, out);
  const std::vector<std::uint64_t> reserved = copy.usage_snapshot();
  copy.restore_usage(snapshot);
  check_load_bookkeeping(copy, "restore_usage to before", router, out);
  copy.restore_usage(reserved);
  check_load_bookkeeping(copy, "restore_usage to reserved", router, out);
  for (int i = 0; i < (requires_backup ? 2 : 1); ++i) {
    paths[i]->release_in(copy);
    check_load_bookkeeping(copy, "release", router, out);
  }
  if (copy.total_usage() != usage_before) {
    add(out, "rho-recompute", router, "reserve/release leaked usage");
  }
}

double scan_network_load(const net::WdmNetwork& net) {
  double rho = 0.0;
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    rho = std::max(rho, net.link_load(e));
  }
  return rho;
}

double scan_mean_load(const net::WdmNetwork& net) {
  if (net.num_links() == 0) return 0.0;
  double s = 0.0;
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) s += net.link_load(e);
  return s / static_cast<double>(net.num_links());
}

void check_srlg_disjoint(const FuzzInstance& inst, const rwa::RouteResult& r,
                         const std::string& router,
                         std::vector<Violation>& out) {
  if (!r.found) return;
  const net::WdmNetwork& net = inst.network;
  for (int g = 0; g < net.num_srlgs(); ++g) {
    const net::Srlg& grp = net.srlg(g);
    if (path_touches_group(r.route.primary, grp.links) &&
        path_touches_group(r.route.backup, grp.links)) {
      add(out, "srlg-disjoint", router,
          "primary and backup both traverse SRLG " + std::to_string(g));
    }
  }
}

void check_partial_coverage(const FuzzInstance& inst, const rwa::RouteResult& r,
                            double threshold, const std::string& router,
                            std::vector<Violation>& out) {
  if (!r.found) return;
  const net::WdmNetwork& net = inst.network;

  std::vector<graph::EdgeId> risky;
  for (const net::Hop& h : r.route.primary.hops) {
    if (independent_failure_probability(net, h.edge) > threshold) {
      risky.push_back(h.edge);
    }
  }

  if (!r.route.backup.found) {
    if (!risky.empty()) {
      add(out, "partial-coverage", router,
          "primary carries " + std::to_string(risky.size()) +
              " risky link(s) above threshold " + std::to_string(threshold) +
              " but no backup was provisioned");
    }
    return;
  }

  // Conflict closure of the risky set, re-derived from raw group storage:
  // the risky links plus everything sharing a group with one of them.
  std::vector<std::uint8_t> forbidden(
      static_cast<std::size_t>(net.num_links()), 0);
  for (graph::EdgeId e : risky) forbidden[static_cast<std::size_t>(e)] = 1;
  for (int g = 0; g < net.num_srlgs(); ++g) {
    const net::Srlg& grp = net.srlg(g);
    const bool hit = std::find_first_of(grp.links.begin(), grp.links.end(),
                                        risky.begin(), risky.end()) !=
                     grp.links.end();
    if (!hit) continue;
    for (graph::EdgeId e : grp.links) {
      forbidden[static_cast<std::size_t>(e)] = 1;
    }
  }

  for (const net::Hop& h : r.route.backup.hops) {
    if (forbidden[static_cast<std::size_t>(h.edge)]) {
      add(out, "partial-coverage", router,
          "backup traverses link " + std::to_string(h.edge) +
              " which is risky (or shares a group with a risky primary link)");
    }
    for (const net::Hop& ph : r.route.primary.hops) {
      if (ph.edge == h.edge && ph.lambda == h.lambda) {
        add(out, "partial-coverage", router,
            "backup shares channel (link " + std::to_string(h.edge) + ", λ" +
                std::to_string(h.lambda) + ") with the primary");
      }
    }
  }

  if (!r.route.feasible(net)) {
    add(out, "feasible-predicate", router,
        "partial route fails ProtectedRoute::feasible");
  }
}

std::optional<bool> srlg_pair_exists_bruteforce(const net::WdmNetwork& net,
                                                net::NodeId s, net::NodeId t,
                                                int max_nodes, int max_links,
                                                long max_paths) {
  if (net.num_nodes() > max_nodes || net.num_links() > max_links) {
    return std::nullopt;
  }
  if (!all_nodes_full_conversion(net)) return std::nullopt;

  // Usable = carries at least one free wavelength (empty when failed). Under
  // full conversion any simple path over usable links is realizable, and an
  // edge-disjoint pair never competes for the same link's wavelengths.
  std::vector<std::vector<std::pair<graph::EdgeId, net::NodeId>>> adj(
      static_cast<std::size_t>(net.num_nodes()));
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    if (net.available(e).count() > 0) {
      adj[static_cast<std::size_t>(net.graph().tail(e))].emplace_back(
          e, net.graph().head(e));
    }
  }

  std::vector<std::vector<graph::EdgeId>> paths;
  std::vector<graph::EdgeId> stack;
  std::vector<char> visited(static_cast<std::size_t>(net.num_nodes()), 0);
  bool overflow = false;
  auto dfs = [&](auto&& self, net::NodeId v) -> void {
    if (overflow) return;
    if (v == t) {
      if (static_cast<long>(paths.size()) >= max_paths) {
        overflow = true;
      } else {
        paths.push_back(stack);
      }
      return;
    }
    visited[static_cast<std::size_t>(v)] = 1;
    for (const auto& [e, w] : adj[static_cast<std::size_t>(v)]) {
      if (visited[static_cast<std::size_t>(w)]) continue;
      stack.push_back(e);
      self(self, w);
      stack.pop_back();
    }
    visited[static_cast<std::size_t>(v)] = 0;
  };
  dfs(dfs, s);
  if (overflow) return std::nullopt;

  // Group signature per path, from raw member lists.
  std::vector<std::vector<int>> groups(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (int g = 0; g < net.num_srlgs(); ++g) {
      const net::Srlg& grp = net.srlg(g);
      if (std::find_first_of(grp.links.begin(), grp.links.end(),
                             paths[i].begin(),
                             paths[i].end()) != grp.links.end()) {
        groups[i].push_back(g);
      }
    }
  }

  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t j = i + 1; j < paths.size(); ++j) {
      const bool edge_overlap =
          std::find_first_of(paths[i].begin(), paths[i].end(),
                             paths[j].begin(),
                             paths[j].end()) != paths[i].end();
      if (edge_overlap) continue;
      const bool group_overlap =
          std::find_first_of(groups[i].begin(), groups[i].end(),
                             groups[j].begin(),
                             groups[j].end()) != groups[i].end();
      if (!group_overlap) return true;
    }
  }
  return false;
}

std::vector<Violation> check_instance(const FuzzInstance& inst,
                                      const CheckOptions& opt) {
  std::vector<Violation> out;
  const net::WdmNetwork& net = inst.network;
  const bool full_conv = all_nodes_full_conversion(net);
  const bool thm2 = in_theorem2_regime(net);

  // --- Route-level invariants over the whole router suite. ---
  const rwa::ApproxDisjointRouter approx;
  const rwa::ApproxDisjointRouter approx_norefine(false);
  const rwa::NodeDisjointRouter node_disjoint;
  const rwa::MinLoadRouter minload;
  const rwa::LoadCostRouter loadcost;
  const rwa::UnprotectedRouter unprotected;
  const rwa::PhysicalFirstFitRouter physff;
  const rwa::TwoStepRouter twostep;

  const rwa::RouteResult approx_r = approx.route(net, inst.s, inst.t);
  check_route_result(inst, approx_r, approx.name(), true, false,
                     /*check_aux_bound=*/thm2, opt.eps, out);
  check_route_result(inst, approx_norefine.route(net, inst.s, inst.t),
                     approx_norefine.name(), true, false, false, opt.eps, out);
  check_route_result(inst, node_disjoint.route(net, inst.s, inst.t),
                     node_disjoint.name(), true, true, false, opt.eps, out);
  check_route_result(inst, minload.route(net, inst.s, inst.t), minload.name(),
                     true, false, false, opt.eps, out);
  check_route_result(inst, loadcost.route(net, inst.s, inst.t),
                     loadcost.name(), true, false, false, opt.eps, out);
  check_route_result(inst, unprotected.route(net, inst.s, inst.t),
                     unprotected.name(), false, false, false, opt.eps, out);
  check_route_result(inst, physff.route(net, inst.s, inst.t), physff.name(),
                     true, false, false, opt.eps, out);
  check_route_result(inst, twostep.route(net, inst.s, inst.t), twostep.name(),
                     true, false, false, opt.eps, out);
  for (const rwa::Router* extra : opt.extra_routers) {
    check_route_result(inst, extra->route(net, inst.s, inst.t), extra->name(),
                       true, false, /*check_aux_bound=*/thm2, opt.eps, out);
  }

  // --- SRLG-aware protection policies. ---
  {
    const rwa::ApproxDisjointRouter approx_srlg(true,
                                                net::ProtectPolicy::srlg());
    const rwa::RouteResult srlg_r = approx_srlg.route(net, inst.s, inst.t);
    check_route_result(inst, srlg_r, "approx[srlg]", true, false, false,
                       opt.eps, out);
    check_srlg_disjoint(inst, srlg_r, "approx[srlg]", out);

    // Differential: on an SRLG-free network the kSrlg policy must be
    // bit-for-bit the default (kFull) router's output.
    if (net.num_srlgs() == 0 && !same_route(approx_r, srlg_r)) {
      add(out, "srlg-free-identity", "approx[srlg]",
          "kSrlg output differs from kFull on a network with no SRLGs");
    }

    const rwa::NodeDisjointRouter nd_srlg(net::ProtectPolicy::srlg());
    const rwa::RouteResult nd_r = nd_srlg.route(net, inst.s, inst.t);
    check_route_result(inst, nd_r, "node-disjoint[srlg]", true, true, false,
                       opt.eps, out);
    check_srlg_disjoint(inst, nd_r, "node-disjoint[srlg]", out);

    const rwa::MinLoadRouter ml_srlg({}, net::ProtectPolicy::srlg());
    const rwa::RouteResult ml_r = ml_srlg.route(net, inst.s, inst.t);
    check_route_result(inst, ml_r, "minload[srlg]", true, false, false,
                       opt.eps, out);
    check_srlg_disjoint(inst, ml_r, "minload[srlg]", out);

    const rwa::LoadCostRouter lc_srlg({}, false, net::ProtectPolicy::srlg());
    const rwa::RouteResult lc_r = lc_srlg.route(net, inst.s, inst.t);
    check_route_result(inst, lc_r, "load+cost[srlg]", true, false, false,
                       opt.eps, out);
    check_srlg_disjoint(inst, lc_r, "load+cost[srlg]", out);

    // Completeness: a blocked result claiming an exhausted search must agree
    // with the brute-force pair enumeration. Only the cost-optimal approx
    // router makes that claim soundly (the load-aware routers restrict
    // themselves to G_rc(ϑ) and may block routable requests by design).
    if (net.num_srlgs() > 0 && !srlg_r.found && srlg_r.srlg_exhaustive &&
        full_conv && opt.run_exact) {
      const std::optional<bool> exists = srlg_pair_exists_bruteforce(
          net, inst.s, inst.t, opt.srlg_exact_max_nodes,
          opt.srlg_exact_max_links, opt.srlg_exact_max_paths);
      if (exists && *exists) {
        add(out, "srlg-completeness", "approx[srlg]",
            "router reported an exhaustive block but an SRLG-disjoint "
            "realizable pair exists");
      }
    }

    // Partial protection at a strict and a permissive threshold.
    for (const double th : {0.0, 0.25}) {
      const rwa::ApproxDisjointRouter part(true,
                                           net::ProtectPolicy::partial(th));
      const rwa::RouteResult pr = part.route(net, inst.s, inst.t);
      check_route_result(inst, pr, "approx[partial]", /*requires_backup=*/false,
                         false, false, opt.eps, out);
      check_partial_coverage(inst, pr, th, "approx[partial]", out);
    }
  }

  // --- Exact oracles (gated by instance size). ---
  const bool exact_ok = opt.run_exact &&
                        net.num_nodes() <= opt.exact_max_nodes &&
                        net.num_links() <= opt.exact_max_links;
  rwa::ExactResult exact;
  if (exact_ok) {
    rwa::ExactOptions eopt;
    eopt.max_candidates = opt.exact_max_candidates;
    exact = rwa::exact_disjoint_pair(net, inst.s, inst.t, eopt);
  }

  // Existence + optimality agreement is sound when every node has full
  // conversion: then G' is exact on existence, every walk shortcuts to a
  // simple path, and the enumeration optimum is the global optimum.
  if (exact_ok && exact.proven_optimal && full_conv) {
    if (approx_r.found != exact.result.found) {
      add(out, "approx-vs-exact-existence", "",
          std::string("approx ") + (approx_r.found ? "found" : "blocked") +
              " but exact " + (exact.result.found ? "found" : "blocked") +
              " under full conversion");
    }
    // The cost comparisons additionally need the Theorem 2 assumptions:
    // they guarantee any walk shortcuts to a simple path at no extra cost,
    // making the simple-pair enumeration optimum a true global optimum.
    if (approx_r.found && exact.result.found && thm2) {
      const double a = approx_r.total_cost(net);
      const double x = exact.result.total_cost(net);
      if (a < x - opt.eps) {
        std::ostringstream d;
        d << "approx cost " << a << " beats proven optimum " << x;
        add(out, "exact-lower-bound", "", d.str());
      }
      if (a > 2.0 * x + opt.eps) {
        std::ostringstream d;
        d << "approx cost " << a << " > 2 x optimum " << x
          << " inside the Theorem 2 assumptions";
        add(out, "theorem2-ratio", "", d.str());
      }
    }
  }

  // ILP vs enumeration (both are simple-pair-exact; must agree).
  if (exact_ok && exact.proven_optimal && opt.run_ilp &&
      net.num_nodes() <= opt.ilp_max_nodes &&
      net.W() <= opt.ilp_max_wavelengths) {
    const rwa::IlpRouteResult ilp = rwa::ilp_disjoint_pair(net, inst.s, inst.t);
    if (ilp.result.found != exact.result.found) {
      add(out, "ilp-vs-exact", "",
          std::string("ILP ") + (ilp.result.found ? "found" : "blocked") +
              " but enumeration " +
              (exact.result.found ? "found" : "blocked"));
    } else if (ilp.result.found &&
               std::abs(ilp.result.total_cost(net) -
                        exact.result.total_cost(net)) > 1e-4) {
      std::ostringstream d;
      d << "ILP optimum " << ilp.result.total_cost(net)
        << " != enumeration optimum " << exact.result.total_cost(net);
      add(out, "ilp-vs-exact", "", d.str());
    }
  }

  // Suurballe vs min-cost-flow (k=2) on the auxiliary graph G': independent
  // algorithms, identical optimum.
  {
    rwa::AuxGraphOptions aopt;
    aopt.weighting = rwa::AuxWeighting::kCost;
    const rwa::AuxGraph aux =
        rwa::build_aux_graph(net, inst.s, inst.t, aopt);
    const graph::DisjointPair sb =
        graph::suurballe(aux.g, aux.w, aux.s_prime, aux.t_second);
    const auto mcf = graph::min_cost_disjoint_paths(aux.g, aux.w, aux.s_prime,
                                                    aux.t_second, 2);
    if (sb.found != mcf.has_value()) {
      add(out, "suurballe-vs-mcf", "",
          std::string("Suurballe ") + (sb.found ? "found" : "blocked") +
              " but min-cost flow " + (mcf ? "found" : "blocked"));
    } else if (sb.found) {
      const double mcf_cost = (*mcf)[0].cost + (*mcf)[1].cost;
      if (std::abs(sb.total_cost() - mcf_cost) > 1e-6) {
        std::ostringstream d;
        d << "Suurballe pair weight " << sb.total_cost()
          << " != min-cost-flow weight " << mcf_cost;
        add(out, "suurballe-vs-mcf", "", d.str());
      }
    }
  }

  return out;
}

}  // namespace wdm::fuzz
