#include "rwa/baselines.hpp"

#include <algorithm>

#include "graph/suurballe.hpp"
#include "rwa/layered_graph.hpp"
#include "support/check.hpp"

namespace wdm::rwa {

RouteResult UnprotectedRouter::route(const net::WdmNetwork& net, net::NodeId s,
                                     net::NodeId t) const {
  RouteResult result;
  net::Semilightpath p = optimal_semilightpath(net, s, t);
  if (!p.found) return result;
  result.found = true;
  result.route.found = true;
  result.route.primary = std::move(p);
  // No backup: route.backup stays not-found, which ProtectedRoute::feasible
  // rejects — the simulator treats unprotected routes specially.
  result.route.backup = net::Semilightpath::not_found();
  return result;
}

RouteResult PhysicalFirstFitRouter::route(const net::WdmNetwork& net,
                                          net::NodeId s, net::NodeId t) const {
  RouteResult result;
  const auto& pg = net.graph();
  const auto m = static_cast<std::size_t>(pg.num_edges());
  std::vector<double> w(m, 0.0);
  std::vector<std::uint8_t> usable(m, 0);
  for (graph::EdgeId e = 0; e < pg.num_edges(); ++e) {
    if (net.available(e).empty()) continue;
    usable[static_cast<std::size_t>(e)] = 1;
    w[static_cast<std::size_t>(e)] = net.min_weight(e);
  }
  const graph::DisjointPair pair = graph::suurballe(pg, w, s, t, usable);
  if (!pair.found) return result;
  result.aux_cost = pair.total_cost();

  // The RNG (random policy only) is re-seeded per call to keep route()
  // const and deterministic for a given residual state.
  support::Rng rng(seed_ ^ (static_cast<std::uint64_t>(s) << 32) ^
                   static_cast<std::uint64_t>(t));
  net::Semilightpath p1 = assign_wavelengths(net, pair.first.edges, policy_, &rng);
  net::Semilightpath p2 =
      assign_wavelengths(net, pair.second.edges, policy_, &rng);
  if (!p1.found || !p2.found) return result;  // wavelength-blocked
  if (p2.cost(net) < p1.cost(net)) std::swap(p1, p2);
  result.found = true;
  result.route.found = true;
  result.route.primary = std::move(p1);
  result.route.backup = std::move(p2);
  return result;
}

RouteResult TwoStepRouter::route(const net::WdmNetwork& net, net::NodeId s,
                                 net::NodeId t) const {
  RouteResult result;
  net::Semilightpath p1 = optimal_semilightpath(net, s, t);
  if (!p1.found) return result;
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(net.num_links()), 1);
  for (const net::Hop& h : p1.hops) mask[static_cast<std::size_t>(h.edge)] = 0;
  net::Semilightpath p2 = optimal_semilightpath(net, s, t, mask);
  if (!p2.found) return result;
  if (p2.cost(net) < p1.cost(net)) std::swap(p1, p2);
  result.found = true;
  result.route.found = true;
  result.route.primary = std::move(p1);
  result.route.backup = std::move(p2);
  return result;
}

}  // namespace wdm::rwa
