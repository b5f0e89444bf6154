#include "wdm/semilightpath.hpp"

#include <unordered_set>

#include "support/check.hpp"

namespace wdm::net {

NodeId Semilightpath::source(const WdmNetwork& net) const {
  WDM_CHECK(found && !hops.empty());
  return net.graph().tail(hops.front().edge);
}

NodeId Semilightpath::destination(const WdmNetwork& net) const {
  WDM_CHECK(found && !hops.empty());
  return net.graph().head(hops.back().edge);
}

double Semilightpath::cost(const WdmNetwork& net) const {
  WDM_CHECK(found);
  double c = 0.0;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    c += net.weight(hops[i].edge, hops[i].lambda);
    // c_v(λ, λ) = 0 and c >= +0.0, so a hop that keeps its wavelength adds
    // nothing and needs no table read.
    if (i + 1 < hops.size() && hops[i].lambda != hops[i + 1].lambda) {
      const NodeId mid = net.graph().head(hops[i].edge);
      c += net.conversion(mid).cost(hops[i].lambda, hops[i + 1].lambda);
    }
  }
  return c;
}

int Semilightpath::conversions(const WdmNetwork& net) const {
  (void)net;
  int k = 0;
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    if (hops[i].lambda != hops[i + 1].lambda) ++k;
  }
  return k;
}

bool Semilightpath::well_formed(const WdmNetwork& net) const {
  if (!found || hops.empty()) return false;
  const auto& g = net.graph();
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const Hop& h = hops[i];
    if (!g.valid_edge(h.edge)) return false;
    if (!net.installed(h.edge).contains(h.lambda)) return false;
    if (i + 1 < hops.size()) {
      if (g.head(h.edge) != g.tail(hops[i + 1].edge)) return false;
      const NodeId mid = g.head(h.edge);
      if (h.lambda != hops[i + 1].lambda &&
          !net.conversion(mid).allowed(h.lambda, hops[i + 1].lambda)) {
        return false;
      }
    }
  }
  return true;
}

bool Semilightpath::fits_residual(const WdmNetwork& net) const {
  if (!well_formed(net)) return false;
  for (const Hop& h : hops) {
    if (!net.available(h.edge).contains(h.lambda)) return false;
  }
  return true;
}

std::vector<EdgeId> Semilightpath::physical_edges() const {
  std::vector<EdgeId> es;
  es.reserve(hops.size());
  for (const Hop& h : hops) es.push_back(h.edge);
  return es;
}

bool Semilightpath::is_lightpath() const {
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    if (hops[i].lambda != hops[i + 1].lambda) return false;
  }
  return true;
}

void Semilightpath::reserve_in(WdmNetwork& net) const {
  WDM_CHECK_MSG(fits_residual(net),
                "reserve_in requires a path realizable in the residual");
  for (const Hop& h : hops) net.reserve(h.edge, h.lambda);
}

void Semilightpath::release_in(WdmNetwork& net) const {
  for (const Hop& h : hops) net.release(h.edge, h.lambda);
}

bool edge_disjoint(const Semilightpath& a, const Semilightpath& b) {
  std::unordered_set<EdgeId> ea;
  for (const Hop& h : a.hops) ea.insert(h.edge);
  for (const Hop& h : b.hops) {
    if (ea.count(h.edge)) return false;
  }
  return true;
}

bool srlg_disjoint(const WdmNetwork& net, const Semilightpath& a,
                   const Semilightpath& b) {
  if (!edge_disjoint(a, b)) return false;
  for (const Hop& ha : a.hops) {
    for (const Hop& hb : b.hops) {
      if (net.links_share_srlg(ha.edge, hb.edge)) return false;
    }
  }
  return true;
}

bool ProtectedRoute::feasible(const WdmNetwork& net) const {
  switch (policy.kind) {
    case ProtectKind::kFull:
      return found && primary.fits_residual(net) && backup.fits_residual(net) &&
             edge_disjoint(primary, backup);
    case ProtectKind::kSrlg:
      return found && primary.fits_residual(net) && backup.fits_residual(net) &&
             srlg_disjoint(net, primary, backup);
    case ProtectKind::kPartial: {
      if (!found || !primary.fits_residual(net)) return false;
      if (!backup.found) return avoid.empty();  // nothing risky to cover
      if (!backup.fits_residual(net)) return false;
      for (const Hop& h : backup.hops) {
        for (EdgeId e : avoid) {
          if (h.edge == e) return false;
        }
      }
      // Shared safe links are fine, but never the same (link, λ) channel.
      for (const Hop& hb : backup.hops) {
        for (const Hop& hp : primary.hops) {
          if (hb == hp) return false;
        }
      }
      return true;
    }
  }
  return false;
}

void ProtectedRoute::reserve_in(WdmNetwork& net) const {
  WDM_CHECK(feasible(net));
  primary.reserve_in(net);
  if (backup.found) backup.reserve_in(net);
}

void ProtectedRoute::release_in(WdmNetwork& net) const {
  primary.release_in(net);
  if (backup.found) backup.release_in(net);
}

}  // namespace wdm::net
