// §4.2 — the paper's headline router: minimize network load AND routing cost.
//
// Phase 1 is the ϑ search it shares with MinLoadRouter:
// Find_Two_Paths_MinCog obtains a feasible load threshold ϑ. Phase 2 routes
// on G_rc(ϑ) — same ϑ-filtered topology as G_c, but with the cost weights of
// G' — through the shared protection stage (rwa/protection_stage.hpp):
// Suurballe, then the optimal-semilightpath solver in each path's induced
// subgraph. Because G_rc's weights do not depend on ϑ and its topology is
// G_c's, one G_rc(ϑ_max) arena serves both phases: the search probes it
// cut to each rung's ϑ, and the accepted rung's confirm is the pair. The
// result is a cheapest-available pair among the routes that respect the
// (approximately) minimum achievable congestion, which is what cuts the
// reconfiguration count in the E6/E7 simulations. The two load-aware
// routers differ only in the weighting of that one arena.
#pragma once

#include "rwa/mincog.hpp"
#include "rwa/route_scratch.hpp"
#include "rwa/router.hpp"

namespace wdm::rwa {

class LoadCostRouter final : public Router {
 public:
  /// `grc_mean_over_available` switches the G_rc link weight from the
  /// paper's Σw/N(e) to the true mean Σw/|Λ_avail(e)| (ablation).
  /// `policy`: kSrlg keeps the phase-1 ϑ search (edge-disjoint feasibility)
  /// and applies the SRLG conflict-set stage to the final G_rc(ϑ); a request
  /// SRLG-routable only above that ϑ is blocked (documented limitation).
  explicit LoadCostRouter(MinCogOptions opt = {},
                          bool grc_mean_over_available = false,
                          net::ProtectPolicy policy = net::ProtectPolicy::full())
      : opt_(opt), grc_mean_over_available_(grc_mean_over_available),
        policy_(policy) {}

  RouteResult route(const net::WdmNetwork& net, net::NodeId s,
                    net::NodeId t) const override;

  std::string name() const override {
    return grc_mean_over_available_ ? "load+cost(mean-avail)"
                                    : "load+cost(§4.2)";
  }

 private:
  MinCogOptions opt_;
  bool grc_mean_over_available_;
  net::ProtectPolicy policy_;
  /// One leased scratch serves both phases of a route() call: the G_rc(ϑ_max)
  /// arena, the probes' link mask and workspace, and the pair.
  mutable RouteScratchPool scratch_;
};

}  // namespace wdm::rwa
