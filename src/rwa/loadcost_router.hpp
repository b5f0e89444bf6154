// §4.2 — the paper's headline router: minimize network load AND routing cost.
//
// Phase 1 runs Find_Two_Paths_MinCog to obtain a feasible load threshold ϑ.
// Phase 2 rebuilds the auxiliary graph as G_rc(ϑ) — same ϑ-filtered topology
// as G_c, but with the cost weights of G' — runs Suurballe on it, and
// refines each returned path with the optimal-semilightpath solver in its
// induced subgraph. The result is a cheapest-available pair among the routes
// that respect the (approximately) minimum achievable congestion, which is
// what cuts the reconfiguration count in the E6/E7 simulations.
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
                    net::NodeId t) const override {
    return route(net, s, t, nullptr);
  }

  /// Records a load-band footprint: ϑ_min/ϑ_max, the MinCog probe ladder,
  /// the accepted ϑ (its G_c/G_rc members are protected), and the induced
  /// refinement masks as exact links. kLinearScan stays opaque — its probe
  /// grid contains every link's load boundary, so any write moves it.
  RouteResult route(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
                    RouteFootprint* fp) const override;

  std::string name() const override {
    return grc_mean_over_available_ ? "load+cost(mean-avail)"
                                    : "load+cost(§4.2)";
  }

 private:
  MinCogOptions opt_;
  bool grc_mean_over_available_;
  net::ProtectPolicy policy_;
  /// One leased scratch serves both phases of a route() call: the G_c(ϑ)
  /// probes and the final G_rc(ϑ) share the builder's stable arena,
  /// conversion-mean cache and Suurballe workspace.
  mutable RouteScratchPool scratch_;
};

}  // namespace wdm::rwa
