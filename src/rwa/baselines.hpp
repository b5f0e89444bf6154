// Baseline routing policies the benches compare the paper's algorithms
// against. These represent what the paper's related-work section describes:
// protection-free routing, physical-topology routing with first-fit
// wavelength assignment bolted on afterwards ([11]-style, wavelength-blind),
// and the greedy two-step heuristic Suurballe exists to beat.
#pragma once

#include "rwa/router.hpp"
#include "rwa/wavelength_assignment.hpp"

namespace wdm::rwa {

/// No protection: just the optimal primary semilightpath, no backup.
/// (Used by the restoration bench's "passive" arm, which computes a backup
/// only after a failure hits.)
class UnprotectedRouter final : public Router {
 public:
  RouteResult route(const net::WdmNetwork& net, net::NodeId s,
                    net::NodeId t) const override;

  std::string name() const override { return "unprotected"; }
};

/// Wavelength-blind baseline: Suurballe on the *physical* graph weighted by
/// the cheapest available wavelength per link, then policy-driven
/// wavelength assignment along each path (wavelength_assignment.hpp; the
/// default is the classic first-fit). This is the decoupled
/// route-then-assign scheme the paper argues against: it ignores conversion
/// costs when routing and may be blocked by wavelength conflicts the
/// layered search would avoid.
class PhysicalFirstFitRouter final : public Router {
 public:
  explicit PhysicalFirstFitRouter(WaPolicy policy = WaPolicy::kFirstFit,
                                  std::uint64_t rng_seed = 1)
      : policy_(policy), seed_(rng_seed) {}

  RouteResult route(const net::WdmNetwork& net, net::NodeId s,
                    net::NodeId t) const override;

  std::string name() const override {
    return std::string("phys-suurballe+") + wa_policy_name(policy_);
  }

 private:
  WaPolicy policy_;
  std::uint64_t seed_;
};

/// Greedy two-step on semilightpaths: take the optimal semilightpath as the
/// primary, delete its links, take the optimal semilightpath of the rest as
/// the backup. Trap topologies defeat it (bench E10).
class TwoStepRouter final : public Router {
 public:
  RouteResult route(const net::WdmNetwork& net, net::NodeId s,
                    net::NodeId t) const override;

  std::string name() const override { return "greedy-two-step"; }
};

}  // namespace wdm::rwa
