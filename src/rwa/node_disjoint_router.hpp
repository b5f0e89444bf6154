// Extension beyond the paper: node-disjoint protected routing.
//
// §1 distinguishes edge-disjoint backups (single link failure) from
// node-disjoint backups (single node + single link failures) and the paper
// develops the edge-disjoint case; this router delivers the stronger class
// by handing the node-gadget auxiliary graph (see
// AuxGraphOptions::protect_nodes) to the same protection stage as §3.3
// (rwa/protection_stage.hpp). Costs follow the same averaged weighting, so
// the Lemma 2 refinement applies unchanged.
#pragma once

#include "rwa/aux_graph.hpp"
#include "rwa/route_scratch.hpp"
#include "rwa/router.hpp"

namespace wdm::rwa {

class NodeDisjointRouter final : public Router {
 public:
  /// kSrlg composes with node protection: the conflict-set search masks the
  /// candidate primary's gadget arcs too, so the pair stays internally
  /// node-disjoint while also avoiding shared-risk groups.
  explicit NodeDisjointRouter(net::ProtectPolicy policy =
                                  net::ProtectPolicy::full())
      : policy_(policy) {}

  RouteResult route(const net::WdmNetwork& net, net::NodeId s,
                    net::NodeId t) const override;

  std::string name() const override { return "node-disjoint(ext)"; }

 private:
  net::ProtectPolicy policy_;
  /// Warm per-route scratches (stable-arena builder + Suurballe workspace),
  /// keyed by network uid like every router's pool.
  mutable RouteScratchPool scratch_;
};

}  // namespace wdm::rwa
