#include "rwa/node_disjoint_router.hpp"

#include "rwa/protection_stage.hpp"
#include "rwa/srlg.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {

namespace {

WDM_STAGE_NAMES(NodeDisjointNames, "rwa.node_disjoint.");

}  // namespace

RouteResult NodeDisjointRouter::route(const net::WdmNetwork& net,
                                      net::NodeId s, net::NodeId t) const {
  if (policy_.kind == net::ProtectKind::kPartial) {
    return route_partial(net, s, t, policy_.threshold);
  }
  WDM_TEL_COUNT("rwa.node_disjoint.attempts");
  support::telemetry::SplitTimer tel;
  RouteResult result;
  result.route.policy = policy_;
  AuxGraphOptions opt;
  opt.protect_nodes = true;
  auto sc = scratch_.lease(net);
  protect_on_aux<NodeDisjointNames>(net, s, t, opt, policy_, /*refine=*/true,
                                    *sc, tel, &result);
  return result;
}

}  // namespace wdm::rwa
