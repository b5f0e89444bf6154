#include "rwa/approx_router.hpp"

#include "rwa/protection_stage.hpp"
#include "rwa/srlg.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {

namespace {

WDM_STAGE_NAMES(ApproxNames, "rwa.approx.");

}  // namespace

void ApproxDisjointRouter::route_into(const net::WdmNetwork& net, net::NodeId s,
                                      net::NodeId t, RouteResult* out) const {
  out->reset_keep_capacity();
  if (policy_.kind == net::ProtectKind::kPartial) {
    *out = route_partial(net, s, t, policy_.threshold);
    return;
  }
  WDM_TEL_COUNT("rwa.approx.attempts");
  support::telemetry::SplitTimer tel;
  out->route.policy = policy_;
  auto sc = scratch_.lease(net);
  protect_on_aux<ApproxNames>(net, s, t, AuxGraphOptions{}, policy_, refine_,
                              *sc, tel, out);
}

}  // namespace wdm::rwa
