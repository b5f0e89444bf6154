#include "rwa/loadcost_router.hpp"

#include "rwa/protection_stage.hpp"
#include "rwa/srlg.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {

namespace {

WDM_STAGE_NAMES(LoadCostNames, "rwa.loadcost.");

}  // namespace

RouteResult LoadCostRouter::route(const net::WdmNetwork& net, net::NodeId s,
                                  net::NodeId t) const {
  if (policy_.kind == net::ProtectKind::kPartial) {
    return route_partial(net, s, t, policy_.threshold);
  }
  WDM_TEL_COUNT("rwa.loadcost.attempts");
  WDM_TEL_SPAN(tel_span, "rwa.loadcost.route");
  support::telemetry::SplitTimer tel;
  RouteResult result;
  result.route.policy = policy_;
  auto sc = scratch_.lease(net);
  if (!theta_prelude<LoadCostNames>(net, s, t, opt_, *sc, tel, &result)) {
    return result;
  }
  // Phase 2: cost-weighted routing restricted to links below ϑ. G_rc(ϑ) has
  // the topology of the G_c(ϑ) phase 1 accepted, so a pair exists under
  // kFull; the stage still guards the no-pair case.
  AuxGraphOptions grc;
  grc.weighting = AuxWeighting::kCostLoadFiltered;
  grc.theta = result.theta;
  grc.grc_mean_over_available = grc_mean_over_available_;
  protect_on_aux<LoadCostNames>(net, s, t, grc, policy_, /*refine=*/true, *sc,
                                tel, &result);
  return result;
}

}  // namespace wdm::rwa
