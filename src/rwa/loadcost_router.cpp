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
  support::telemetry::SplitTimer tel;
  RouteResult result;
  result.route.policy = policy_;
  auto sc = scratch_.lease(net);
  // Cost-weighted routing restricted to links below the accepted ϑ: G_rc
  // has G_c's topology, so one G_rc(ϑ_max) arena serves the search too.
  AuxGraphOptions grc;
  grc.weighting = AuxWeighting::kCostLoadFiltered;
  grc.grc_mean_over_available = grc_mean_over_available_;
  protect_on_theta<LoadCostNames>(net, s, t, opt_, grc, policy_, *sc, tel,
                                  &result);
  return result;
}

}  // namespace wdm::rwa
