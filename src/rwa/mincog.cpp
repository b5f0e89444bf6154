#include "rwa/mincog.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "rwa/protection_stage.hpp"
#include "rwa/srlg.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {

namespace {

/// Bisection stops when the bracket is narrower than this.
constexpr double kBisectionTolerance = 1e-3;

/// One search's probe: masks the ϑ_max arena to ϑ and asks whether two
/// edge-disjoint s' -> t'' paths survive. Feasibility is monotone in ϑ.
class Prober {
 public:
  Prober(const net::WdmNetwork& net, const AuxGraph& arena,
         graph::SuurballeWorkspace& ws, std::vector<std::uint8_t>& mask)
      : net_(net), arena_(arena), ws_(ws), mask_(mask) {}

  bool operator()(double theta) const {
    WDM_TEL_COUNT("rwa.mincog.probes");
    support::telemetry::SplitTimer tel;
    arena_.threshold_mask_into(net_, theta, &mask_);
    const bool feasible = graph::has_edge_disjoint_pair(
        arena_.g, arena_.w, arena_.s_prime, arena_.t_second, mask_, &ws_);
    tel.split(WDM_TEL_HIST("rwa.mincog.pair_check_ns"),
              WDM_TEL_NAME("rwa.mincog.pair_check"));
    return feasible;
  }

 private:
  const net::WdmNetwork& net_;
  const AuxGraph& arena_;
  graph::SuurballeWorkspace& ws_;
  std::vector<std::uint8_t>& mask_;
};

/// Sorts `v` and drops repeated values.
void sort_unique(std::vector<double>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// Ablation variant: probe every distinct boundary value just past each
/// link load (plus ϑ_min / ϑ_max) in increasing order. Exact minimum grid
/// threshold, up to O(m) probes.
MinCogResult mincog_linear_scan(const net::WdmNetwork& net,
                                const Prober& probe) {
  std::vector<double> grid{net.theta_min(), net.theta_max()};
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    // Just past each load boundary, where the strict filter admits the link.
    grid.push_back(std::nextafter(net.link_load(e),
                                  std::numeric_limits<double>::infinity()));
  }
  sort_unique(&grid);
  MinCogResult result;
  for (const double theta : grid) {
    ++result.iterations;
    if (probe(theta)) {
      result.found = true;
      result.theta = theta;
      return result;
    }
    result.last_infeasible_theta = theta;
  }
  return result;
}

/// Ablation variant: bisection on [ϑ_min, ϑ_max] after establishing
/// feasibility at ϑ_max.
MinCogResult mincog_bisection(const net::WdmNetwork& net, const Prober& probe) {
  MinCogResult result;
  double lo = net.theta_min();
  double hi = net.theta_max();
  ++result.iterations;
  if (probe(lo)) {
    result.found = true;
    result.theta = lo;
    return result;
  }
  result.last_infeasible_theta = lo;
  ++result.iterations;
  if (!probe(hi)) {
    result.last_infeasible_theta = hi;
    return result;  // drop: infeasible even with every link admitted
  }
  while (hi - lo > kBisectionTolerance) {
    const double mid = 0.5 * (lo + hi);
    ++result.iterations;
    if (probe(mid)) {
      hi = mid;
    } else {
      lo = mid;
      result.last_infeasible_theta = mid;
    }
  }
  result.found = true;
  result.theta = hi;
  return result;
}

/// The paper's doubling ladder.
MinCogResult mincog_doubling(const net::WdmNetwork& net, const Prober& probe) {
  MinCogResult result;
  const double theta_min = net.theta_min();
  const double theta_max = net.theta_max();
  const double delta = theta_max - theta_min;

  double theta = theta_min;
  // j0 = -⌈log2(Δ)⌉ as in the paper; for Δ >= 1 start doubling immediately.
  int j = (delta > 0.0)
              ? std::max(0, static_cast<int>(std::ceil(-std::log2(delta))))
              : 0;
  while (true) {
    ++result.iterations;
    if (probe(theta)) {
      result.found = true;
      result.theta = theta;
      return result;
    }
    result.last_infeasible_theta = theta;
    if (theta >= theta_max || delta <= 0.0) break;  // ϑ_max probe failed: drop
    theta = std::min(theta + delta / std::pow(2.0, j), theta_max);
    --j;
    // j < 0 means the increment has grown past Δ; the clamp above has already
    // pushed ϑ to ϑ_max, so the next probe is the final one.
  }
  return result;
}

/// G_c(ϑ_max) for the search's options: the arena every probe masks.
AuxGraphOptions gc_options(const net::WdmNetwork& net,
                           const MinCogOptions& opt) {
  AuxGraphOptions aopt;
  aopt.weighting = AuxWeighting::kLoadExponential;
  aopt.theta = net.theta_max();
  aopt.load_base = opt.load_base;
  return aopt;
}

}  // namespace

MinCogResult mincog_search(const net::WdmNetwork& net, const AuxGraph& arena,
                           const MinCogOptions& opt,
                           graph::SuurballeWorkspace* ws,
                           std::vector<std::uint8_t>* mask) {
  const Prober probe(net, arena, *ws, *mask);
  if (opt.search == ThetaSearch::kLinearScan) {
    return mincog_linear_scan(net, probe);
  }
  if (opt.search == ThetaSearch::kBisection) {
    const MinCogResult result = mincog_bisection(net, probe);
    // Its last probe may have failed: leave the accepted ϑ's mask.
    if (result.found) arena.threshold_mask_into(net, result.theta, mask);
    return result;
  }
  return mincog_doubling(net, probe);
}

MinCogResult find_two_paths_mincog(const net::WdmNetwork& net, net::NodeId s,
                                   net::NodeId t, const MinCogOptions& opt,
                                   AuxGraphBuilder* builder,
                                   graph::SuurballeWorkspace* ws,
                                   graph::DisjointPair* pair) {
  AuxGraphBuilder local_builder;
  graph::SuurballeWorkspace local_ws;
  if (builder == nullptr) builder = &local_builder;
  if (ws == nullptr) ws = &local_ws;
  std::vector<std::uint8_t> mask;

  support::telemetry::SplitTimer tel;
  const AuxGraph& arena = builder->build(net, s, t, gc_options(net, opt));
  tel.split(WDM_TEL_HIST("rwa.mincog.aux_build_ns"),
            WDM_TEL_NAME("rwa.mincog.aux_build"));
  const MinCogResult result = mincog_search(net, arena, opt, ws, &mask);
  if (pair != nullptr) {
    if (result.found) {
      graph::suurballe_into(arena.g, arena.w, arena.s_prime, arena.t_second,
                            mask, ws, pair);
    } else {
      *pair = graph::DisjointPair{};
    }
  }
  return result;
}

bool exact_min_threshold(const net::WdmNetwork& net, net::NodeId s,
                         net::NodeId t, double* theta_out) {
  // Under the strict filter, feasibility of G_c(ϑ) flips exactly when ϑ
  // crosses a link-load value U(e)/N(e): the probe at ϑ = nextafter(L, +inf)
  // asks "does a pair exist over links with load <= L" (for doubles,
  // load < nextafter(L) iff load <= L), and the smallest feasible L is the
  // exact minimum bottleneck load.
  std::vector<double> loads;
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    loads.push_back(net.link_load(e));
  }
  sort_unique(&loads);
  AuxGraphBuilder builder;
  graph::SuurballeWorkspace ws;
  std::vector<std::uint8_t> mask;
  const AuxGraph& arena =
      builder.build(net, s, t, gc_options(net, MinCogOptions{}));
  const Prober probe(net, arena, ws, mask);
  for (const double load : loads) {
    if (probe(std::nextafter(load, std::numeric_limits<double>::infinity()))) {
      if (theta_out != nullptr) *theta_out = load;
      return true;
    }
  }
  return false;
}

namespace {

WDM_STAGE_NAMES(MinLoadNames, "rwa.minload.");

}  // namespace

RouteResult MinLoadRouter::route(const net::WdmNetwork& net, net::NodeId s,
                                 net::NodeId t) const {
  if (policy_.kind == net::ProtectKind::kPartial) {
    return route_partial(net, s, t, policy_.threshold);
  }
  WDM_TEL_COUNT("rwa.minload.attempts");
  WDM_TEL_SPAN(tel_span, "rwa.minload.route");
  support::telemetry::SplitTimer tel;
  RouteResult result;
  result.route.policy = policy_;
  auto sc = scratch_.lease(net);
  protect_on_theta<MinLoadNames>(net, s, t, opt_, gc_options(net, opt_),
                                 policy_, *sc, tel, &result);
  return result;
}

}  // namespace wdm::rwa
