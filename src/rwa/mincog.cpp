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

/// One search's rungs. A rung ϑ is a threshold on the network's
/// residual_loads(): the links whose entry is below ϑ, usable and of load
/// < ϑ, are open. It asks the physical graph for two link-disjoint s -> t
/// paths over them — necessary for an arena pair, since each link owns
/// one link arc — first in O(deg)
/// (two open links must leave s and two enter t), then by the pair check,
/// and confirms a pass with Suurballe on the ϑ_max arena cut to ϑ,
/// goal-directed by the physical distances to t over those same links
/// (ArenaLowerBound; one bound for the unmasked arena is looser and
/// settled about twice the nodes on geo16). The bound is also the cut: it
/// is +inf on the edge-nodes of every link the rung closes, and neither
/// Suurballe round enters such a node, so the confirm needs no arc mask.
/// Feasibility is monotone in ϑ. Suurballe's time, the bound's included,
/// goes to the `suurballe` split, the rest to `search`.
class Prober {
 public:
  Prober(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
         const AuxGraph& arena, ArenaLowerBound& bound,
         graph::SuurballeWorkspace& ws, graph::DisjointPair& pair,
         const ThetaSplits& splits)
      : net_(net), s_(s), t_(t), arena_(arena), bound_(bound), ws_(ws),
        pair_(pair), splits_(splits) {}

  bool operator()(double theta) {
    WDM_TEL_COUNT("rwa.mincog.probes");
    stretch_open_ = true;
    if (!physical_pair(theta)) return false;
    ++confirms_;
    confirm(theta);
    if (pair_.found) return true;
    WDM_TEL_COUNT("rwa.mincog.confirm_misses");
    ++misses_;
    return false;
  }

  /// Runs Suurballe on the arena cut to ϑ into the pair, goal-directed by
  /// (and cut by) the bound over the rung's open links.
  void confirm(double theta) {
    close_search();
    graph::suurballe_into(arena_.g, arena_.w, arena_.s_prime, arena_.t_second,
                          {}, &ws_, &pair_,
                          bound_.compute(net_, arena_, s_, t_, theta));
    if (splits_.tel != nullptr) splits_.suurballe(*splits_.tel);
  }

  /// Closes the search split if any search work ran since the last split.
  void close_search() {
    if (splits_.tel != nullptr && stretch_open_) splits_.search(*splits_.tel);
    stretch_open_ = false;
  }

  int confirms() const { return confirms_; }
  int misses() const { return misses_; }
  int degree_rejects() const { return degree_rejects_; }

 private:
  bool physical_pair(double theta) {
    support::telemetry::SplitTimer tel;
    const graph::Digraph& g = net_.graph();
    const std::span<const double> loads = net_.residual_loads();
    bool feasible =
        graph::ends_admit_edge_disjoint_pair(g, loads, s_, t_, {}, theta);
    if (feasible) {
      feasible =
          graph::has_edge_disjoint_pair(g, loads, s_, t_, {}, &ws_, theta);
    } else {
      WDM_TEL_COUNT("rwa.mincog.degree_rejects");
      ++degree_rejects_;
    }
    tel.split(WDM_TEL_HIST("rwa.mincog.pair_check_ns"));
    return feasible;
  }

  const net::WdmNetwork& net_;
  net::NodeId s_;
  net::NodeId t_;
  const AuxGraph& arena_;
  ArenaLowerBound& bound_;
  graph::SuurballeWorkspace& ws_;
  graph::DisjointPair& pair_;
  const ThetaSplits splits_;
  bool stretch_open_ = true;
  int confirms_ = 0;
  int misses_ = 0;
  int degree_rejects_ = 0;
};

/// Sorts `v` and drops repeated values.
void sort_unique(std::vector<double>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// Ablation variant: probe every distinct boundary value just past each
/// link load (plus ϑ_min / ϑ_max) in increasing order. Exact minimum grid
/// threshold, up to O(m) probes.
MinCogResult mincog_linear_scan(const net::WdmNetwork& net, double theta_min,
                                double theta_max, Prober& probe) {
  std::vector<double> grid{theta_min, theta_max};
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
MinCogResult mincog_bisection(double theta_min, double theta_max,
                              Prober& probe) {
  MinCogResult result;
  double lo = theta_min;
  double hi = theta_max;
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
MinCogResult mincog_doubling(double theta_min, double theta_max,
                             Prober& probe) {
  MinCogResult result;
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

/// G_c for the search's options, without its ϑ: every caller builds the
/// arena at the network's ϑ_max.
AuxGraphOptions gc_options(const MinCogOptions& opt) {
  AuxGraphOptions aopt;
  aopt.weighting = AuxWeighting::kLoadExponential;
  aopt.load_base = opt.load_base;
  return aopt;
}

WDM_STAGE_NAMES(MinCogNames, "rwa.mincog.");

}  // namespace

MinCogResult mincog_search(const net::WdmNetwork& net, net::NodeId s,
                           net::NodeId t, const AuxGraph& arena,
                           const MinCogOptions& opt, ArenaLowerBound* bound,
                           graph::SuurballeWorkspace* ws,
                           graph::DisjointPair* pair,
                           const ThetaSplits& splits) {
  pair->found = false;
  Prober probe(net, s, t, arena, *bound, *ws, *pair, splits);
  const double theta_min = net.theta_min();
  const double theta_max = net.theta_max();
  MinCogResult result;
  switch (opt.search) {
    case ThetaSearch::kLinearScan:
      result = mincog_linear_scan(net, theta_min, theta_max, probe);
      break;
    case ThetaSearch::kBisection:
      result = mincog_bisection(theta_min, theta_max, probe);
      break;
    case ThetaSearch::kDoubling:
      result = mincog_doubling(theta_min, theta_max, probe);
      break;
  }
  // Bisection accepts its last passing rung, and a later rung's miss may
  // have overwritten that rung's pair: confirm it again.
  if (result.found && !pair->found) {
    probe.confirm(result.theta);
    WDM_CHECK(pair->found);
  }
  probe.close_search();
  result.confirms = probe.confirms();
  result.confirm_misses = probe.misses();
  result.degree_rejects = probe.degree_rejects();
  return result;
}

MinCogResult find_two_paths_mincog(const net::WdmNetwork& net, net::NodeId s,
                                   net::NodeId t, const MinCogOptions& opt,
                                   AuxGraphBuilder* builder,
                                   graph::SuurballeWorkspace* ws,
                                   graph::DisjointPair* pair) {
  AuxGraphBuilder local_builder;
  graph::SuurballeWorkspace local_ws;
  graph::DisjointPair local_pair;
  if (builder == nullptr) builder = &local_builder;
  if (ws == nullptr) ws = &local_ws;
  if (pair == nullptr) pair = &local_pair;
  ArenaLowerBound bound;

  support::telemetry::SplitTimer tel;
  AuxGraphOptions aopt = gc_options(opt);
  aopt.theta = net.theta_max();
  const AuxGraph& arena = builder->build(net, s, t, aopt);
  tel.split(WDM_TEL_HIST(MinCogNames::kAuxBuildNs));
  const MinCogResult result = mincog_search(net, s, t, arena, opt, &bound, ws,
                                            pair, theta_splits<MinCogNames>(tel));
  if (!result.found) *pair = graph::DisjointPair{};
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
  loads.reserve(static_cast<std::size_t>(net.num_links()));
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    loads.push_back(net.link_load(e));
  }
  sort_unique(&loads);
  AuxGraphBuilder builder;
  ArenaLowerBound bound;
  graph::SuurballeWorkspace ws;
  graph::DisjointPair pair;
  AuxGraphOptions aopt = gc_options(MinCogOptions{});
  aopt.theta = net.theta_max();
  const AuxGraph& arena = builder.build(net, s, t, aopt);
  Prober probe(net, s, t, arena, bound, ws, pair, {});
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
  support::telemetry::SplitTimer tel;
  RouteResult result;
  result.route.policy = policy_;
  auto sc = scratch_.lease(net);
  protect_on_theta<MinLoadNames>(net, s, t, opt_, gc_options(opt_), policy_,
                                 *sc, tel, &result);
  return result;
}

}  // namespace wdm::rwa
