// §4.1 — Find_Two_Paths_MinCog: two edge-disjoint semilightpaths minimizing
// the network load ρ, via a geometric search over the load threshold ϑ.
//
// Each probe asks one question of G_c(ϑ) — does it hold two edge-disjoint
// s' -> t'' paths? — and on failure the search raises ϑ and retries. The
// paper's pseudo-code increments ϑ by Δ/2^j with j counting *down* from
// j0 = ⌈log2(1/Δ)⌉ — i.e. the increment doubles on every failed probe, so
// the accepted ϑ overshoots the minimum feasible threshold by at most the
// last increment, giving the <3 performance ratio of Theorem 3. (Read
// literally, the pseudo-code's loop guard `j < 0` and the +Δ/2^j updates do
// not terminate against ϑ_max; we implement the doubling-increment intent,
// clamp probes at ϑ_max, and finish with the mandatory ϑ_max probe that
// decides whether the request must be dropped.)
//
// No probe builds a graph. The search builds one arena at ϑ_max, above
// every link load; G_c's weights do not depend on ϑ, so G_c(ϑ) is that
// arena with the edge-nodes of every link of load >= ϑ cut off
// (ArenaLowerBound gives them h = +inf, which Suurballe never enters). A
// rung is no mask but a threshold on the network's one per-link array,
// WdmNetwork::residual_loads(): ρ(e) for a usable link, +inf otherwise, so
// link e is open at ϑ iff residual_loads()[e] < ϑ. Every
// physical link owns exactly one link arc, so two arc-disjoint s' -> t''
// paths in G_c(ϑ) project to two link-disjoint s -> t walks over the open
// links. Each rung therefore first asks that necessary question of the
// physical graph: in O(deg), whether two open links leave s and two enter
// t (graph::ends_admit_edge_disjoint_pair; on geo16 that rejects about
// three quarters of the failing rungs), and then by a unit-capacity flow of
// value 2 on n nodes, not on the arena's ~2m edge-nodes
// (graph::has_edge_disjoint_pair under the same threshold, a BFS from both
// ends per augmentation). Only a rung that passes is confirmed on the
// arena: Suurballe on the cut arena, whose `found` is exactly the arena's
// pair existence. Under full conversion every transit arc exists and the
// confirm never misses; under restricted conversion wavelength continuity
// can block the arena where the physical graph has a pair, and a miss
// marks the rung infeasible. The confirmed pair of the accepted rung is the
// min-cost pair the caller realizes, so each rung answers as an arena
// pair-existence probe would and the search runs no Suurballe beyond its
// confirms. Feasibility depends only on which arcs are finite, which G_c
// and G_rc share, so §4.2 runs the same search on its G_rc(ϑ_max) arena.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/route_scratch.hpp"
#include "rwa/router.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {

/// Threshold-search strategies (ablation; the paper uses kDoubling).
enum class ThetaSearch {
  kDoubling,    // the paper's Δ/2^j doubling increments
  kLinearScan,  // probe each distinct link-load boundary in order (exact,
                // up to m probes)
  kBisection,   // bisect [ϑ_min, ϑ_max] to a fixed tolerance
};

struct MinCogOptions {
  /// Exponential base `a` of the G_c link weights.
  double load_base = 2.0;
  ThetaSearch search = ThetaSearch::kDoubling;
};

struct MinCogResult {
  bool found = false;
  /// Accepted threshold (the approximate minimum network load).
  double theta = 0.0;
  /// Number of ϑ probes (rungs) — Theorem 3 bounds this by O(log 1/Δ).
  int iterations = 0;
  /// Rungs whose physical check passed, each confirmed by one Suurballe on
  /// the arena, and those of them whose arena had no pair (misses; never
  /// under full conversion).
  int confirms = 0;
  int confirm_misses = 0;
  /// Rungs rejected in O(deg) before the pair check: fewer than two open
  /// links leave s or enter t.
  int degree_rejects = 0;
  /// The last ϑ probe that failed before acceptance (NaN when the very first
  /// probe succeeded). Theorem 3's ratio argument bounds
  /// theta / last_infeasible_theta by 3.
  double last_infeasible_theta = std::numeric_limits<double>::quiet_NaN();
};

/// Where a search's time goes. `tel` is the caller's split timer (nullptr:
/// no splits). The search closes a split through `search` before each
/// Suurballe it runs and, when it returns, over any search work since the
/// last split; it closes one through `suurballe` after each Suurballe. So
/// the two histograms never hold the same interval, and a search whose
/// first confirm is accepted records one sample in each.
/// theta_splits<Names> (rwa/protection_stage.hpp) fills one from a
/// router's names tag.
struct ThetaSplits {
  support::telemetry::SplitTimer* tel = nullptr;
  void (*search)(support::telemetry::SplitTimer&) = nullptr;
  void (*suurballe)(support::telemetry::SplitTimer&) = nullptr;
};

/// The threshold search on a prebuilt arena. `arena` is G_c or G_rc built
/// by AuxGraphBuilder at ϑ = net.theta_max() for the query s -> t; the
/// rungs read net's residual_loads() and its theta_min() and theta_max(),
/// each once per search. Each rung is
/// a physical link-disjoint pair check, and each rung that passes is
/// confirmed by Suurballe on the arena cut to the rung, using `ws`'s
/// buffers for both; `bound` goal-directs each confirm with the physical
/// distances to t over the rung's open links and cuts the closed ones off
/// (h = +inf on their edge-nodes). On success `*pair` is Suurballe's pair
/// on the arena cut to the accepted ϑ, which is the goal-directed pair of a
/// fresh AuxGraphBuilder build at that ϑ (whose closed links carry +inf,
/// so its bound is the same); otherwise pair->found is false.
MinCogResult mincog_search(const net::WdmNetwork& net, net::NodeId s,
                           net::NodeId t, const AuxGraph& arena,
                           const MinCogOptions& opt, ArenaLowerBound* bound,
                           graph::SuurballeWorkspace* ws,
                           graph::DisjointPair* pair,
                           const ThetaSplits& splits = {});

/// The threshold search itself, exposed apart from the Router wrapper so
/// bench E5 can compare the accepted ϑ against the exact minimum. Builds
/// G_c(ϑ_max) once through `builder` (optional; the warm AuxGraphBuilder
/// to use) and runs mincog_search on it with `ws` (optional; the workspace
/// the probes share). With nullptr, search-local ones are used. `pair`
/// (optional) receives Suurballe's pair on G_c at the accepted ϑ (found ==
/// false when the search is exhausted) — the last confirm the search ran.
MinCogResult find_two_paths_mincog(const net::WdmNetwork& net, net::NodeId s,
                                   net::NodeId t, const MinCogOptions& opt = {},
                                   AuxGraphBuilder* builder = nullptr,
                                   graph::SuurballeWorkspace* ws = nullptr,
                                   graph::DisjointPair* pair = nullptr);

/// Exact minimum achievable bottleneck load L*: the smallest value such that
/// two edge-disjoint routes exist using only links with load <= L*. Under
/// the paper's strict filter, G_c(ϑ) is feasible exactly for ϑ > L*, so L*
/// is the infimum MinCog's accepted ϑ is measured against. Computed by
/// probing the distinct link-load values in increasing order (feasibility is
/// monotone) with the search's rungs on one G_c(ϑ_max) arena. Returns false
/// when no pair exists even with every link.
bool exact_min_threshold(const net::WdmNetwork& net, net::NodeId s,
                         net::NodeId t, double* theta_out);

/// §4.1 as a routing policy: build G_c(ϑ_max) once, run the MinCog search
/// on it, and realize the accepted rung's pair through the shared
/// protection stage (rwa/protection_stage.hpp):
/// projection and the optimal-semilightpath solver in each induced
/// subgraph. Under kSrlg the stage rebuilds G_c(ϑ) through the warm builder
/// and runs the pair search on it with conflict sets.
class MinLoadRouter final : public Router {
 public:
  /// `policy`: kSrlg runs the pair search on a rebuilt G_c(ϑ) at the
  /// accepted ϑ with SRLG conflict sets (requests SRLG-routable only above
  /// that ϑ are blocked); kPartial delegates to route_partial.
  explicit MinLoadRouter(MinCogOptions opt = {},
                         net::ProtectPolicy policy = net::ProtectPolicy::full())
      : opt_(opt), policy_(policy) {}

  RouteResult route(const net::WdmNetwork& net, net::NodeId s,
                    net::NodeId t) const override;

  std::string name() const override { return "min-load(§4.1)"; }

 private:
  MinCogOptions opt_;
  net::ProtectPolicy policy_;
  /// The G_c(ϑ_max) arena, the goal-direction bound, the probes'
  /// workspace, the pair and the projections all live in one leased
  /// scratch; the kSrlg rebuild of G_c(ϑ) reuses the same arena.
  mutable RouteScratchPool scratch_;
};

}  // namespace wdm::rwa
