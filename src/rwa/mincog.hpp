// §4.1 — Find_Two_Paths_MinCog: two edge-disjoint semilightpaths minimizing
// the network load ρ, via a geometric search over the load threshold ϑ.
//
// The search constructs G_c(ϑ) and runs Suurballe; on failure it raises ϑ
// and retries. The paper's pseudo-code increments ϑ by Δ/2^j with j counting
// *down* from j0 = ⌈log2(1/Δ)⌉ — i.e. the increment doubles on every failed
// probe, so the accepted ϑ overshoots the minimum feasible threshold by at
// most the last increment, giving the <3 performance ratio of Theorem 3.
// (Read literally, the pseudo-code's loop guard `j < 0` and the +Δ/2^j
// updates do not terminate against ϑ_max; we implement the doubling-
// increment intent, clamp probes at ϑ_max, and finish with the mandatory
// ϑ_max probe that decides whether the request must be dropped.)
#pragma once

#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/route_scratch.hpp"
#include "rwa/router.hpp"

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
  /// Bisection stops when the bracket is narrower than this.
  double bisection_tolerance = 1e-3;
};

struct MinCogResult {
  bool found = false;
  /// Accepted threshold (the approximate minimum network load).
  double theta = 0.0;
  /// Number of G_c constructions (probes) — Theorem 3 bounds this by
  /// O(log 1/Δ).
  int iterations = 0;
  /// The last ϑ probe that failed before acceptance (NaN when the very first
  /// probe succeeded). Theorem 3's ratio argument bounds
  /// theta / last_infeasible_theta by 3.
  double last_infeasible_theta = std::numeric_limits<double>::quiet_NaN();
  /// The two edge-disjoint paths in the final G_c.
  graph::DisjointPair aux_pair;
  /// The final auxiliary graph (kept for projection).
  AuxGraph aux;
};

/// The threshold search itself. Exposed separately from the Router wrapper
/// so bench E5 can compare the accepted ϑ against the exact minimum.
/// Every probe builds a fresh G_c(ϑ); `builder` (optional) supplies the
/// warm AuxGraphBuilder the probes share — since the network is untouched
/// between probes, every transit-arc scan after the first is a cache hit.
/// `ws` (optional) is the Suurballe workspace the probes share; routers pass
/// both from their RouteScratch. With nullptr, search-local ones are used,
/// still shared across probes.
MinCogResult find_two_paths_mincog(const net::WdmNetwork& net, net::NodeId s,
                                   net::NodeId t, const MinCogOptions& opt = {},
                                   AuxGraphBuilder* builder = nullptr,
                                   graph::SuurballeWorkspace* ws = nullptr);

/// Exact minimum achievable bottleneck load L*: the smallest value such that
/// two edge-disjoint routes exist using only links with load <= L*. Under
/// the paper's strict filter, G_c(ϑ) is feasible exactly for ϑ > L*, so L*
/// is the infimum MinCog's accepted ϑ is measured against. Computed by
/// probing the distinct link-load values in increasing order (feasibility is
/// monotone). Returns false when no pair exists even with every link.
bool exact_min_threshold(const net::WdmNetwork& net, net::NodeId s,
                         net::NodeId t, double* theta_out);

/// §4.1 as a routing policy: accept the MinCog threshold, project the two
/// G_c paths, and run the optimal-semilightpath solver in each induced
/// subgraph.
class MinLoadRouter final : public Router {
 public:
  /// `policy`: kSrlg reruns the pair search on the accepted G_c(ϑ) with
  /// SRLG conflict sets (requests SRLG-routable only above the accepted ϑ
  /// are blocked); kPartial delegates to route_partial.
  explicit MinLoadRouter(MinCogOptions opt = {},
                         net::ProtectPolicy policy = net::ProtectPolicy::full())
      : opt_(opt), policy_(policy) {}

  RouteResult route(const net::WdmNetwork& net, net::NodeId s,
                    net::NodeId t) const override;

  std::string name() const override { return "min-load(§4.1)"; }

 private:
  MinCogOptions opt_;
  net::ProtectPolicy policy_;
  /// Probes share the scratch builder and Suurballe workspace; the
  /// projection masks of the copied-out final G_c live in the scratch's
  /// recycled buffers.
  mutable RouteScratchPool scratch_;
};

}  // namespace wdm::rwa
