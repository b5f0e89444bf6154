// The §3.3 approximation algorithm for the optimal edge-disjoint
// semilightpath problem:
//
//   1. build the auxiliary graph G' over the residual network;
//   2. Find_Two_Paths: Suurballe on G' from s' to t'' minimizing the
//      weighted sum of the two edge-disjoint paths;
//   3. project each auxiliary path P_i to the induced physical subgraph G_i
//      and run the Liang–Shen optimal semilightpath algorithm inside it,
//      producing P'_i with C(P'_1) + C(P'_2) ≤ ω(P_1) + ω(P_2) (Lemma 2).
//
// Under the §3.3 assumptions — (i) full conversion with identical per-node
// cost, (ii) wavelength-independent link costs, and conversion cost bounded
// by incident link cost — the result is a 2-approximation (Theorem 2). The
// implementation accepts general networks; outside those assumptions the
// ratio guarantee (and, for restricted conversion tables, even the
// projection's feasibility) may fail, which bench E2 measures.
#pragma once

#include "rwa/aux_graph.hpp"
#include "rwa/route_scratch.hpp"
#include "rwa/router.hpp"

namespace wdm::rwa {

class ApproxDisjointRouter final : public Router {
 public:
  /// `refine` toggles the Lemma 2 step: when false, each auxiliary path is
  /// realized by first-fit wavelength assignment instead of the per-subgraph
  /// optimal semilightpath — the ablation bench_ablations measures what the
  /// refinement buys. `policy` selects the protection predicate: kFull is
  /// the paper's edge-disjoint stage (bit-for-bit the historical behavior),
  /// kSrlg swaps in the conflict-set Suurballe variant (identical again when
  /// the network declares no SRLGs), kPartial routes via route_partial.
  explicit ApproxDisjointRouter(bool refine = true,
                                net::ProtectPolicy policy =
                                    net::ProtectPolicy::full())
      : refine_(refine), policy_(policy) {}

  RouteResult route(const net::WdmNetwork& net, net::NodeId s,
                    net::NodeId t) const override {
    RouteResult result;
    route_into(net, s, t, &result);
    return result;
  }

  /// Recycled-result entry point: resets `*out` (capacity kept via
  /// RouteResult::reset_keep_capacity) and hands G' to the shared protection
  /// stage (rwa/protection_stage.hpp), which writes the result in place. On
  /// the kFull policy without refinement a warm steady-state call performs
  /// zero heap allocations end to end: stable-arena aux build, Suurballe in
  /// the pooled workspace, pooled projection buffers, and in-place first-fit
  /// assignment (tests/test_route_alloc.cpp holds the line). Refinement,
  /// SRLG-with-groups, and partial protection delegate to their (allocating)
  /// sub-algorithms but share the same scratch where they can.
  void route_into(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
                  RouteResult* out) const;

  std::string name() const override {
    return refine_ ? "approx-cost(§3.3)" : "approx-cost(no-refine)";
  }

 private:
  bool refine_;
  net::ProtectPolicy policy_;
  /// Warm per-route scratches (aux builder + Suurballe workspace + buffers)
  /// reused across route() calls; a pool (rather than one scratch) keeps
  /// concurrent route() calls safe, keyed so each caller's network gets its
  /// own warm state back.
  mutable RouteScratchPool scratch_;
};

}  // namespace wdm::rwa
