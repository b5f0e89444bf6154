// SRLG-aware protected routing: the Suurballe stage strengthened from
// edge-disjoint to shared-risk-group-disjoint backups, plus the
// partial-protection mode (only failure-prone primary segments get backup
// coverage — the LP-relaxation-for-partial-path-protection viewpoint).
//
// SRLG-disjointness is strictly stronger than edge-disjointness, so the
// strengthened stage works on *conflict sets over the auxiliary-graph arcs*:
// for a candidate primary, every arc whose physical link is on the primary
// or shares an SRLG with a primary link is masked out before the backup
// search. Candidate primaries come from Yen's enumerator in nondecreasing
// cost; when the minimum edge-disjoint pair (plain Suurballe) happens to be
// SRLG-disjoint it is returned directly — which is also the optimality- and
// bit-for-bit-compatibility fast path: on a network with no SRLGs declared
// that branch always fires and the result is exactly plain Suurballe's.
#pragma once

#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/router.hpp"

namespace wdm::rwa {

struct SrlgPairResult {
  /// The chosen pair of SRLG-disjoint auxiliary paths (found == false when
  /// none was identified within the candidate budget of 32 Yen primaries).
  graph::DisjointPair pair;
  /// True when the search *proved* its answer: either the candidate
  /// enumeration exhausted every simple auxiliary path, cost-monotonicity
  /// closed the search early, or no edge-disjoint pair exists at all (a
  /// fortiori no SRLG-disjoint one). The fuzz completeness oracle only
  /// judges blocked results that carry this flag.
  bool exhaustive = false;
};

/// Find_Two_Paths with SRLG conflict sets over `aux`'s arcs. Falls back to
/// (and is bit-for-bit identical with) plain Suurballe when the network
/// declares no SRLGs. Masks *every* arc of the candidate primary, so under
/// the node-protection gadget the returned pair stays internally
/// node-disjoint as well.
SrlgPairResult srlg_disjoint_pair(const net::WdmNetwork& net,
                                  const AuxGraph& aux);

/// Partial protection: route the primary by pure cost (Liang–Shen over the
/// full residual), then protect it only if some primary link has
/// link_failure_probability > threshold. The backup must avoid every risky
/// link and every link sharing an SRLG with one, and shares no (link, λ)
/// channel with the primary (safe links may be reused at other wavelengths).
/// A primary with no risky link is accepted unprotected; a risky primary
/// whose backup search fails is blocked. Shared by all four routers — in
/// this mode their objectives coincide on the primary by design.
RouteResult route_partial(const net::WdmNetwork& net, net::NodeId s,
                          net::NodeId t, double threshold);

}  // namespace wdm::rwa
