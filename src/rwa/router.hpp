// The routing-policy interface shared by the paper's algorithms, the exact
// solvers, and the baselines. The dynamic-traffic simulator is parameterized
// over this interface.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "wdm/semilightpath.hpp"

namespace wdm::rwa {

/// Why a request was blocked: the exit of the protection stage that gave up
/// (RouteResult::blocked_by).
enum class BlockedBy : std::uint8_t {
  /// Not blocked, or blocked by a router that attributes no cause (the
  /// baselines and the exact solvers).
  kNone,
  /// No two edge-disjoint paths in the auxiliary graph (protect_on_aux), or
  /// an SRLG search that proved none is SRLG-disjoint.
  kNoAuxPair,
  /// The pair's realization failed: Lemma 2 refinement or first-fit found
  /// no semilightpath in a path's induced subgraph (realize_pair).
  kRefineInfeasible,
  /// The ϑ search found no feasible rung up to ϑ_max (protect_on_theta).
  kThetaExhausted,
  /// The SRLG conflict-set search stopped at its candidate budget without
  /// a pair.
  kSrlgCandidateCap,
  /// Partial protection: no primary, or no backup around its risky links
  /// (route_partial).
  kPartialClosure,
};
inline constexpr int kNumBlockedCauses = 6;

/// The cause's name in counters and summaries (`sim.blocked_by.<name>`).
constexpr const char* blocked_by_name(BlockedBy cause) {
  constexpr std::array<const char*, kNumBlockedCauses> kNames = {
      "none",           "no_aux_pair",        "refine_infeasible",
      "theta_exhausted", "srlg_candidate_cap", "partial_closure"};
  return kNames[static_cast<std::size_t>(cause)];
}

struct RouteResult {
  net::ProtectedRoute route;
  bool found = false;

  /// For the load-aware routers (§4): the final threshold ϑ accepted by the
  /// doubling search and the number of G_c constructions it took.
  double theta = std::numeric_limits<double>::quiet_NaN();
  int theta_iterations = 0;

  /// Weighted total of the two auxiliary-graph paths (the quantity
  /// Suurballe minimized) — an upper bound on the delivered cost (Lemma 2).
  double aux_cost = std::numeric_limits<double>::quiet_NaN();

  /// SRLG policy only: the conflict-set search proved its answer (candidate
  /// enumeration closed) rather than hitting its candidate budget. The fuzz
  /// completeness oracle only judges blocked results carrying this flag.
  bool srlg_exhaustive = false;

  /// Blocked results: the stage exit that blocked the request.
  BlockedBy blocked_by = BlockedBy::kNone;

  double total_cost(const net::WdmNetwork& net) const {
    return route.total_cost(net);
  }

  /// Restores the default-constructed state while keeping the capacity of
  /// every nested vector — the recycled-result side of the allocation-free
  /// route path (ApproxDisjointRouter::route_into).
  void reset_keep_capacity() {
    route.primary.hops.clear();
    route.primary.found = false;
    route.backup.hops.clear();
    route.backup.found = false;
    route.avoid.clear();
    route.found = false;
    route.policy = net::ProtectPolicy{};
    found = false;
    theta = std::numeric_limits<double>::quiet_NaN();
    theta_iterations = 0;
    aux_cost = std::numeric_limits<double>::quiet_NaN();
    srlg_exhaustive = false;
    blocked_by = BlockedBy::kNone;
  }
};

class Router {
 public:
  virtual ~Router() = default;

  /// Computes a protected route for the request (s, t) against the network's
  /// current residual state. Must not mutate the network: reservation is the
  /// caller's (simulator's) decision.
  virtual RouteResult route(const net::WdmNetwork& net, net::NodeId s,
                            net::NodeId t) const = 0;

  virtual std::string name() const = 0;
};

using RouterPtr = std::unique_ptr<Router>;

}  // namespace wdm::rwa
