// The paper's exact method: the 0/1 integer program of §3.1 (Eqs. 3–21),
// solved with the in-tree simplex + branch & bound (src/ilp).
//
// Encoding notes relative to the paper:
//   * x_ij^(l) / y_ij^(l) exist only for λ_l ∈ Λ_avail(<v_i,v_j>) — absent
//     wavelengths are fixed to 0 by omission.
//   * The conversion-cost equalities (17)/(18) read literally would force
//     z_ijk negative when a link pair is unused; we apply the standard
//     linearization the paper intends: z ≥ c·(x_in + x_out − 1) for every
//     allowed wavelength pair, z ≥ 0, with z minimized in Eq. (3).
//   * Wavelength pairs the node's table cannot convert get the forbidding
//     cut x_in^(l1) + x_out^(l2) ≤ 1 (the paper assumes all conversions are
//     priced; our model admits restricted tables).
//
// Solving the IP is the expensive path (§3.3's motivation); bench E9 measures
// it against the enumeration-based exact solver, which must agree.
#pragma once

#include "ilp/branch_and_bound.hpp"
#include "rwa/router.hpp"

namespace wdm::rwa {

struct IlpRouteOptions {
  long max_nodes = 100000;
};

struct IlpRouteResult {
  RouteResult result;
  ilp::IpStatus status = ilp::IpStatus::kInfeasible;
  long nodes_explored = 0;
  int num_variables = 0;
  int num_constraints = 0;
  /// IP objective (Eq. 3) — equals result cost when found.
  double objective = 0.0;
};

IlpRouteResult ilp_disjoint_pair(const net::WdmNetwork& net, net::NodeId s,
                                 net::NodeId t,
                                 const IlpRouteOptions& opt = {});

}  // namespace wdm::rwa
