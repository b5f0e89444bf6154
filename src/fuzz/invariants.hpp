// The invariant library of the differential fuzz harness.
//
// Each check re-derives a property from first principles — deliberately NOT
// by calling the library method under test — and reports a Violation when
// the routers' output (or the library's own accounting) disagrees. The
// properties encode the paper's contracts:
//
//   * structural: primary/backup run s -> t, every hop realizable in the
//     residual network, wavelength continuity between conversions,
//     edge-disjointness (§2), internal node-disjointness for the
//     node-disjoint extension;
//   * cost: independent Eq. (1) re-accounting of every returned path;
//     the Lemma 2 upper bound (delivered cost <= auxiliary-graph weight) and
//     the Theorem 2 ratio (approx <= 2 x exact) inside the §3.3 assumptions;
//   * load: every link of a Version 2 route respects the accepted threshold
//     ϑ (the G_c filter), and ρ after reservation matches an independent
//     recomputation of Eq. (2);
//   * differential: approx-vs-exact existence agreement, enumeration-exact
//     vs ILP-exact cost agreement, Suurballe vs min-cost-flow agreement on
//     the auxiliary graph.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fuzz/instance.hpp"
#include "rwa/router.hpp"

namespace wdm::fuzz {

struct Violation {
  std::string invariant;  // short machine-readable id, e.g. "edge-disjoint"
  std::string router;     // offending router name ("" for instance-level)
  std::string detail;     // human-readable explanation

  std::string to_string() const {
    return invariant + (router.empty() ? "" : " [" + router + "]") + ": " +
           detail;
  }
};

struct CheckOptions {
  /// Oracle gates: the exact enumeration runs on instances up to these
  /// sizes; the ILP (much slower) only when `run_ilp` is set by the caller
  /// (the harness samples it).
  bool run_exact = true;
  int exact_max_nodes = 9;
  int exact_max_links = 48;
  long exact_max_candidates = 20000;

  bool run_ilp = false;
  int ilp_max_nodes = 5;
  int ilp_max_wavelengths = 3;

  /// Gates for the brute-force SRLG-disjoint-pair oracle (simple-path pair
  /// enumeration on the physical graph; sound under full conversion only).
  int srlg_exact_max_nodes = 8;
  int srlg_exact_max_links = 24;
  long srlg_exact_max_paths = 4000;

  /// Additional routers checked against the route-level invariants — the
  /// mutation-testing entry point (inject a deliberately broken router and
  /// assert the harness flags it).
  std::vector<const rwa::Router*> extra_routers;

  double eps = 1e-6;
};

/// Independent Eq. (1) re-accounting: Σ w(e_i, λ_i) + Σ c_v(λ_i, λ_{i+1}).
/// Walks raw network tables; never calls Semilightpath::cost.
double recompute_cost_eq1(const net::WdmNetwork& net,
                          const net::Semilightpath& p);

/// ρ = max_e U(e)/N(e) and the mean link load by the O(links) scans that
/// WdmNetwork::network_load() / mean_load() replaced: the oracle for their
/// incremental bookkeeping, which must match these bit for bit.
double scan_network_load(const net::WdmNetwork& net);
double scan_mean_load(const net::WdmNetwork& net);

/// Route-level invariants for one router result on one instance.
/// `requires_backup` = false for the unprotected baseline;
/// `requires_node_disjoint` adds the internal-node-disjointness check;
/// `check_aux_bound` adds the Lemma 2 delivered <= aux_cost check (only
/// sound for the G'-weighted router inside the Theorem 2 regime).
void check_route_result(const FuzzInstance& inst, const rwa::RouteResult& r,
                        const std::string& router, bool requires_backup,
                        bool requires_node_disjoint, bool check_aux_bound,
                        double eps, std::vector<Violation>& out);

/// SRLG-disjointness oracle, independent of the library predicate: scans
/// every group's raw member list (never srlgs_of_link / links_share_srlg /
/// srlg_disjoint) and flags any group touched by both primary and backup.
void check_srlg_disjoint(const FuzzInstance& inst, const rwa::RouteResult& r,
                         const std::string& router,
                         std::vector<Violation>& out);

/// Partial-protection coverage oracle for ProtectPolicy::partial(threshold)
/// output. Recomputes per-link failure probability 1 - Π(1 - p_g) from raw
/// group storage, re-derives the risky set on the primary, and asserts:
/// no backup only when nothing is risky; otherwise the backup dodges every
/// risky link, everything sharing a group with one, and every primary
/// (link, λ) channel.
void check_partial_coverage(const FuzzInstance& inst, const rwa::RouteResult& r,
                            double threshold, const std::string& router,
                            std::vector<Violation>& out);

/// Brute-force SRLG-disjoint-pair existence: enumerate simple physical
/// paths over links with free capacity and test all pairs for edge- and
/// group-disjointness. Exact on *existence* when every node has full
/// conversion (each link on a path then picks its wavelength freely).
/// Returns nullopt when the instance is outside the size/conversion gate or
/// the path count overflows `max_paths`.
std::optional<bool> srlg_pair_exists_bruteforce(const net::WdmNetwork& net,
                                                net::NodeId s, net::NodeId t,
                                                int max_nodes, int max_links,
                                                long max_paths);

/// Runs the full router suite + oracles on the instance and returns every
/// violation found (empty = instance passes).
std::vector<Violation> check_instance(const FuzzInstance& inst,
                                      const CheckOptions& opt = {});

}  // namespace wdm::fuzz
