// Semilightpaths (§2): a link sequence with a specific wavelength per link,
// implying a conversion at every intermediate node where the wavelength
// changes. cost() is exactly Eq. (1).
//
// A *lightpath* is the conversion-free special case (single wavelength end
// to end) — `is_lightpath()` detects it.
#pragma once

#include <vector>

#include "wdm/network.hpp"

namespace wdm::net {

struct Hop {
  EdgeId edge = graph::kInvalidEdge;
  Wavelength lambda = kInvalidWavelength;

  friend bool operator==(const Hop&, const Hop&) = default;
};

struct Semilightpath {
  std::vector<Hop> hops;
  bool found = false;

  static Semilightpath not_found() { return {}; }

  NodeId source(const WdmNetwork& net) const;
  NodeId destination(const WdmNetwork& net) const;

  std::size_t length() const { return hops.size(); }

  /// Eq. (1): Σ w(e_i, λ_i) + Σ c_{head(e_i)}(λ_i, λ_{i+1}).
  double cost(const WdmNetwork& net) const;

  /// Number of intermediate nodes whose converter switch is actually set
  /// (wavelength changes across the node).
  int conversions(const WdmNetwork& net) const;

  /// Structural validity: link contiguity, every λ_i installed on e_i, and
  /// every implied conversion allowed by the node's table.
  bool well_formed(const WdmNetwork& net) const;

  /// well_formed AND every (e_i, λ_i) currently available — i.e. the path is
  /// realizable in the residual network right now.
  bool fits_residual(const WdmNetwork& net) const;

  std::vector<EdgeId> physical_edges() const;

  /// True when all hops use one wavelength (no conversion needed).
  bool is_lightpath() const;

  /// Reserves / releases every (e_i, λ_i) in the network. reserve_in is
  /// all-or-nothing: requires fits_residual beforehand.
  void reserve_in(WdmNetwork& net) const;
  void release_in(WdmNetwork& net) const;
};

/// §2: two semilightpaths are edge-disjoint iff they share no physical link
/// (wavelengths are irrelevant — a fiber cut takes out every λ on the fiber).
bool edge_disjoint(const Semilightpath& a, const Semilightpath& b);

/// SRLG-disjoint: edge-disjoint AND no link of `a` shares a shared-risk
/// group with a link of `b`. Strictly stronger than edge_disjoint; on a
/// network with no SRLGs declared the two predicates coincide.
bool srlg_disjoint(const WdmNetwork& net, const Semilightpath& a,
                   const Semilightpath& b);

/// What "protected" means for a route — the §2 edge-disjoint predicate, its
/// SRLG-disjoint strengthening, or partial protection in the spirit of LP
/// relaxations for partial path protection: only primary links whose
/// declared failure probability exceeds a threshold need backup coverage.
enum class ProtectKind { kFull, kSrlg, kPartial };

struct ProtectPolicy {
  ProtectKind kind = ProtectKind::kFull;
  /// kPartial only: links with link_failure_probability > threshold are
  /// "risky" and must be avoided by the backup.
  double threshold = 0.0;

  static ProtectPolicy full() { return {ProtectKind::kFull, 0.0}; }
  static ProtectPolicy srlg() { return {ProtectKind::kSrlg, 0.0}; }
  static ProtectPolicy partial(double p) { return {ProtectKind::kPartial, p}; }

  friend bool operator==(const ProtectPolicy&, const ProtectPolicy&) = default;
};

/// A provisioned robust route: primary + backup, disjoint per `policy`.
///
/// Under kPartial the backup is optional (absent when no primary link is
/// risky) and may share *safe* links with the primary — never a (link, λ)
/// pair, and never a link in `avoid` (the risky links plus their SRLG
/// co-members, recorded by the router that built the route).
struct ProtectedRoute {
  Semilightpath primary;
  Semilightpath backup;
  bool found = false;
  ProtectPolicy policy{};          // defaults to kFull: pre-SRLG semantics
  std::vector<EdgeId> avoid;       // kPartial: links backup must not touch

  double total_cost(const WdmNetwork& net) const {
    return primary.cost(net) + (backup.found ? backup.cost(net) : 0.0);
  }

  /// The policy's feasibility predicate against the current residual.
  /// kFull keeps the exact pre-SRLG behavior: found AND both paths fit AND
  /// edge-disjoint. kSrlg strengthens disjointness to srlg_disjoint.
  /// kPartial: primary fits; if a backup exists it fits, avoids `avoid`,
  /// and shares no (link, λ) hop with the primary; a missing backup is
  /// feasible only when nothing was risky (avoid empty).
  bool feasible(const WdmNetwork& net) const;

  void reserve_in(WdmNetwork& net) const;
  void release_in(WdmNetwork& net) const;
};

}  // namespace wdm::net
