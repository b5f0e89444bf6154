// The WDM network model G = (V, E, Λ) of §2.
//
// Structure lives in a graph::Digraph; per-link wavelength inventory Λ(e),
// in-use set, and per-(link, wavelength) traversal costs w(e, λ), plus
// per-node conversion tables c_v(·,·), live here. The *residual network*
// G(V, E, Λ_avail) of §3.3.1 is implicit: available(e) = installed minus
// used, so routing always sees the current residual state without copying.
//
// Usage mutation (reserve/release) is how the dynamic-traffic simulator
// models connections holding wavelengths; network_load() is Eq. (2).
#pragma once

#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "wdm/conversion.hpp"
#include "wdm/wavelength.hpp"

namespace wdm::net {

using graph::EdgeId;
using graph::NodeId;

/// A shared-risk link group: a set of fibers that fail together (same
/// conduit, same amplifier hut, ...) with a declared probability of the
/// group failing during a unit of exposure. SRLG-disjoint protection
/// requires primary and backup to share no group.
struct Srlg {
  std::vector<EdgeId> links;          // sorted, unique member fibers
  double failure_probability = 0.0;   // in [0, 1]
};

class WdmNetwork {
 public:
  /// A network over `num_wavelengths` channels with `num_nodes` nodes, each
  /// initially with identity-only (no) conversion capability.
  WdmNetwork(NodeId num_nodes, int num_wavelengths);

  /// Copies and moves produce a *distinct* object: the target gets a fresh
  /// uid() so external caches keyed on the source never match it.
  WdmNetwork(const WdmNetwork& other);
  WdmNetwork& operator=(const WdmNetwork& other);
  WdmNetwork(WdmNetwork&& other) noexcept;
  WdmNetwork& operator=(WdmNetwork&& other) noexcept;
  ~WdmNetwork() = default;

  const graph::Digraph& graph() const { return g_; }
  int W() const { return w_; }
  NodeId num_nodes() const { return g_.num_nodes(); }
  EdgeId num_links() const { return g_.num_edges(); }

  NodeId add_node() { return add_node(ConversionTable::none(w_)); }
  NodeId add_node(ConversionTable conversion);

  /// Adds a unidirectional fiber u -> v carrying `installed` wavelengths,
  /// each at traversal cost `uniform_cost` (the paper's assumption (ii)).
  EdgeId add_link(NodeId u, NodeId v, WavelengthSet installed,
                  double uniform_cost);

  /// Adds a fiber with per-wavelength traversal costs; `cost_per_lambda` is
  /// indexed by wavelength (size W); entries outside `installed` are ignored.
  EdgeId add_link(NodeId u, NodeId v, WavelengthSet installed,
                  std::span<const double> cost_per_lambda);

  /// Adds u -> v and v -> u with identical inventory and cost.
  std::pair<EdgeId, EdgeId> add_duplex(NodeId u, NodeId v,
                                       WavelengthSet installed,
                                       double uniform_cost);

  void set_conversion(NodeId v, ConversionTable table);
  const ConversionTable& conversion(NodeId v) const;

  /// Λ(e): wavelengths installed on the fiber.
  WavelengthSet installed(EdgeId e) const;
  /// Λ_avail(e): installed and not currently in use (the residual network).
  /// Empty while the link is failed — a fiber cut takes out every channel.
  WavelengthSet available(EdgeId e) const;

  /// Failure state (fiber cut). Routing sees a failed link as having no
  /// available wavelengths; existing reservations on it persist until their
  /// connections are torn down or restored.
  void set_link_failed(EdgeId e, bool failed);
  bool link_failed(EdgeId e) const;
  int num_failed_links() const;
  /// N(e) = |Λ(e)|.
  int capacity(EdgeId e) const { return installed(e).count(); }
  /// U(e): wavelengths in use by existing routes.
  int usage(EdgeId e) const;

  /// ρ(e) = U(e) / N(e) — Eq. (2).
  double link_load(EdgeId e) const;
  /// ρ = max_e ρ(e) — the network load.
  double network_load() const;
  /// Mean link load — reported alongside ρ in the benches.
  double mean_load() const;

  /// w(e, λ). Requires λ ∈ Λ(e).
  double weight(EdgeId e, Wavelength l) const;

  /// Cheapest installed wavelength cost on e (lower bound used by the exact
  /// solver and the physical-graph baselines).
  double min_weight(EdgeId e) const;
  /// Mean of w(e, λ) over Λ_avail(e) — the auxiliary-graph link weight of
  /// §3.3.1. Requires a nonempty available set.
  double mean_available_weight(EdgeId e) const;

  bool is_used(EdgeId e, Wavelength l) const;

  /// Marks λ in use on e. Requires λ available.
  void reserve(EdgeId e, Wavelength l);
  /// Frees λ on e. Requires λ in use.
  void release(EdgeId e, Wavelength l);

  /// Total reserved wavelength-links (for leak detection in tests).
  long long total_usage() const;

  /// Usage snapshot/restore — the simulator's reconfiguration step re-routes
  /// all live connections against an empty network and rolls back on failure.
  std::vector<std::uint64_t> usage_snapshot() const;
  void restore_usage(std::span<const std::uint64_t> snapshot);

  // --- Shared-risk link groups -------------------------------------------
  //
  // SRLGs are *annotations*: they never change Λ_avail(e), so declaring one
  // bumps revision() only — per-link counters stay put and AuxGraphBuilder
  // caches remain warm (see the cache-invalidation contract below).

  /// Declares a group of `links` that fail together with probability
  /// `failure_probability` ∈ [0, 1]. Members are deduplicated and sorted;
  /// the group must end up with >= 1 member and every member must be a
  /// valid link. Returns the new group id (dense, 0-based).
  int add_srlg(std::vector<EdgeId> links, double failure_probability);

  int num_srlgs() const { return static_cast<int>(srlgs_.size()); }
  const Srlg& srlg(int g) const;
  /// Ids of every group containing e (possibly empty).
  std::span<const int> srlgs_of_link(EdgeId e) const;
  /// True iff a and b belong to at least one common group.
  bool links_share_srlg(EdgeId a, EdgeId b) const;
  /// P[e fails] = 1 - Π_{g ∋ e} (1 - p_g); 0 for links in no group. A
  /// link's standalone failure probability is modeled as a singleton group.
  double link_failure_probability(EdgeId e) const;

  /// ϑ_min / ϑ_max of §4.1: min / max over links of (U(e)+1)/N(e).
  double theta_min() const;
  double theta_max() const;

  // --- Cache-invalidation contract (rwa::AuxGraphBuilder and friends) -----
  //
  // External caches over the residual network key their entries on these
  // monotone counters; a cached value derived from available(e) (resp.
  // conversion(v)) is valid exactly while link_revision(e) (resp.
  // conversion_revision(v)) is unchanged and uid() still matches.
  //
  // What bumps them:
  //   * reserve / release          -> link_revision(e), revision()
  //   * set_link_failed (on a real
  //     state change only)         -> link_revision(e), revision()
  //   * restore_usage              -> link_revision of every link whose
  //                                   usage actually changed, revision()
  //   * set_conversion             -> conversion_revision(v), revision()
  //   * add_node / add_link        -> revision() (topology growth)
  //   * add_srlg                   -> revision() only: SRLG membership never
  //                                   affects available(e), so per-link
  //                                   counters stay put and builder caches
  //                                   stay valid
  // What must NOT bump them: any const query, and mutations that provably
  // leave the residual state untouched (set_link_failed to the current
  // state). Λ(e) and w(e, λ) are immutable after add_link and carry no
  // counter of their own.

  /// Monotone counter over *all* mutations (topology, usage, failure,
  /// conversion). Equal revisions on the same uid() imply an identical
  /// network state.
  std::uint64_t revision() const { return revision_; }
  /// Monotone per-link counter covering everything available(e) depends on.
  std::uint64_t link_revision(EdgeId e) const;
  /// Monotone per-node counter over conversion-table replacement.
  std::uint64_t conversion_revision(NodeId v) const;
  /// Process-unique object identity; fresh for every constructed, copied, or
  /// moved-into instance (never recycled, unlike addresses).
  std::uint64_t uid() const { return uid_; }

 private:
  graph::Digraph g_;
  int w_;
  std::vector<ConversionTable> conv_;
  std::vector<WavelengthSet> installed_;
  std::vector<WavelengthSet> used_;
  std::vector<std::uint8_t> failed_;
  std::vector<double> weight_;  // m * W, row per edge

  std::vector<Srlg> srlgs_;
  std::vector<std::vector<int>> srlg_of_link_;  // lazily sized to num_links

  std::uint64_t revision_ = 0;
  std::vector<std::uint64_t> link_rev_;
  std::vector<std::uint64_t> conv_rev_;
  std::uint64_t uid_;
};

}  // namespace wdm::net
