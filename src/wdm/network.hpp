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

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "support/check.hpp"
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

  /// Adds the fibers tails[i] -> heads[i], fiber i carrying installed[i] at
  /// the W costs cost_per_lambda[i*W .. i*W + W), with the ids and checks of
  /// as many add_link calls. The graph is rebuilt once, O(n + m), where
  /// each add_link inserts in O(n + m); a rejected batch adds nothing.
  void add_links(std::span<const NodeId> tails, std::span<const NodeId> heads,
                 std::span<const WavelengthSet> installed,
                 std::span<const double> cost_per_lambda);

  /// Adds u -> v and v -> u with identical inventory and cost.
  std::pair<EdgeId, EdgeId> add_duplex(NodeId u, NodeId v,
                                       WavelengthSet installed,
                                       double uniform_cost);

  void set_conversion(NodeId v, ConversionTable table);
  const ConversionTable& conversion(NodeId v) const {
    WDM_CHECK(g_.valid_node(v));
    return conv_[static_cast<std::size_t>(v)];
  }

  /// Λ(e): wavelengths installed on the fiber.
  WavelengthSet installed(EdgeId e) const {
    WDM_CHECK(g_.valid_edge(e));
    return installed_[static_cast<std::size_t>(e)];
  }
  /// Λ_avail(e): installed and not currently in use (the residual network).
  /// Empty while the link is failed — a fiber cut takes out every channel.
  WavelengthSet available(EdgeId e) const {
    WDM_CHECK(g_.valid_edge(e));
    if (failed_[static_cast<std::size_t>(e)]) return WavelengthSet{};
    return installed_[static_cast<std::size_t>(e)].minus(
        used_[static_cast<std::size_t>(e)]);
  }

  /// Failure state (fiber cut). Routing sees a failed link as having no
  /// available wavelengths; existing reservations on it persist until their
  /// connections are torn down or restored.
  void set_link_failed(EdgeId e, bool failed);
  bool link_failed(EdgeId e) const;
  int num_failed_links() const;
  /// N(e) = |Λ(e)|.
  int capacity(EdgeId e) const { return installed(e).count(); }
  /// U(e): wavelengths in use by existing routes.
  int usage(EdgeId e) const {
    WDM_CHECK(g_.valid_edge(e));
    return used_[static_cast<std::size_t>(e)].count();
  }

  /// ρ(e) = U(e) / N(e) — Eq. (2).
  double link_load(EdgeId e) const {
    return static_cast<double>(usage(e)) / static_cast<double>(capacity(e));
  }
  /// ρ = max_e ρ(e) — the network load. O(W): read off per-capacity usage
  /// counts kept by every usage mutation (see "Load bookkeeping" below).
  double network_load() const;
  /// Mean link load — reported alongside ρ in the benches. O(1) when every
  /// N(e) is a power of two, else a scan over the links.
  double mean_load() const;

  /// w(e, λ). Requires λ ∈ Λ(e).
  double weight(EdgeId e, Wavelength l) const {
    WDM_CHECK(g_.valid_edge(e));
    WDM_CHECK_MSG(installed(e).contains(l), "w(e,λ) undefined: λ ∉ Λ(e)");
    return weight_[static_cast<std::size_t>(e) * static_cast<std::size_t>(w_) +
                   static_cast<std::size_t>(l)];
  }

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
  // bumps no revision counter and AuxGraphBuilder's record stays warm (see
  // the cache-invalidation contract below).

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

  /// ϑ_min / ϑ_max of §4.1: min / max over links of (U(e)+1)/N(e). O(W²)
  /// at worst, O(W) per capacity present: read off the load bookkeeping.
  double theta_min() const;
  double theta_max() const;

  /// Per link, ρ(e) while Λ_avail(e) ≠ ∅ and +inf otherwise (bit-equal to
  /// available(e).empty() ? +inf : link_load(e)): link e is open at a load
  /// threshold ϑ iff residual_loads()[e] < ϑ, and in the residual network
  /// iff it is below +inf. Kept by the load bookkeeping below.
  std::span<const double> residual_loads() const { return residual_load_; }

  // --- Cache-invalidation contract (rwa::AuxGraphBuilder) ----------------
  //
  // External caches over the residual network key their entries on these
  // monotone counters; a cached value derived from available(e) (resp.
  // conversion(v)) is valid exactly while link_revision(e) (resp.
  // conversion_revision(v)) is unchanged, uid() still matches, and the node
  // and link counts are the ones the cache was sized for. One reader
  // depends on it: rwa::AuxGraphBuilder re-weights only the links whose
  // revision moved and the nodes whose conversion revision moved since its
  // last build (it reads which links are open from residual_loads(), which
  // needs no key). A mutation that changes available(e), usage(e) or
  // conversion(v) without bumping its counter leaves the builder stale.
  //
  // What bumps them:
  //   * reserve / release          -> link_revision(e)
  //   * set_link_failed (on a real
  //     state change only)         -> link_revision(e)
  //   * restore_usage              -> link_revision of every link whose
  //                                   usage actually changed
  //   * set_conversion             -> conversion_revision(v)
  // What bumps none of them:
  //   * add_node / add_link        -> topology growth; a new node or link
  //                                   starts at revision 0, and
  //                                   AuxGraphBuilder rebinds on a node or
  //                                   link count change
  //   * add_srlg                   -> SRLG membership never affects
  //                                   available(e)
  //   * any const query, and mutations that provably leave the residual
  //     state untouched (set_link_failed to the current state).
  // Λ(e) and w(e, λ) are immutable after add_link and carry no counter of
  // their own.

  // --- Load bookkeeping ----------------------------------------------------
  //
  // reserve, release, restore_usage and link growth keep, next to the
  // revisions, the number of links at each (N, U) and, per capacity N, the
  // highest U any link of that capacity holds. network_load() is the max
  // over capacities of that U / N: the same double link_load() computes for
  // the busiest link, so the max equals the scan's bit for bit. theta_max()
  // reads (U + 1) / N at the same U, and theta_min() at the least U with a
  // link of capacity N, likewise bit-equal to the scans. For
  // mean_load() they keep Σ U(e)·(64 / N(e)) over links whose N(e) is a
  // power of two. Such a U / N is a multiple of 1/64 and every partial sum
  // of them is exact in a double, so the scan's in-order sum is that
  // integer / 64 exactly, whatever the order; with any other capacity
  // present mean_load() scans. Failures change neither U nor N, so
  // set_link_failed leaves those counts alone. residual_loads() is
  // rewritten for link e wherever available(e) or U(e) can change: on
  // reserve, release, link growth, a restore_usage that changes U(e), and
  // a set_link_failed that changes the failure state. Each entry is
  // link_load()'s division, or +inf when the link is failed or U = N (the
  // used set lies inside Λ(e)), so it equals the accessors' expression bit
  // for bit. The reads mutate nothing, so concurrent readers of a const
  // network stay safe.

  /// Monotone per-link counter covering everything available(e) depends on.
  std::uint64_t link_revision(EdgeId e) const {
    WDM_CHECK(g_.valid_edge(e));
    return link_rev_[static_cast<std::size_t>(e)];
  }
  /// Monotone per-node counter over conversion-table replacement.
  std::uint64_t conversion_revision(NodeId v) const {
    WDM_CHECK(g_.valid_node(v));
    return conv_rev_[static_cast<std::size_t>(v)];
  }
  /// Process-unique object identity; fresh for every constructed, copied, or
  /// moved-into instance (never recycled, unlike addresses).
  std::uint64_t uid() const { return uid_; }

 private:
  /// add_link's checks on one fiber's inventory and costs.
  void check_link(WavelengthSet installed,
                  std::span<const double> cost_per_lambda) const;
  /// Appends one fiber's per-link state (the graph edge is the caller's).
  void push_link_state(WavelengthSet installed,
                       std::span<const double> cost_per_lambda);
  /// Moves one link of capacity `n` from usage `from` to `to` in the load
  /// bookkeeping (from = -1: a new link).
  void move_load(int n, int from, int to);
  /// After U(e) went from `from` to `to` or the failure state of e flipped
  /// (from == to): bumps link_revision(e), moves e in the load counts and
  /// rewrites residual_loads()[e].
  void link_changed(EdgeId e, int from, int to);

  /// Links at (N, U), flattened as N·(W + 1) + U.
  int& links_at(int n, int u) {
    return links_at_[static_cast<std::size_t>(n * (w_ + 1) + u)];
  }
  int links_at(int n, int u) const {
    return links_at_[static_cast<std::size_t>(n * (w_ + 1) + u)];
  }

  graph::Digraph g_;
  int w_;
  std::vector<ConversionTable> conv_;
  std::vector<WavelengthSet> installed_;
  std::vector<WavelengthSet> used_;
  std::vector<std::uint8_t> failed_;
  std::vector<double> weight_;  // m * W, row per edge

  std::vector<Srlg> srlgs_;
  std::vector<std::vector<int>> srlg_of_link_;  // lazily sized to num_links

  std::vector<std::uint64_t> link_rev_;
  std::vector<std::uint64_t> conv_rev_;

  std::vector<int> links_at_;   // (W + 1)²: links per (N, U)
  std::vector<int> top_usage_;  // per N: highest U held, -1 = no such link
  std::int64_t load_64ths_ = 0;  // Σ U·(64 / N) over power-of-two N
  int non_dyadic_links_ = 0;     // links whose N is not a power of two
  std::vector<double> residual_load_;  // per link: ρ(e), +inf if unusable
  std::uint64_t uid_;
};

}  // namespace wdm::net
