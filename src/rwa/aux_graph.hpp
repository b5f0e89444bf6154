// The paper's auxiliary graphs: G' (§3.3.1), G_c (§4.1) and G_rc (§4.2).
//
// All three share one topology recipe over the residual network:
//   * every usable physical link e = <u,v> contributes two *edge-nodes*,
//     u_out^e and v_in^e, joined by a "link arc" u_out^e -> v_in^e;
//   * at every node v, a "transit arc" v_in^e -> v_out^e' exists iff some
//     λ ∈ Λ_avail(e) can be converted at v into some λ' ∈ Λ_avail(e');
//   * hub nodes s' and t'' attach to s's outgoing / t's incoming edge-nodes
//     with zero-weight arcs.
// They differ in which links qualify and how arcs are weighted:
//   G'   — all links with Λ_avail ≠ ∅; link arc = mean traversal cost over
//          Λ_avail(e); transit arc = mean allowed conversion cost.
//   G_c  — only links with load U(e)/N(e) < ϑ; link arc = a^((U+1)/N) −
//          a^(U/N) (exponential load penalty); transit arcs weight 0.
//   G_rc — same ϑ filter as G_c; link arc = Σ_{λ∈Λ_avail} w(e,λ) / N(e)
//          (the paper's formula — note it divides by N(e), not |Λ_avail(e)|;
//          we implement it as written and flag the discrepancy here);
//          transit arc = mean allowed conversion cost, as in G'.
//
// Because each physical link owns exactly one link arc, edge-disjoint paths
// in the auxiliary graph project to edge-disjoint link sets in G — the fact
// Lemma 2 rests on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/path.hpp"
#include "wdm/network.hpp"

namespace wdm::rwa {

enum class AuxWeighting {
  kCost,              // G'  (§3.3.1)
  kLoadExponential,   // G_c (§4.1)
  kCostLoadFiltered,  // G_rc (§4.2)
};

struct AuxGraphOptions {
  AuxWeighting weighting = AuxWeighting::kCost;
  /// Load threshold ϑ for G_c / G_rc: links with U(e)/N(e) >= ϑ are dropped.
  /// Ignored by G'.
  double theta = 1.0;
  /// Make the ϑ filter inclusive (keep links with load == ϑ). The paper's
  /// filter is strict; the inclusive variant lets the exact-threshold oracle
  /// probe "links of load <= L" without floating-point epsilon games.
  bool include_at_threshold = false;
  /// The exponent base a > 1 of the G_c load penalty.
  double load_base = 2.0;
  /// Optional physical-subgraph restriction composed with the other filters.
  std::span<const std::uint8_t> link_enabled = {};

  /// Ablation knob for G_rc: the paper's link weight divides the summed
  /// available-wavelength costs by N(e); `true` divides by |Λ_avail(e)|
  /// instead (a true mean, removing the discount partially-loaded links get
  /// under the paper's formula). See bench_ablations.
  bool grc_mean_over_available = false;

  /// Node-protection gadget (extension beyond the paper): route all transit
  /// at an intermediate physical node through a single hub arc, so
  /// edge-disjoint auxiliary paths are additionally *internally
  /// node-disjoint* in G — protecting single node failures as well (§1's
  /// stronger survivability class). The hub arc carries the node-level mean
  /// conversion cost (exact under the §3.3 full-conversion assumption;
  /// with restricted tables it relaxes per-pair convertibility to per-node).
  bool protect_nodes = false;
};

struct AuxGraph {
  graph::Digraph g;
  std::vector<double> w;
  graph::NodeId s_prime = graph::kInvalidNode;
  graph::NodeId t_second = graph::kInvalidNode;

  /// Physical link that each aux *arc* traverses (kInvalidEdge for transit
  /// and hub arcs).
  std::vector<graph::EdgeId> phys_edge_of_arc;
  /// Physical link each aux *node* is an edge-node of (kInvalidEdge for the
  /// two hubs); `is_in_node` distinguishes v_in^e from u_out^e.
  std::vector<graph::EdgeId> phys_edge_of_node;
  std::vector<std::uint8_t> is_in_node;

  int num_edge_nodes = 0;
  int num_link_arcs = 0;
  int num_transit_arcs = 0;

  /// Physical links traversed by an aux path, in order.
  std::vector<graph::EdgeId> project(const graph::Path& p) const;
  /// Allocation-free variant: clears `*out` (keeping capacity) and appends.
  void project_into(const graph::Path& p,
                    std::vector<graph::EdgeId>* out) const;

  /// Enabled-mask over physical links containing exactly the projection of
  /// `p` — the induced subgraph G_i of §3.3.2.
  std::vector<std::uint8_t> induced_link_mask(const graph::Path& p,
                                              graph::EdgeId num_links) const;
  /// Allocation-free variant: resizes `*out` to num_links and rewrites it.
  void induced_link_mask_into(const graph::Path& p, graph::EdgeId num_links,
                              std::vector<std::uint8_t>* out) const;
};

/// Builds the auxiliary graph for a query s -> t over the current residual
/// network in the compact layout: only usable links get edge-nodes, and only
/// finite arcs exist. A standalone cold construction with no caches — the
/// reference the tests and the Figure 1 bench read node and arc counts from,
/// and the oracle AuxGraphBuilder's arena layout is checked against.
AuxGraph build_aux_graph(const net::WdmNetwork& net, net::NodeId s,
                         net::NodeId t, const AuxGraphOptions& opt = {});

/// Mean allowed conversion cost at v between Λ_avail(e) and Λ_avail(e'):
/// Σ c_v(λa, λb) / K_v over allowed pairs, K_v = number of allowed pairs.
/// Returns false when no pair is convertible (no transit arc).
bool mean_conversion_cost(const net::WdmNetwork& net, net::NodeId v,
                          graph::EdgeId in_link, graph::EdgeId out_link,
                          double* mean_out);

/// Reusable auxiliary-graph builder — the fast path for every per-request
/// construction of G' / G_c / G_rc (§3.3.1, §4.1, §4.2).
///
/// The builder lays the graph out as a stable arena ("universe"): instead of
/// compacting the graph to the currently-usable links, it materializes every
/// structural arc the topology can ever need — node ids computed from the
/// link id (u_out^e = 2e, v_in^e = 2e+1), one link arc per physical link,
/// one transit arc per (in-link, out-link) pair, one s' and one t'' arc per
/// link — finalizes the adjacency into CSR once per bound topology, and
/// thereafter every build only *re-weights* arcs. Disabled arcs carry +inf,
/// which Dijkstra's strict-improvement relaxation never takes. Only arcs
/// whose link_revision / conversion_revision moved are re-weighted, plus the
/// O(deg) s'/t'' wiring on a query change.
///
/// On top of that, mean_conversion_cost results are memoized per
/// (node, in-link, out-link) and per-link available-cost sums per link, both
/// validated against the network's revision counters (see WdmNetwork's
/// cache-invalidation contract): reserve/release/fail on a link only
/// invalidates the entries that touch it.
///
/// Each finite arena arc corresponds one-to-one, by physical identity, to an
/// arc of the compact build_aux_graph of the same query, with a bit-identical
/// weight; the edge-node, link-arc and transit-arc counts agree too. Node and
/// arc *ids* differ. tests/fuzz/test_fuzz_aux_builder.cpp enforces this
/// under randomized churn.
///
/// Not thread-safe; route() implementations that may run concurrently lease
/// one inside a RouteScratch from a RouteScratchPool.
class AuxGraphBuilder {
 public:
  AuxGraphBuilder() = default;

  /// Builds the graph for (s, t) into the internal arena and returns it.
  /// The reference is invalidated by the next build() call. Binding follows
  /// the network's uid(): the first build against a different WdmNetwork
  /// object drops every cache automatically.
  const AuxGraph& build(const net::WdmNetwork& net, net::NodeId s,
                        net::NodeId t, const AuxGraphOptions& opt = {});

  /// uid() of the network the caches are currently bound to (0 = unbound).
  /// RouteScratchPool keys leases on this so a caller gets back a builder
  /// whose caches are warm for *its* network, not whichever network leased
  /// last — the difference between a warm rebuild and a full rebind when
  /// one router serves several networks (sim::replicate's replicas).
  std::uint64_t bound_uid() const { return net_uid_; }

  struct CacheStats {
    std::uint64_t builds = 0;
    std::uint64_t rebinds = 0;      // network changed -> full cache drop
    std::uint64_t conv_hits = 0;    // transit-arc mean served from cache
    std::uint64_t conv_misses = 0;  // recomputed via mean_conversion_cost
    std::uint64_t link_hits = 0;    // link-arc cost sum served from cache
    std::uint64_t link_misses = 0;
  };
  const CacheStats& stats() const { return stats_; }

 private:
  void bind(const net::WdmNetwork& net);
  /// Cached mean_conversion_cost for the transit pair at CSR slot `idx`.
  bool transit_mean(const net::WdmNetwork& net, net::NodeId v,
                    std::size_t idx, graph::EdgeId in_link,
                    graph::EdgeId out_link, double* mean_out);
  /// Cached Σ_{λ∈Λ_avail(e)} w(e, λ) and |Λ_avail(e)|.
  void link_costs(const net::WdmNetwork& net, graph::EdgeId e, double* sum,
                  int* count);

  /// Materializes the full structural arc table and finalizes it into CSR.
  void build_structure(const net::WdmNetwork& net, bool protect);
  /// Re-weights link arc e plus its s'/t'' wiring; maintains counters.
  void patch_link(const net::WdmNetwork& net, graph::EdgeId e, net::NodeId s,
                  net::NodeId t, const AuxGraphOptions& opt);
  /// Re-weights every transit structure at v (pair arcs; hub + fan arcs in
  /// protect mode); maintains the transit-arc counter.
  void patch_node(const net::WdmNetwork& net, net::NodeId v, net::NodeId s,
                  net::NodeId t, const AuxGraphOptions& opt);
  /// Brings every weight in line with (net, s, t, opt), touching only what
  /// moved since the previous build when the options allow.
  void patch_weights(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
                     const AuxGraphOptions& opt);

  static constexpr std::uint64_t kNoRevision = ~std::uint64_t{0};

  // Network binding: caches are valid only for this exact object.
  std::uint64_t net_uid_ = 0;
  graph::NodeId bound_nodes_ = -1;
  graph::EdgeId bound_links_ = -1;

  // Transit-pair cache, CSR-indexed: the pair (i-th in-edge, j-th out-edge)
  // of node v lives at pair_base_[v] + i * out_degree(v) + j.
  std::vector<std::size_t> pair_base_;
  std::vector<std::uint64_t> pair_in_rev_;
  std::vector<std::uint64_t> pair_out_rev_;
  std::vector<std::uint64_t> pair_conv_rev_;
  std::vector<std::uint8_t> pair_has_;
  std::vector<double> pair_mean_;

  // Per-link available-cost cache.
  std::vector<std::uint64_t> link_rev_seen_;
  std::vector<double> link_sum_;
  std::vector<int> link_cnt_;

  // Arena. Structure (node/arc ids) is a pure function of the bound
  // topology and the protect flag; weights are patched per build.
  AuxGraph aux_;
  bool uni_ready_ = false;
  bool uni_protect_ = false;
  bool uni_weights_valid_ = false;  // false until the first weight patch
  bool uni_had_mask_ = false;       // last build used a link_enabled mask
  AuxGraphOptions uni_opt_;         // options of the last weight patch
  net::NodeId uni_s_ = graph::kInvalidNode;
  net::NodeId uni_t_ = graph::kInvalidNode;
  std::uint64_t uni_net_rev_ = 0;   // revision() at last patch (fast skip)
  std::vector<std::uint64_t> uni_link_rev_;  // per-link revision last seen
  std::vector<std::uint64_t> uni_conv_rev_;  // per-node conversion revision
  std::vector<std::uint8_t> uni_usable_;     // usable(e) at last patch
  std::vector<int> uni_node_transit_;   // finite transit arcs contributed by v
  std::vector<graph::EdgeId> uni_fan_in_arc_;   // protect: arc v_in^e -> hub
  std::vector<graph::EdgeId> uni_fan_out_arc_;  // protect: arc hub -> u_out^e
  graph::EdgeId uni_hub_arc_base_ = 0;  // protect: hub arc of v = base + v
  graph::EdgeId uni_sprime_arc_base_ = 0;  // s' arc of link e = base + e
  graph::EdgeId uni_tsec_arc_base_ = 0;    // t'' arc of link e = base + e
  std::vector<std::uint8_t> uni_node_mark_;   // scratch: dedup changed nodes
  std::vector<net::NodeId> uni_changed_nodes_;  // scratch

  CacheStats stats_;
};

}  // namespace wdm::rwa
