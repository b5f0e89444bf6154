// The paper's auxiliary graphs: G' (§3.3.1), G_c (§4.1) and G_rc (§4.2).
//
// All three share one topology recipe over the residual network:
//   * every usable physical link e = <u,v> contributes two *edge-nodes*,
//     u_out^e and v_in^e, joined by a "link arc" u_out^e -> v_in^e;
//   * at every node v, a "transit arc" v_in^e -> v_out^e' exists iff some
//     λ ∈ Λ_avail(e) can be converted at v into some λ' ∈ Λ_avail(e');
//   * a source hub s' has a zero-weight arc to each of s's outgoing
//     edge-nodes, and each of t's incoming edge-nodes one to a sink t''.
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
#include "graph/heaps.hpp"
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
  /// Ignored by G'. To keep links of load <= L, pass
  /// ϑ = std::nextafter(L, +inf): for doubles, load < nextafter(L) iff
  /// load <= L.
  double theta = 1.0;
  /// The exponent base a > 1 of the G_c load penalty.
  double load_base = 2.0;

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

  /// AuxGraphBuilder arenas only (kInvalidNode in build_aux_graph's): the
  /// source hub of physical node v is src_hub_base + v, and s_prime =
  /// src_hub(s); in protect mode, hub_in(v) = gadget_base + 2v and hub_out(v)
  /// is one above (gadget_base is kInvalidNode otherwise).
  graph::NodeId src_hub_base = graph::kInvalidNode;
  graph::NodeId gadget_base = graph::kInvalidNode;
  graph::NodeId src_hub(graph::NodeId v) const { return src_hub_base + v; }

  /// Physical link that each aux *arc* traverses (kInvalidEdge for transit
  /// and hub arcs).
  std::vector<graph::EdgeId> phys_edge_of_arc;
  /// Physical link each aux *node* is an edge-node of (kInvalidEdge for hub
  /// nodes); `is_in_node` distinguishes v_in^e from u_out^e.
  std::vector<graph::EdgeId> phys_edge_of_node;
  std::vector<std::uint8_t> is_in_node;

  int num_edge_nodes = 0;
  int num_link_arcs = 0;
  int num_transit_arcs = 0;

  /// AuxGraphBuilder arenas only (empty in build_aux_graph's): τ(v), the
  /// least weight of a transit arc at physical node v — its pair transit
  /// arcs and, in protect mode, its hub arc — +inf when none is finite.
  std::vector<double> min_transit;

  /// Physical links traversed by an aux path, in order.
  std::vector<graph::EdgeId> project(const graph::Path& p) const;
  /// Allocation-free variant: clears `*out` (keeping capacity) and appends.
  void project_into(const graph::Path& p,
                    std::vector<graph::EdgeId>* out) const;

  /// Enabled-mask over physical links containing exactly the projection of
  /// `p` — the induced subgraph G_i of §3.3.2. Resizes `*out` to num_links
  /// and rewrites it (allocation-free once the capacity is there).
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
/// Returns false when no pair is convertible (no transit arc). O(1) word
/// operations for full and none tables, O(range) for limited-range ones,
/// O(|A|·|B|) for general ones (ConversionTable::mean_cost, whose FP
/// contract it inherits).
bool mean_conversion_cost(const net::WdmNetwork& net, net::NodeId v,
                          graph::EdgeId in_link, graph::EdgeId out_link,
                          double* mean_out);

/// Reusable auxiliary-graph builder — the fast path for every per-request
/// construction of G' / G_c / G_rc (§3.3.1, §4.1, §4.2).
///
/// The builder lays the graph out as a stable arena ("universe"): instead of
/// compacting the graph to the currently-usable links, it materializes every
/// structural arc the topology can ever need. Node ids are computed: u_out^e
/// = 2e, v_in^e = 2e+1, t'' = 2m, then one source hub per physical node v at
/// 2m+1+v, then the protect gadget. Arc e is link e's link arc and arc m + e
/// its source-hub arc src_hub(tail e) -> u_out^e, so each hub's arcs follow
/// out_edges(v); then one transit arc per (in-link, out-link) pair, and one
/// t'' arc per link. A query only picks s' = src_hub(s): source hubs have
/// no in-arcs, so no search from s' reaches another node's hub. The arena
/// is a fresh Digraph, bulk-built from its arc table once per network
/// binding and protect flag; thereafter every build only *re-weights* arcs.
/// Disabled arcs carry +inf, which Dijkstra's strict-improvement relaxation
/// never takes.
///
/// A build re-weights only what changed since the previous one. The
/// builder keeps one record of its last build: the weight key (weighting,
/// load_base, grc_mean_over_available, protect), the query (s, t), each
/// link's link_revision and usable flag, and each node's
/// conversion_revision (see WdmNetwork's cache-invalidation contract). A
/// link is usable when its entry of WdmNetwork::residual_loads() is below
/// ϑ (below +inf for G'). A link is dirty when its revision moved or its
/// usable flag flipped (a ϑ-only change flips flags without moving
/// revisions); a transit pair is dirty when one of its two links is; a
/// node is dirty as a whole when its conversion table changed, and in
/// protect mode when it is the old or new s or t. Only dirty entries are
/// re-weighted: a dirty link's source-hub arc (0 if usable, +inf if not)
/// with its link arc. Only the t'' wiring follows the query: it is cleared
/// for the old t and redone for the new one. A rebind, a structure rebuild
/// or a key change makes everything dirty: that is the full pass, on the
/// same code path. Each pair's mean conversion cost is kept as a plain
/// store, recomputed only when a link of the pair moved or its node's table
/// changed; the protect gadget's hub sum and a weighting switch read it.
/// The build also keeps AuxGraph::min_transit (τ) for every node it
/// touches.
///
/// Each finite arena arc other than the arcs of source hubs besides s'
/// corresponds one-to-one, by physical identity, to an arc of the compact
/// build_aux_graph of the same query, with a bit-identical weight; the
/// edge-node, link-arc and transit-arc counts agree too. Node and arc *ids*
/// differ. tests/fuzz/test_fuzz_aux_builder.cpp enforces this
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
  /// object drops every record automatically.
  const AuxGraph& build(const net::WdmNetwork& net, net::NodeId s,
                        net::NodeId t, const AuxGraphOptions& opt = {});

  /// The arena as the last build() left it (the graph build() returned).
  const AuxGraph& last() const { return aux_; }

  /// uid() of the network the builder is currently bound to (0 = unbound).
  /// RouteScratchPool keys leases on this so a caller gets back a builder
  /// whose record is warm for *its* network, not whichever network leased
  /// last — the difference between a dirty-only rebuild and a full rebind
  /// when one router serves several networks (sim::replicate's replicas).
  std::uint64_t bound_uid() const { return net_uid_; }

  /// Per build, every link and every transit pair counts once: a hit is an
  /// entry the build kept, a miss one it recomputed (a link re-weighted, a
  /// pair's mean conversion cost recomputed via mean_conversion_cost).
  struct CacheStats {
    std::uint64_t builds = 0;
    std::uint64_t rebinds = 0;      // network changed -> full record drop
    std::uint64_t conv_hits = 0;    // transit pair whose mean was kept
    std::uint64_t conv_misses = 0;  // recomputed via mean_conversion_cost
    std::uint64_t link_hits = 0;    // link arc kept as the last build left it
    std::uint64_t link_misses = 0;  // link arc re-weighted (a dirty link)
  };
  const CacheStats& stats() const { return stats_; }

 private:
  void bind(const net::WdmNetwork& net);

  /// Writes the full structural arc table and bulk-builds a fresh Digraph
  /// from it. Runs on a rebind or a protect-flag change only.
  void build_structure(const net::WdmNetwork& net, bool protect);
  /// Compares every link with the record; re-weights each dirty link's link
  /// and source-hub arcs, refreshes its revision and usable flag and lists
  /// it in dirty_links_.
  void patch_links(const net::WdmNetwork& net, const AuxGraphOptions& opt,
                   bool all);
  /// Re-weights the transit pair at CSR slot `idx` of node v (in-link e,
  /// out-link e2). `stale` drops the stored mean first.
  void patch_pair(const net::WdmNetwork& net, net::NodeId v, std::size_t idx,
                  graph::EdgeId e, graph::EdgeId e2, bool pair_enabled,
                  bool stale, const AuxGraphOptions& opt);
  /// Re-weights the pairs of every dirty link and every dirty node, and
  /// marks each node they touch in touched_nodes_.
  void patch_pairs(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
                   const AuxGraphOptions& opt);
  /// Recounts a touched node's finite transit arcs, re-weights its protect
  /// gadget (hub and fan arcs) and refreshes τ(v).
  void finish_node(const net::WdmNetwork& net, net::NodeId v, net::NodeId s,
                   net::NodeId t, const AuxGraphOptions& opt);
  /// Brings every weight and counter in line with (net, s, t, opt).
  void patch_weights(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
                     const AuxGraphOptions& opt);

  static constexpr std::uint64_t kNoRevision = ~std::uint64_t{0};

  // Network binding: the record is valid only for this exact object.
  std::uint64_t net_uid_ = 0;
  graph::NodeId bound_nodes_ = -1;
  graph::EdgeId bound_links_ = -1;

  // Transit pairs, CSR-indexed: the pair (i-th in-edge, j-th out-edge) of
  // node v lives at pair_base_[v] + i * out_degree(v) + j; its arena arc is
  // 2m + that slot. in_pos_[e] / out_pos_[e] are link e's index among
  // in_edges(head e) / out_edges(tail e).
  std::vector<std::size_t> pair_base_;
  std::vector<std::uint32_t> in_pos_;
  std::vector<std::uint32_t> out_pos_;
  // Stored mean conversion cost per pair: pair_has_ is kUnknown until
  // computed, then whether a convertible pair exists (pair_mean_ its mean).
  static constexpr std::uint8_t kUnknown = 2;
  std::vector<std::uint8_t> pair_has_;
  std::vector<double> pair_mean_;

  // Record of the last build. rec_valid_ == false makes the next build
  // re-weight everything (after a rebind or a structure rebuild).
  bool rec_valid_ = false;
  AuxWeighting rec_weighting_ = AuxWeighting::kCost;
  double rec_load_base_ = 0.0;
  bool rec_grc_mean_ = false;
  net::NodeId rec_s_ = graph::kInvalidNode;
  net::NodeId rec_t_ = graph::kInvalidNode;
  std::vector<std::uint64_t> rec_link_rev_;
  std::vector<std::uint64_t> rec_conv_rev_;
  std::vector<int> node_transit_;  // finite transit arcs at v

  // Per-build dirty marks, cleared before build() returns.
  static constexpr std::uint8_t kReweighted = 1;  // stored means kept
  static constexpr std::uint8_t kMoved = 2;       // revision moved: dropped
  std::vector<std::uint8_t> link_dirty_;
  std::vector<graph::EdgeId> dirty_links_;
  static constexpr std::uint8_t kTouched = 1;    // some pair re-weighted
  static constexpr std::uint8_t kWhole = 2;      // every pair re-weighted
  static constexpr std::uint8_t kConvMoved = 3;  // ... with stale means
  std::vector<std::uint8_t> node_dirty_;
  std::vector<graph::NodeId> touched_nodes_;

  // Arena. Structure (node/arc ids) is a pure function of the bound
  // topology and the protect flag; weights are patched per build.
  AuxGraph aux_;
  bool uni_ready_ = false;
  bool uni_protect_ = false;
  std::vector<std::uint8_t> uni_usable_;  // usable(e) in the current build
  std::vector<graph::EdgeId> uni_fan_in_arc_;   // protect: arc v_in^e -> hub
  std::vector<graph::EdgeId> uni_fan_out_arc_;  // protect: arc hub -> u_out^e
  graph::EdgeId uni_hub_arc_base_ = 0;  // protect: hub arc of v = base + v
  graph::EdgeId uni_tsec_arc_base_ = 0;    // t'' arc of link e = base + e

  CacheStats stats_;
};

/// The goal-direction bound suurballe_into takes on an AuxGraphBuilder
/// arena (graph/suurballe.hpp): h(x) <= the distance from arena node x to
/// t'' under the arena's weights, computed on the physical graph. τ(v) is
/// the cheapest finite transit at v (the builder's AuxGraph::min_transit),
/// taken as 0 at t because a path may end there. hp(y) is
/// the least Σ w(e) + τ(head e) over physical paths from y to t, where w(e)
/// is the weight of link e's link arc (arena arc e; +inf marks an unusable
/// link): one reverse Dijkstra on the physical graph. Then
///   h(v_in^e) = τ(v) + hp(v) for v = head e,  h(u_out^e) = w(e) + h(v_in^e),
///   h(src_hub(v)) = hp(v) (so h(s') = hp(s)),  h(t'') = 0,
///   h(hub_in(v)) = τ(v) + hp(v),  h(hub_out(v)) = hp(v).
/// Every link owns exactly one link arc and every transit structure at v
/// costs at least τ(v), while source-hub, t'' and fan arcs cost 0, so h is
/// consistent on every arc kind. The layout is read from the arena's
/// explicit hub ids (src_hub_base, gadget_base). A threshold closes links:
/// link e is closed iff WdmNetwork::residual_loads()[e] >= below, so every link
/// outside the residual network is closed whatever the threshold. Closed
/// links are left out of hp, and both edge-nodes of every closed link get
/// h = +inf, so neither Suurballe round enters them (graph/suurballe.hpp).
/// A link outside the residual network has +inf on its link arc and on
/// every arc out of v_in^e in any arena, so +inf is the exact distance
/// from both its edge-nodes and closing it changes no search. On the ϑ_max
/// arena with below = a rung ϑ, h is the arena cut to ϑ, with no arc
/// mask: the arcs skipped are exactly the arcs with an end at a closed
/// edge-node, in the same order, and h bounds, and is consistent on, every
/// arc between open edge-nodes (τ, taken over all arcs, stays a lower
/// bound). Reused across requests: compute() refills the buffers in place.
struct ArenaLowerBound {
  std::vector<double> hp;  // physical node -> bound on the rest
  graph::QuadHeap heap{0};
  std::vector<double> h;  // arena node -> lower bound

  /// Fills the buffers for the query s -> t on `arena` (AuxGraphBuilder's
  /// layout, built for that query on `net`) and returns h. A link whose
  /// residual load is >= below is closed, and h is +inf on its two
  /// edge-nodes.
  std::span<const double> compute(const net::WdmNetwork& net,
                                  const AuxGraph& arena, net::NodeId s,
                                  net::NodeId t, double below = graph::kInf);
};

}  // namespace wdm::rwa
