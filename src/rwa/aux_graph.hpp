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
  /// `p` — the induced subgraph G_i of §3.3.2. Resizes `*out` to num_links
  /// and rewrites it (allocation-free once the capacity is there).
  void induced_link_mask_into(const graph::Path& p, graph::EdgeId num_links,
                              std::vector<std::uint8_t>* out) const;

  /// Arc mask that cuts this graph down to the load threshold ϑ: 0 on every
  /// arc with an end at an edge-node of a link whose load is not below ϑ,
  /// 1 elsewhere; `link_load[e]` is link e's load U(e)/N(e)
  /// (ThetaScratch::snapshot). Neither G_c's nor G_rc's weights depend on
  /// ϑ, so on a G_c / G_rc arena built at ϑ_max = net.theta_max() (every
  /// link's load is below it) the enabled finite arcs are exactly the
  /// finite arcs of a build at ϑ, with the same ids and weights, and
  /// Suurballe under the mask returns that build's pair. Masking only the
  /// link arcs would not do: a transit arc into a cut link's u_out^e would
  /// still reach it as a dead end and reorder Dijkstra's ties. Resizes
  /// `*out` to the arc count and rewrites it: a fill, then the arcs of each
  /// cut edge-node, which at the ϑ a search accepts are few (measured
  /// faster there than one `open(tail) & open(head)` pass over the arcs).
  void threshold_mask_into(std::span<const double> link_load, double theta,
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
/// structural arc the topology can ever need — node ids computed from the
/// link id (u_out^e = 2e, v_in^e = 2e+1), one link arc per physical link,
/// one transit arc per (in-link, out-link) pair, one s' and one t'' arc per
/// link. The arena is a fresh Digraph, bulk-built from its arc table once
/// per network binding and protect flag; thereafter every build only
/// *re-weights* arcs. Disabled arcs carry +inf, which Dijkstra's
/// strict-improvement relaxation never takes.
///
/// Every build re-weights every arc in one pass: each link, then each node.
/// What keeps that pass cheap is two caches — mean_conversion_cost results
/// per (node, in-link, out-link) and available-cost sums per link — both
/// validated against the network's revision counters (see WdmNetwork's
/// cache-invalidation contract): reserve/release/fail on a link only
/// invalidates the entries that touch it, and every other entry is an O(1)
/// hit. The caches are the only place that decides what is stale; the
/// builder keeps no record of the previous build's options or query.
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

  /// The arena as the last build() left it (the graph build() returned).
  const AuxGraph& last() const { return aux_; }

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

  /// Writes the full structural arc table and bulk-builds a fresh Digraph
  /// from it. Runs on a rebind or a protect-flag change only.
  void build_structure(const net::WdmNetwork& net, bool protect);
  /// Re-weights link arc e plus its s'/t'' wiring; counts it if usable.
  void patch_link(const net::WdmNetwork& net, graph::EdgeId e, net::NodeId s,
                  net::NodeId t, const AuxGraphOptions& opt);
  /// Re-weights every transit structure at v (pair arcs; hub + fan arcs in
  /// protect mode) and counts its finite transit arcs. Reads the usable
  /// flags patch_link left, so every link is patched first.
  void patch_node(const net::WdmNetwork& net, net::NodeId v, net::NodeId s,
                  net::NodeId t, const AuxGraphOptions& opt);
  /// Brings every weight and counter in line with (net, s, t, opt).
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
  std::vector<std::uint8_t> uni_usable_;  // usable(e) in the current build
  std::vector<graph::EdgeId> uni_fan_in_arc_;   // protect: arc v_in^e -> hub
  std::vector<graph::EdgeId> uni_fan_out_arc_;  // protect: arc hub -> u_out^e
  graph::EdgeId uni_hub_arc_base_ = 0;  // protect: hub arc of v = base + v
  graph::EdgeId uni_sprime_arc_base_ = 0;  // s' arc of link e = base + e
  graph::EdgeId uni_tsec_arc_base_ = 0;    // t'' arc of link e = base + e

  CacheStats stats_;
};

/// The goal-direction bound suurballe_into takes on an AuxGraphBuilder
/// arena (graph/suurballe.hpp): h(x) <= the distance from arena node x to
/// t'' under the arena's weights, computed on the physical graph. τ(v) is
/// the cheapest finite transit at v (a pair transit arc, or the protect
/// gadget's hub arc), with τ(t) = 0 because a path may end there. hp(y) is
/// the least Σ w(e) + τ(head e) over physical paths from y to t, where w(e)
/// is the weight of link e's link arc (arena arc e; +inf marks an unusable
/// link): one reverse Dijkstra on the physical graph. Then
///   h(v_in^e) = τ(v) + hp(v) for v = head e,  h(u_out^e) = w(e) + h(v_in^e),
///   h(s') = hp(s),  h(t'') = 0,
///   h(hub_in(v)) = τ(v) + hp(v),  h(hub_out(v)) = hp(v).
/// Every link owns exactly one link arc and every transit structure at v
/// costs at least τ(v), while s', t'' and fan arcs cost 0, so h is
/// consistent on every arc kind. A link mask leaves the closed links out of
/// hp: h then bounds, and is consistent on, every arc that touches only
/// open links' edge-nodes, which is what AuxGraph::threshold_mask_into
/// keeps of the ϑ_max arena (τ, taken over all arcs, stays a lower bound).
/// Reused across requests: compute() refills the buffers in place.
struct ArenaLowerBound {
  std::vector<double> min_transit;  // τ: physical node -> cheapest transit
  std::vector<double> hp;           // physical node -> bound on the rest
  graph::QuadHeap heap{0};
  std::vector<double> h;  // arena node -> lower bound

  /// Fills the buffers for the query s -> t on `arena` (AuxGraphBuilder's
  /// layout, built for that query on `net`) and returns h. `link_mask`
  /// (optional, one entry per physical link): 0 closes the link.
  std::span<const double> compute(const net::WdmNetwork& net,
                                  const AuxGraph& arena, net::NodeId s,
                                  net::NodeId t,
                                  std::span<const std::uint8_t> link_mask = {});
};

}  // namespace wdm::rwa
