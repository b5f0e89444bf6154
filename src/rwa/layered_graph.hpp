// The wavelength-layered graph behind the Liang–Shen optimal semilightpath
// algorithm [13], the single-path engine the paper composes with Suurballe.
//
// Each network node v expands into W in-copies and W out-copies, one pair per
// wavelength layer:
//   (v,λ)_in -> (v,λ')_out   conversion arc, weight c_v(λ,λ'), if allowed
//                            (λ = λ' is the free pass-through);
//   (u,λ)_out -> (v,λ)_in    traversal arc for link e=(u,v), weight w(e,λ),
//                            present iff λ ∈ Λ_avail(e).
// The in/out split enforces *one* conversion per node — without it Dijkstra
// could chain λa->λb->λc inside a node and undercut the c_v(λa,λc) the model
// charges. A super source fans into s's out-copies and t's in-copies fan
// into a super sink, both at zero weight.
//
// A shortest S->T path is exactly an optimal semilightpath: Eq. (1) decomposes
// over these arcs. Size: 2nW + 2 nodes, ≤ nW² + mW + 2W arcs — the source of
// the O(nW² + nW log(nW)) term in Theorems 1 and 3. The nW² conversion arcs
// are the materialized graph's; the solver below relaxes ≤ n(2W − 1) of them
// under full conversion, plus W per rounding-tie re-fan (see below). (The
// theorems' other conversion cost, the G′ transit weights, is O(1) or O(r)
// per link pair for tagged tables: see ConversionTable::mean_cost.)
//
// The solver (optimal_semilightpath_into) never builds this graph. It walks
// it implicitly: Dijkstra generates a node's out-arcs when it settles the
// node, from the conversion table (in-copies) or the physical out-links
// (out-copies), in the order LayeredGraph::build inserts them. Its
// SemilightpathWorkspace holds only per-node buffers; reused, a solve
// touches the heap zero times once the buffers have grown. LayeredGraph::build
// remains as the materialized test oracle and as the arc counter for
// benchmarks.
//
// The search is A* (goal-directed). Before it, semilightpath_bound_into runs
// one reverse Dijkstra from t over the physical graph, each enabled link
// charged its cheapest usable w(e, λ) at the view's prices (a link with
// nothing usable is left out). Every traversal arc costs at least its
// link's charge and conversion costs are ≥ 0, so hp(v) is a lower bound on
// the cost of any v -> t semilightpath. Every copy of v gets h = hp(v), the
// source hub hp(s) and the sink hub 0; h is consistent on every arc
// (traversal: hp(u) ≤ charge + hp(v) ≤ w + hp(v); conversion arcs join
// copies of one node; the sink arc leaves t, where hp = 0). The heap is
// keyed by d + h under dijkstra_into's rule for DijkstraOptions::potential:
// a node with h = +inf (no way on to t) is never queued, and a query with
// hp(s) = +inf returns before the forward search starts. Every relaxation
// and heap tie therefore matches dijkstra_into over the materialized graph
// with the lifted potential (LayeredGraph::lift). A consistent potential
// settles t's first in-copy at its shortest distance, so the returned
// Eq. (1) cost is plain Dijkstra's; the path can differ where equal-cost
// semilightpaths tie, because nodes pop in (d + h, id) order instead of
// (d, id). That argument is exact in real arithmetic. In floating point,
// two semilightpaths of equal real cost can sum an ulp apart (0.02 + 1 + 1
// against 2 + 0.01 + 0.01), and A* may reach either first, so the returned
// distance is plain Dijkstra's bit for bit when every partial sum is exact
// (integral costs, say) and within rounding otherwise.
// tests/fuzz/test_fuzz_semilightpath.cpp pins both cases.
//
// The solver relaxes only the conversion arcs that can lower a distance,
// by the node's ConversionTable::shape():
//   full     — the first in-copy settled at v relaxes all W arcs and
//              records its label f; a later one relaxes only its identity
//              arc unless its label is strictly below f, when it fans out
//              again and f drops (≤ 2W − 1 per node without a re-fan, so
//              the nW² term becomes nW under assumption (i)). At s, whose
//              out-copies start at 0, f starts at 0: identity arcs only;
//   none     — the identity arc only (W per node);
//   limited  — the 2r + 1 window around λ instead of all W;
//   general  — every allowed arc, as the materialized graph has them.
// The skipped arcs are either absent from the graph (none, limited) or
// cannot pass `relax`'s strict test. Only v's own conversion arcs (and, at
// s, the source hub) reach v's out-copies, so after a fan-out from f every
// out-copy at v holds at most f + c; a later in-copy with du ≥ f offers
// du + c ≥ f + c (FP addition is monotone) to every out-copy but its own,
// whose identity arc it does relax. Why a re-fan can be needed: in-copies
// of one node share h, so they pop in order of d + h, but rounding can make
// d_a + h == d_b + h with d_a < d_b, and the id order then pops b first.
// Plain Dijkstra order never re-fans. Routes are therefore bit-identical to
// a search over the materialized graph with the same potential.
//
// Refining along a path (refine_along_into). The §3.3.2 refinement runs the
// solver inside the subgraph induced by one projected auxiliary path, and
// that projection is almost always a simple s -> t chain. On a chain the
// layered graph is a DAG in path order: every in-copy (v_k, λ) has the one
// predecessor (v_{k−1}, λ)_out, and every out-copy at v_k only v_k's
// in-copies. One sweep over the hops then gives the optimum with no heap,
// at O(L·W) per path of L links for none and full tables, O(L·W·(2r + 1))
// for limited range and O(L·W²) for general ones, against Theorem 1's
// nW² + nW log(nW) for the solver.
//
// The sweep's contract has two parts.
//   (1) Its hops and cost equal plain Dijkstra's (no potential) over the
//       materialized layered graph of the chain's mask, bit for bit. It
//       computes each label with Dijkstra's expressions (in = out + w(e, λ),
//       out = in + c(a, b), identity as + 0.0). QuadHeap pops in (key, id)
//       order — in-copies at one node in ascending λ among equal labels — so
//       Dijkstra keeps, for every label, the earliest-settled predecessor
//       that reaches its final value: the least (label, λ) among them, which
//       the sweep picks explicitly. At t it takes the least λ among the
//       minimum labels, as the sink arc does.
//   (2) Its `found` and Eq. (1) cost equal optimal_semilightpath_into's on
//       that mask: the sweep's label at t is the least path sum over the
//       DAG, and A* on a consistent bound returns Dijkstra's distance, bit
//       for bit where the sums are exact and within rounding otherwise
//       (above). Its hops may differ from the solver's where equal-cost
//       semilightpaths tie, since the solver pops in (d + h, id) order. The
//       routers read only the sweep, so their routes keep the plain order.
// tests/fuzz/test_fuzz_refine_along.cpp checks both parts. A walk that
// repeats a node (or is not a walk from s to t) is refined by the solver
// under its induced mask.
#pragma once

#include <cstdint>
#include <span>

#include "graph/digraph.hpp"
#include "graph/heaps.hpp"
#include "graph/path.hpp"
#include "wdm/semilightpath.hpp"

namespace wdm::rwa {

using graph::EdgeId;
using graph::NodeId;

/// A per-link wavelength view other than the residual network — shared-backup
/// provisioning prices channels already held by compatible backups at a
/// fraction of their weight. Both spans are indexed by link id; an empty
/// span means "the residual default". The default view is the residual
/// network at real weights.
struct LinkView {
  /// Usable wavelengths per link (empty = net.available).
  std::span<const net::WavelengthSet> usable;
  /// Channels priced at `shared_price_factor` × w(e, λ) (empty = none).
  std::span<const net::WavelengthSet> shared;
  double shared_price_factor = 1.0;
};

/// Caller-owned per-node buffers of the solver and of the path sweep,
/// recycled across calls (the capacity only grows). One workspace serves one
/// solve at a time.
struct SemilightpathWorkspace {
  std::vector<NodeId> layer_of;      // physical node -> layer slot (masked)
  std::vector<NodeId> node_of_slot;  // layer slot -> physical node (masked)
  std::vector<double> dist;
  std::vector<NodeId> pred;          // predecessor layered node
  std::vector<EdgeId> pred_edge;     // link of the traversal arc into a node
  graph::QuadHeap heap{0};           // the bound's search, then the solve's
  std::vector<double> bound;         // physical node -> A* bound hp (to t)
  std::vector<double> fanned;        // layer slot -> label of last fan-out
  std::vector<net::Hop> hops;        // the path, sink to source
  /// Conversion arcs (identity included) the last solver call relaxed.
  std::int64_t conv_arcs_relaxed = 0;
  // refine_along_into: the walk's node marks (all 0 between calls), the
  // labels of one node's W out-copies then its W in-copies, the in-copy λ
  // each out-copy's label came from (one row of W per interior node), and
  // the fallback's induced link mask.
  std::vector<std::uint8_t> on_walk;
  std::vector<double> label;
  std::vector<net::Wavelength> from;
  std::vector<std::uint8_t> walk_mask;
};

struct LayeredGraph {
  graph::Digraph g;
  std::vector<double> w;
  /// Per-arc hop: traversal arcs carry {physical edge, λ}; conversion and
  /// hub arcs carry {kInvalidEdge, kInvalidWavelength}.
  std::vector<net::Hop> hop_of_arc;
  NodeId source_hub = graph::kInvalidNode;
  NodeId sink_hub = graph::kInvalidNode;
  /// The query source, W, and the physical node of each layer slot (the
  /// node ids themselves when unmasked): what lift() needs.
  NodeId source = graph::kInvalidNode;
  int num_wavelengths = 0;
  std::vector<NodeId> node_of_slot;

  /// Materializes the layered graph of `view` (default: the residual
  /// network) for a query s -> t. `link_enabled` optionally confines it to a
  /// physical subgraph (empty = all links) — this is how the projection step
  /// of §3.3.2 runs the solver inside the induced subgraphs G_1, G_2.
  static LayeredGraph build(const net::WdmNetwork& net, NodeId s, NodeId t,
                            std::span<const std::uint8_t> link_enabled = {},
                            const LinkView& view = {});

  /// optimal_semilightpath_into's potential on this graph's nodes: every
  /// copy of v gets bound[v] (semilightpath_bound_into on the same query and
  /// view), the source hub bound[source] and the sink hub 0. Passed as
  /// graph::DijkstraOptions::potential, it gives Dijkstra the solver's
  /// search order.
  std::vector<double> lift(std::span<const double> bound) const;

  /// Maps a path in the layered graph back to a semilightpath.
  net::Semilightpath to_semilightpath(const graph::Path& p) const;
};

/// The A* bound of a query (see the file comment): fills ws.bound with, per
/// physical node v, the least sum of link charges (cheapest usable w(e, λ)
/// at the view's prices) over enabled links from v to t, +inf where t is out
/// of reach. Returns bound[s]. Uses ws.heap, which it leaves empty.
double semilightpath_bound_into(const net::WdmNetwork& net, NodeId s,
                                NodeId t,
                                std::span<const std::uint8_t> link_enabled,
                                SemilightpathWorkspace& ws,
                                const LinkView& view = {});

/// The Liang–Shen algorithm: a minimum-Eq.(1)-cost semilightpath from s to t
/// in `view` (default: the residual network), optionally confined to the
/// physical subgraph `link_enabled`. Writes into `*out` in place (its hop
/// vector keeps its capacity); an unreachable t leaves a not-found path.
/// Returns the path's layered-graph distance (its Eq. (1) cost summed in
/// path order, at the view's prices), or +inf when none exists.
double optimal_semilightpath_into(const net::WdmNetwork& net, NodeId s,
                                  NodeId t,
                                  std::span<const std::uint8_t> link_enabled,
                                  SemilightpathWorkspace& ws,
                                  net::Semilightpath* out,
                                  const LinkView& view = {});

/// The Lemma 2 refinement of one projected path: the optimal semilightpath
/// inside the physical subgraph induced by `links`, the path's links in
/// walk order (AuxGraph::project_into). A simple s -> t chain is swept hop
/// by hop (see the file comment): its hops and cost are plain Dijkstra's on
/// the materialized layered graph of the links' mask, and its found and
/// Eq. (1) cost optimal_semilightpath_into's on that mask. Anything else
/// goes to optimal_semilightpath_into under the mask. Writes into `*out` in
/// place; +inf and a not-found path when no semilightpath fits.
double refine_along_into(const net::WdmNetwork& net, NodeId s, NodeId t,
                         std::span<const EdgeId> links,
                         SemilightpathWorkspace& ws, net::Semilightpath* out);

/// optimal_semilightpath_into with a call-local workspace.
net::Semilightpath optimal_semilightpath(
    const net::WdmNetwork& net, NodeId s, NodeId t,
    std::span<const std::uint8_t> link_enabled = {});

/// Cost of the optimal semilightpath, or +inf when none exists.
double optimal_semilightpath_cost(
    const net::WdmNetwork& net, NodeId s, NodeId t,
    std::span<const std::uint8_t> link_enabled = {});

}  // namespace wdm::rwa
