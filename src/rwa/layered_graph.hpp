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
// under full conversion. (The theorems' other conversion cost, the G′
// transit weights, is O(1) or O(r) per link pair for tagged tables: see
// ConversionTable::mean_cost.)
//
// The solver (optimal_semilightpath_into) never builds this graph. It walks
// it implicitly: Dijkstra generates a node's out-arcs when it settles the
// node, from the conversion table (in-copies) or the physical out-links
// (out-copies), in the order LayeredGraph::build inserts them, so every
// relaxation and heap tie matches a search over the materialized graph. Its
// SemilightpathWorkspace holds only per-node buffers; reused, a solve
// touches the heap zero times once the buffers have grown. LayeredGraph::build
// remains as the materialized test oracle and as the arc counter for
// benchmarks.
//
// The solver relaxes only the conversion arcs that can lower a distance,
// by the node's ConversionTable::shape():
//   full     — the first in-copy settled at v relaxes all W arcs; every
//              later one relaxes only its identity arc (≤ 2W − 1 per node,
//              so the nW² term becomes nW under assumption (i)). "First"
//              is read off dist: v's out-copies are unreached until then.
//              At s, whose out-copies start at 0, only identity arcs;
//   none     — the identity arc only (W per node);
//   limited  — the 2r + 1 window around λ instead of all W;
//   general  — every allowed arc, as the materialized graph has them.
// The skipped arcs are either absent from the graph (none, limited) or
// cannot pass `relax`'s strict test: a later in-copy has du' ≥ du, FP
// addition is monotone, so du' + c ≥ du + c, and the first in-copy already
// offered du + c to every other out-copy and du ≤ du' + c to its own. Routes
// are therefore bit-identical to a search over the materialized graph.
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

/// Caller-owned per-node buffers of the solver, recycled across calls (the
/// capacity only grows). One workspace serves one solve at a time.
struct SemilightpathWorkspace {
  std::vector<NodeId> layer_of;      // physical node -> layer slot (masked)
  std::vector<NodeId> node_of_slot;  // layer slot -> physical node (masked)
  std::vector<double> dist;
  std::vector<NodeId> pred;          // predecessor layered node
  std::vector<EdgeId> pred_edge;     // link of the traversal arc into a node
  graph::QuadHeap heap{0};
  std::vector<net::Hop> hops;        // the path, sink to source
  /// Conversion arcs (identity included) the last call relaxed.
  std::int64_t conv_arcs_relaxed = 0;
};

struct LayeredGraph {
  graph::Digraph g;
  std::vector<double> w;
  /// Per-arc hop: traversal arcs carry {physical edge, λ}; conversion and
  /// hub arcs carry {kInvalidEdge, kInvalidWavelength}.
  std::vector<net::Hop> hop_of_arc;
  NodeId source_hub = graph::kInvalidNode;
  NodeId sink_hub = graph::kInvalidNode;

  /// Materializes the layered graph of `view` (default: the residual
  /// network) for a query s -> t. `link_enabled` optionally confines it to a
  /// physical subgraph (empty = all links) — this is how the projection step
  /// of §3.3.2 runs the solver inside the induced subgraphs G_1, G_2.
  static LayeredGraph build(const net::WdmNetwork& net, NodeId s, NodeId t,
                            std::span<const std::uint8_t> link_enabled = {},
                            const LinkView& view = {});

  /// Maps a path in the layered graph back to a semilightpath.
  net::Semilightpath to_semilightpath(const graph::Path& p) const;
};

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

/// optimal_semilightpath_into with a call-local workspace.
net::Semilightpath optimal_semilightpath(
    const net::WdmNetwork& net, NodeId s, NodeId t,
    std::span<const std::uint8_t> link_enabled = {});

/// Cost of the optimal semilightpath, or +inf when none exists.
double optimal_semilightpath_cost(
    const net::WdmNetwork& net, NodeId s, NodeId t,
    std::span<const std::uint8_t> link_enabled = {});

}  // namespace wdm::rwa
