// Directed multigraph with stable integer node/edge ids.
//
// The workhorse structure for the whole library: the physical WDM topology,
// the wavelength-layered graph, and the paper's auxiliary graphs G', G_c and
// G_rc are all Digraphs. Edge attributes (weights, wavelength sets, loads)
// live in parallel arrays indexed by EdgeId, owned by the layer that needs
// them — the graph itself stores pure structure.
//
// Build-then-freeze: add_node / add_edge grow a per-node adjacency;
// finalize_csr() compacts it into flat CSR arrays once, after which the
// graph is read-only (a further add_node / add_edge / reserve fails a
// WDM_CHECK). A builder that needs a different structure starts from a
// fresh Digraph.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace wdm::graph {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr EdgeId kInvalidEdge = -1;

class Digraph {
 public:
  Digraph() = default;

  /// Creates a graph with `n` isolated nodes.
  explicit Digraph(NodeId n);

  /// Adds an isolated node; returns its id (dense, starting at 0). Not
  /// allowed after finalize_csr().
  NodeId add_node();

  /// Adds a directed edge tail -> head; returns its id (dense, in insertion
  /// order). Parallel edges and self-loops are permitted — WDM fibers between
  /// the same node pair are distinct edges. Not allowed after finalize_csr().
  EdgeId add_edge(NodeId tail, NodeId head);

  NodeId num_nodes() const {
    if (csr_) return static_cast<NodeId>(csr_out_start_.size() - 1);
    return static_cast<NodeId>(out_.size());
  }
  EdgeId num_edges() const { return static_cast<EdgeId>(tail_.size()); }

  NodeId tail(EdgeId e) const { return tail_[static_cast<std::size_t>(e)]; }
  NodeId head(EdgeId e) const { return head_[static_cast<std::size_t>(e)]; }

  /// Edge ids leaving / entering `v`, in insertion order.
  std::span<const EdgeId> out_edges(NodeId v) const {
    const auto i = static_cast<std::size_t>(v);
    if (csr_) {
      return {csr_out_.data() + csr_out_start_[i],
              csr_out_start_[i + 1] - csr_out_start_[i]};
    }
    return out_[i];
  }
  std::span<const EdgeId> in_edges(NodeId v) const {
    const auto i = static_cast<std::size_t>(v);
    if (csr_) {
      return {csr_in_.data() + csr_in_start_[i],
              csr_in_start_[i + 1] - csr_in_start_[i]};
    }
    return in_[i];
  }

  int out_degree(NodeId v) const {
    return static_cast<int>(out_edges(v).size());
  }
  int in_degree(NodeId v) const {
    return static_cast<int>(in_edges(v).size());
  }

  /// Freezes the graph: compacts the adjacency into flat CSR arrays (one
  /// contiguous edge-id block per node, insertion order preserved) and frees
  /// the per-node buffers. Queries are unchanged observationally but touch
  /// two flat arrays instead of n separate heap blocks. One-way: every later
  /// add_node / add_edge / reserve fails a WDM_CHECK. Idempotent.
  void finalize_csr();

  /// max over nodes of max(in_degree, out_degree) — the paper's `d`.
  int max_degree() const;

  bool valid_node(NodeId v) const { return v >= 0 && v < num_nodes(); }
  bool valid_edge(EdgeId e) const { return e >= 0 && e < num_edges(); }

  /// First edge tail -> head, or kInvalidEdge. O(out_degree(tail)).
  EdgeId find_edge(NodeId tail, NodeId head) const;

  void reserve(NodeId nodes, EdgeId edges);

  /// Nodes reachable from `src` (by out-edges); `enabled` optionally masks
  /// edges (empty span = all enabled; otherwise enabled[e] != 0 keeps e).
  std::vector<std::uint8_t> reachable_from(
      NodeId src, std::span<const std::uint8_t> enabled = {}) const;

  /// True if every node is reachable from node 0 AND node 0 is reachable from
  /// every node (strong connectivity via two BFS passes).
  bool strongly_connected() const;

  /// The reverse graph (every edge flipped; edge ids preserved).
  Digraph reversed() const;

 private:
  std::vector<NodeId> tail_;
  std::vector<NodeId> head_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;

  bool csr_ = false;  // frozen: out_/in_ are empty, the csr_* arrays serve
  std::vector<EdgeId> csr_out_;          // edge ids grouped by tail node
  std::vector<EdgeId> csr_in_;           // edge ids grouped by head node
  std::vector<std::size_t> csr_out_start_;  // n+1 offsets into csr_out_
  std::vector<std::size_t> csr_in_start_;   // n+1 offsets into csr_in_
};

}  // namespace wdm::graph
