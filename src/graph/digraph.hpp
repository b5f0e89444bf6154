// Directed multigraph with stable integer node/edge ids.
//
// The workhorse structure for the whole library: the physical WDM topology,
// the wavelength-layered graph, and the paper's auxiliary graphs G', G_c and
// G_rc are all Digraphs. Edge attributes (weights, wavelength sets, loads)
// live in parallel arrays indexed by EdgeId, owned by the layer that needs
// them — the graph itself stores pure structure.
//
// One layout, valid at all times: CSR. Each node owns one contiguous block
// of out-edge ids and one of in-edge ids, both in ascending edge-id order. A
// builder that knows its arcs up front uses the bulk constructor (a counting
// sort, O(n + m)), as WdmNetwork::add_links does. add_node is O(1)
// amortized; add_edge inserts at the end of two blocks and shifts the later
// offsets, O(n + m), which suits graphs that grow a few edges between
// queries (a network's add_link, tests).
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
  explicit Digraph(NodeId n) : Digraph(n, {}, {}) {}

  /// Creates a graph with `n` nodes and edge e = tails[e] -> heads[e]. The
  /// two lists must have equal length and name existing nodes. O(n + m).
  Digraph(NodeId n, std::vector<NodeId> tails, std::vector<NodeId> heads);

  /// Adds an isolated node; returns its id (dense, starting at 0).
  NodeId add_node();

  /// Adds a directed edge tail -> head; returns its id (dense, in insertion
  /// order). Parallel edges and self-loops are permitted — WDM fibers between
  /// the same node pair are distinct edges. O(n + m).
  EdgeId add_edge(NodeId tail, NodeId head);

  NodeId num_nodes() const {
    return static_cast<NodeId>(out_start_.size() - 1);
  }
  EdgeId num_edges() const { return static_cast<EdgeId>(tail_.size()); }

  NodeId tail(EdgeId e) const { return tail_[static_cast<std::size_t>(e)]; }
  NodeId head(EdgeId e) const { return head_[static_cast<std::size_t>(e)]; }

  /// Edge ids leaving / entering `v`, in insertion (= ascending id) order.
  std::span<const EdgeId> out_edges(NodeId v) const {
    const auto i = static_cast<std::size_t>(v);
    return {out_.data() + out_start_[i],
            static_cast<std::size_t>(out_start_[i + 1] - out_start_[i])};
  }
  std::span<const EdgeId> in_edges(NodeId v) const {
    const auto i = static_cast<std::size_t>(v);
    return {in_.data() + in_start_[i],
            static_cast<std::size_t>(in_start_[i + 1] - in_start_[i])};
  }

  int out_degree(NodeId v) const {
    return static_cast<int>(out_edges(v).size());
  }
  int in_degree(NodeId v) const {
    return static_cast<int>(in_edges(v).size());
  }

  bool valid_node(NodeId v) const { return v >= 0 && v < num_nodes(); }
  bool valid_edge(EdgeId e) const { return e >= 0 && e < num_edges(); }

  /// First edge tail -> head, or kInvalidEdge. O(out_degree(tail)).
  EdgeId find_edge(NodeId tail, NodeId head) const;

 private:
  std::vector<NodeId> tail_;
  std::vector<NodeId> head_;
  std::vector<EdgeId> out_;             // edge ids grouped by tail node
  std::vector<EdgeId> in_;              // edge ids grouped by head node
  std::vector<EdgeId> out_start_{0};    // n+1 offsets into out_
  std::vector<EdgeId> in_start_{0};     // n+1 offsets into in_
};

}  // namespace wdm::graph
