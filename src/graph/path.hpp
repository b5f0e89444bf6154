// Path and shortest-path-tree value types shared by all graph algorithms.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "graph/digraph.hpp"

namespace wdm::graph {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// A directed path as an edge-id sequence. An empty edge list is a valid
/// (zero-cost) path only when source == target; `found == false` marks "no
/// path exists" results.
struct Path {
  std::vector<EdgeId> edges;
  double cost = 0.0;
  bool found = false;

  /// Node sequence tail(e0), head(e0), head(e1), ... Requires found and a
  /// non-empty edge list.
  std::vector<NodeId> nodes(const Digraph& g) const;

  /// Checks edge-to-edge contiguity against `g` (head of each edge equals
  /// tail of the next).
  bool contiguous_in(const Digraph& g) const;

  std::size_t length() const { return edges.size(); }
};

/// Single-source shortest path tree: per-node distance and predecessor edge.
struct ShortestPathTree {
  std::vector<double> dist;
  std::vector<EdgeId> pred_edge;

  bool reached(NodeId v) const {
    return dist[static_cast<std::size_t>(v)] < kInf;
  }
  double distance(NodeId v) const { return dist[static_cast<std::size_t>(v)]; }
};

/// Walks predecessor edges from `target` back to the tree root.
Path extract_path(const Digraph& g, const ShortestPathTree& tree,
                  NodeId target);

/// Sum of w[e] over the path's edges.
double path_weight(const Path& p, std::span<const double> w);

}  // namespace wdm::graph
