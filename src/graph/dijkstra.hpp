// Dijkstra label-setting shortest paths on the indexed 4-ary heap.
//
// Weights must be nonnegative; violations are caught by WDM_DCHECK in debug
// builds. An optional edge mask restricts the search to a subgraph (the
// residual-network and induced-subgraph mechanics of the paper are expressed
// as masks, so no graph copies happen on the routing hot path).
#pragma once

#include <cstddef>
#include <span>

#include "graph/digraph.hpp"
#include "graph/heaps.hpp"
#include "graph/path.hpp"

namespace wdm::graph {

struct DijkstraOptions {
  /// Stop as soon as this node is settled (kInvalidNode = full tree).
  NodeId target = kInvalidNode;
  /// enabled[e] != 0 keeps edge e; empty = all edges enabled.
  std::span<const std::uint8_t> edge_enabled = {};
  /// A* lower bound h(v) on each node's distance to `target`, consistent
  /// (h(u) <= w(u,v) + h(v) on every enabled arc) with h(target) = 0; empty
  /// = plain Dijkstra. Nodes are settled in order of d + h and never
  /// queued when h = +inf (they cannot reach the target).
  std::span<const double> potential = {};
};

/// Allocation-free core: fills `*tree` in place (reusing its capacity) with
/// `heap`, which must be empty and sized for at least g.num_nodes() ids.
/// Returns the number of nodes settled (popped), opt.target included. With a
/// target, labels of unsettled nodes are tentative upper bounds (each with
/// d + h at least the target's distance) and the heap keeps them queued,
/// keyed by d + h.
inline std::size_t dijkstra_into(const Digraph& g, std::span<const double> w,
                                 NodeId src, const DijkstraOptions& opt,
                                 QuadHeap& heap, ShortestPathTree* tree) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  WDM_CHECK(g.valid_node(src));
  WDM_CHECK(w.size() == static_cast<std::size_t>(g.num_edges()));
  WDM_CHECK(opt.edge_enabled.empty() ||
            opt.edge_enabled.size() == static_cast<std::size_t>(g.num_edges()));
  const std::span<const double> h = opt.potential;
  WDM_CHECK(h.empty() || h.size() == n);

  tree->dist.assign(n, kInf);
  tree->pred_edge.assign(n, kInvalidEdge);
  tree->dist[static_cast<std::size_t>(src)] = 0.0;

  heap.push(static_cast<std::size_t>(src), 0.0);
  std::size_t settled = 0;
  while (!heap.empty()) {
    const std::size_t uid = heap.pop_min().first;
    const auto u = static_cast<NodeId>(uid);
    const double du = tree->dist[uid];
    ++settled;
    if (u == opt.target) break;
    for (EdgeId e : g.out_edges(u)) {
      if (!opt.edge_enabled.empty() &&
          !opt.edge_enabled[static_cast<std::size_t>(e)]) {
        continue;
      }
      const double we = w[static_cast<std::size_t>(e)];
      WDM_DCHECK(we >= 0.0);
      const auto v = static_cast<std::size_t>(g.head(e));
      const double dv = du + we;
      if (dv < tree->dist[v]) {
        double key = dv;
        if (!h.empty()) {
          if (h[v] == kInf) continue;
          key += h[v];
        }
        tree->dist[v] = dv;
        tree->pred_edge[v] = e;
        heap.push_or_decrease(v, key);
      }
    }
  }
  return settled;
}

/// Full shortest-path tree (or up to opt.target) from src.
ShortestPathTree dijkstra(const Digraph& g, std::span<const double> w,
                          NodeId src, const DijkstraOptions& opt = {});

/// Convenience: shortest s->t path (not-found Path when unreachable).
Path shortest_path(const Digraph& g, std::span<const double> w, NodeId s,
                   NodeId t, std::span<const std::uint8_t> edge_enabled = {});

}  // namespace wdm::graph
