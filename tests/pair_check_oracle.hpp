// Test-only oracle for graph::has_edge_disjoint_pair: the unidirectional
// form the library ran before its pair check searched from both ends. Two
// BFS augmentations from s in the unit-capacity residual graph, each
// scanning every node's in-arcs for flow to cancel. Deliberately the plain
// form: the bidirectional check must give the same answer on every input.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/path.hpp"

namespace wdm::test {

/// True iff two edge-disjoint s -> t paths exist over the arcs that are
/// enabled (empty mask = all) with w[e] < below (empty `w` = all).
inline bool oracle_has_edge_disjoint_pair(
    const graph::Digraph& g, std::span<const double> w, graph::NodeId s,
    graph::NodeId t, std::span<const std::uint8_t> edge_enabled,
    double below = graph::kInf) {
  const auto m = static_cast<std::size_t>(g.num_edges());
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const auto open = [&](graph::EdgeId e) {
    const auto ei = static_cast<std::size_t>(e);
    return (edge_enabled.empty() || edge_enabled[ei] != 0) &&
           (w.empty() || w[ei] < below);
  };
  std::vector<std::uint8_t> in_flow(m, 0);
  std::vector<graph::NodeId> queue;
  for (int round = 0; round < 2; ++round) {
    // BFS from s; pred[v] is the arc that reached v, pred_rev[v] whether it
    // was a flow arc walked backwards. s itself keeps kInvalidEdge.
    std::vector<graph::EdgeId> pred(n, graph::kInvalidEdge);
    std::vector<std::uint8_t> pred_rev(n, 0);
    const auto visit = [&](graph::NodeId v, graph::EdgeId e,
                           std::uint8_t rev) {
      const auto vi = static_cast<std::size_t>(v);
      if (v == s || pred[vi] != graph::kInvalidEdge) return;
      pred[vi] = e;
      pred_rev[vi] = rev;
      queue.push_back(v);
    };
    queue.assign(1, s);
    const auto ti = static_cast<std::size_t>(t);
    for (std::size_t next = 0;
         next < queue.size() && pred[ti] == graph::kInvalidEdge; ++next) {
      const graph::NodeId u = queue[next];
      for (graph::EdgeId e : g.out_edges(u)) {
        if (!in_flow[static_cast<std::size_t>(e)] && open(e)) {
          visit(g.head(e), e, 0);
        }
      }
      for (graph::EdgeId e : g.in_edges(u)) {
        if (in_flow[static_cast<std::size_t>(e)]) visit(g.tail(e), e, 1);
      }
    }
    if (pred[ti] == graph::kInvalidEdge) return false;
    // Augment one unit along the BFS path.
    for (graph::NodeId v = t; v != s;) {
      const auto vi = static_cast<std::size_t>(v);
      const graph::EdgeId e = pred[vi];
      if (pred_rev[vi]) {
        in_flow[static_cast<std::size_t>(e)] = 0;
        v = g.head(e);
      } else {
        in_flow[static_cast<std::size_t>(e)] = 1;
        v = g.tail(e);
      }
    }
  }
  return true;
}

}  // namespace wdm::test
