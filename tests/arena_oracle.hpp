// Test-only oracle for the per-build state AuxGraphBuilder keeps up to
// date incrementally: τ by a scan over every transit arc of the arena (the
// form ArenaLowerBound::compute used before the builder kept τ).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "graph/digraph.hpp"
#include "rwa/aux_graph.hpp"
#include "wdm/network.hpp"

namespace wdm::test {

/// τ(v) for every physical node v of an AuxGraphBuilder arena: the least
/// weight over the pair transit arcs leaving v_in^e (e into v) for u_out
/// nodes (ids below 2m) and, in protect mode, the hub arc out of
/// hub_in(v) = gadget_base + 2v. +inf where none is finite.
inline std::vector<double> scan_min_transit(const net::WdmNetwork& net,
                                            const rwa::AuxGraph& arena) {
  const auto& pg = net.graph();
  const graph::EdgeId m = pg.num_edges();
  const graph::NodeId n = pg.num_nodes();
  const bool protect = arena.gadget_base != graph::kInvalidNode;
  std::vector<double> tau(static_cast<std::size_t>(n), graph::kInf);
  for (graph::EdgeId e = 0; e < m; ++e) {
    double& t = tau[static_cast<std::size_t>(pg.head(e))];
    for (const graph::EdgeId arc : arena.g.out_edges(2 * e + 1)) {
      if (arena.g.head(arc) < 2 * m) {
        t = std::min(t, arena.w[static_cast<std::size_t>(arc)]);
      }
    }
  }
  if (protect) {
    for (graph::NodeId v = 0; v < n; ++v) {
      const graph::EdgeId hub =
          arena.g.out_edges(arena.gadget_base + 2 * v)[0];
      double& t = tau[static_cast<std::size_t>(v)];
      t = std::min(t, arena.w[static_cast<std::size_t>(hub)]);
    }
  }
  return tau;
}

}  // namespace wdm::test
