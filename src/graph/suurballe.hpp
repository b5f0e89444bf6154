// Suurballe's algorithm [Suurballe, Networks 1974]: a min-total-cost pair of
// edge-disjoint s->t paths, computed with two Dijkstra passes over reduced
// costs. This is the `Find_Two_Paths` procedure of the paper (§3.3.2), run
// there on the auxiliary graph G'.
//
// Round 1 grows a full shortest-path tree; round 2 runs Dijkstra on the
// reduced-cost graph in which the round-1 path is reversed with cost 0
// (the paper's E_reserve), after which interlacing edges cancel
// (E_intersect) and the union decomposes into the two paths.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/heaps.hpp"
#include "graph/path.hpp"

namespace wdm::graph {

struct DisjointPair {
  Path first;   // valid iff found
  Path second;  // valid iff found
  bool found = false;

  double total_cost() const { return first.cost + second.cost; }
};

/// Caller-owned buffers for suurballe_into. Every solve refills them with
/// assign() on their retained capacity, so a workspace reused across solves
/// of similar size makes Suurballe allocation-free, and no state survives
/// from one solve into the next. Not thread-safe: one per concurrent caller.
struct SuurballeWorkspace {
  ShortestPathTree tree;  // round 1: full shortest-path tree from s
  std::vector<double> dist;  // round 2 over reduced costs
  std::vector<EdgeId> pred;
  std::vector<std::uint8_t> pred_rev;  // pred traversed backwards (p1 arc)
  QuadHeap heap{0};
  std::vector<std::uint8_t> on_p1;
  std::vector<std::uint8_t> in_flow;
  std::vector<EdgeId> flow_edges;  // ascending arc ids carrying flow
  std::vector<EdgeId> slot;        // decomposition: 2 out-slots per node
  std::vector<std::uint8_t> slot_count;
  std::vector<NodeId> queue;       // has_edge_disjoint_pair's BFS
};

/// Minimum-total-weight pair of edge-disjoint paths s -> t, or found == false
/// when no such pair exists. Weights must be nonnegative; +inf arcs are never
/// used. The optional mask restricts the computation to a subgraph. Requires
/// s != t. Writes into `*out`, recycling its path vectors; `*ws` holds every
/// intermediate buffer.
void suurballe_into(const Digraph& g, std::span<const double> w, NodeId s,
                    NodeId t, std::span<const std::uint8_t> edge_enabled,
                    SuurballeWorkspace* ws, DisjointPair* out);

/// True iff two edge-disjoint s -> t paths exist over the arcs that are
/// enabled (empty mask = all) and finite — exactly when suurballe_into would
/// find a pair, without computing one. The existence question is a
/// unit-capacity flow of value 2, answered by two BFS augmentations in the
/// residual graph (an unused arc forwards, a used one backwards). Requires
/// s != t. Reuses `*ws`'s buffers, so a warm workspace makes it
/// allocation-free.
bool has_edge_disjoint_pair(const Digraph& g, std::span<const double> w,
                            NodeId s, NodeId t,
                            std::span<const std::uint8_t> edge_enabled,
                            SuurballeWorkspace* ws);

/// suurballe_into with a call-local workspace and result.
DisjointPair suurballe(const Digraph& g, std::span<const double> w, NodeId s,
                       NodeId t, std::span<const std::uint8_t> edge_enabled = {});

/// Node-disjoint variant via the standard node-splitting transform: returns a
/// min-total-weight pair of internally node-disjoint paths. (Extension beyond
/// the paper — protects against single *node* failures.)
DisjointPair suurballe_node_disjoint(
    const Digraph& g, std::span<const double> w, NodeId s, NodeId t,
    std::span<const std::uint8_t> edge_enabled = {});

/// Baseline for E10: greedily take the shortest path, delete its edges, take
/// the next shortest path. Cheaper per query but fails on "trap" topologies
/// where the first path uses edges both disjoint paths need.
DisjointPair naive_two_step(const Digraph& g, std::span<const double> w,
                            NodeId s, NodeId t,
                            std::span<const std::uint8_t> edge_enabled = {});

}  // namespace wdm::graph
