// Suurballe's algorithm [Suurballe, Networks 1974]: a min-total-cost pair of
// edge-disjoint s->t paths, computed with two Dijkstra passes over reduced
// costs. This is the `Find_Two_Paths` procedure of the paper (§3.3.2), run
// there on the auxiliary graph G'.
//
// Round 1 is Dijkstra from s that stops as soon as t settles: only nodes
// with d(v) <= d(t) are settled, the rest keep tentative (or +inf) labels.
// Round 2 runs Dijkstra on reduced costs w(u,v) + π(u) - π(v) under the
// potentials π(v) = min(d(v), d(t)), which keep every reduced cost
// nonnegative however far round 1 got [Suurballe & Tarjan, Networks 1984].
// The round-1 path p1 is reversed with cost 0 (the paper's E_reserve); p1
// is simple, so it is stored as one in-arc per node (`p1_in`) and round 2
// reads that arc instead of scanning in_edges. Interlacing edges then cancel
// (E_intersect) and the union decomposes into the two paths, taking the
// highest-id flow arc out of each node.
//
// Equal-cost pairs are all optimal, so the tie rule is free: it falls out
// of the relaxation order (out-arcs in adjacency order, then the p1 in-arc;
// strict improvement only) and the decomposition order above.
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
  ShortestPathTree tree;  // round 1: shortest-path tree from s, stopped at t
  std::vector<double> dist;  // round 2 over reduced costs
  std::vector<EdgeId> pred;
  std::vector<std::uint8_t> pred_rev;  // pred traversed backwards (p1 arc)
  QuadHeap heap{0};
  std::vector<EdgeId> p1_in;       // p1's arc into each node, or kInvalidEdge
  std::vector<EdgeId> flow_edges;  // ascending arc ids carrying flow
  std::vector<EdgeId> slot;        // decomposition: 2 out-slots per node
  std::vector<std::uint8_t> slot_count;
  std::vector<std::uint8_t> in_flow;  // has_edge_disjoint_pair's flow
  std::vector<NodeId> queue;          // has_edge_disjoint_pair's BFS
  /// Nodes the last suurballe_into settled in round 1 (t included; at most
  /// the nodes with d(v) <= d(t)) and in round 2.
  std::int64_t round1_settled = 0;
  std::int64_t round2_settled = 0;
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
/// enabled (empty mask = all) and finite (empty `w` = all) — exactly when
/// suurballe_into would find a pair, without computing one. The existence
/// question is a unit-capacity flow of value 2, answered by two BFS
/// augmentations in the residual graph (an unused arc forwards, a used one
/// backwards). Requires
/// s != t. Reuses `*ws`'s buffers, so a warm workspace makes it
/// allocation-free.
bool has_edge_disjoint_pair(const Digraph& g, std::span<const double> w,
                            NodeId s, NodeId t,
                            std::span<const std::uint8_t> edge_enabled,
                            SuurballeWorkspace* ws);

/// suurballe_into with a call-local workspace and result.
DisjointPair suurballe(const Digraph& g, std::span<const double> w, NodeId s,
                       NodeId t, std::span<const std::uint8_t> edge_enabled = {});

/// Baseline for E10: greedily take the shortest path, delete its edges, take
/// the next shortest path. Cheaper per query but fails on "trap" topologies
/// where the first path uses edges both disjoint paths need.
DisjointPair naive_two_step(const Digraph& g, std::span<const double> w,
                            NodeId s, NodeId t,
                            std::span<const std::uint8_t> edge_enabled = {});

}  // namespace wdm::graph
