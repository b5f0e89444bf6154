// Suurballe's algorithm [Suurballe, Networks 1974]: a min-total-cost pair of
// edge-disjoint s->t paths, computed with two Dijkstra passes over reduced
// costs. This is the `Find_Two_Paths` procedure of the paper (§3.3.2), run
// there on the auxiliary graph G'.
//
// Goal direction. The caller may pass a lower bound h(v) on each node's
// distance to t, consistent (h(u) <= w(u,v) + h(v) on every arc) with
// h(t) = 0; an empty span means h = 0, the plain search. The auxiliary
// graphs get one from the physical graph (rwa::ArenaLowerBound): each link
// owns one link arc and every transit at a node costs at least that node's
// cheapest transit arc, so the physical distance to t, charging that
// cheapest transit at every node a path passes, bounds the arena's from
// below [A* with landmarks, Goldberg & Harrelson, SODA 2005, with the
// physical graph as an exact per-request landmark].
//
// Round 1 is A* from s with key d + h (plain Dijkstra for h = 0) and stops
// as soon as t settles: every settled v has d(v) + h(v) <= d(t), and every
// queued v a tentative label with d(v) + h(v) >= d(t). Both rounds pop s
// and scan each out-arc of every node they settle, +inf ones included, so
// the arenas give every physical node its own source hub wired to exactly
// its out-links, and s' scans deg(s) arcs rather than one per link
// (rwa::AuxGraphBuilder).
//
// Round 2 runs Dijkstra on reduced costs r(u,v) = w(u,v) + π(u) - π(v)
// under π(v) = min(d(v), d(t) - h(v)), which is d(v) for a settled v and
// d(t) - h(v) for any other (tentative and +inf labels included). Every
// arc of the residual graph gets r >= 0 [Suurballe & Tarjan, Networks
// 1984, here with h]:
//   * u, v settled: d(v) <= d(u) + w, the labels are exact;
//   * u settled, v not: u's relaxation left d(v) <= d(u) + w, and v still
//     queued has d(v) + h(v) >= d(t), so d(u) + w >= d(t) - h(v);
//   * u not settled, v settled: h(u) <= w + h(v) and d(v) + h(v) <= d(t),
//     so w + d(t) - h(u) - d(v) >= d(t) - h(v) - d(v) >= 0;
//   * neither settled: r = w - h(u) + h(v) >= 0 by consistency.
// p1's arcs join settled nodes along tight labels, so each reversed p1 arc
// has r = 0. Round 2 stops as soon as t's label is final — when no queued
// key is below it — rather than when t pops: the result is the same, and
// the nodes tied with t need not settle first. Among unsettled nodes r is A*'s own reduced cost, so round 2
// is goal-directed as well, without a second heuristic. A node with
// h = +inf cannot reach t, even through a reversed p1 arc (every p1 node
// reaches t, so a path into p1 would give it a finite bound), so neither
// round enters one. That makes h = +inf a node cut as well: a caller may
// put +inf on nodes it wants left out, and both rounds then see exactly the
// arcs an arc mask over those nodes would leave, in the same order
// (rwa::ArenaLowerBound cuts the ϑ search's closed links that way). With
// h = 0 the potentials are min(d(v), d(t)) and both rounds are plain
// Dijkstra.
//
// The round-1 path p1 is reversed with cost 0 (the paper's E_reserve); p1
// is simple, so it is stored as one in-arc per node (`p1_in`) and round 2
// reads that arc instead of scanning in_edges. Interlacing edges then cancel
// (E_intersect) and the union decomposes into the two paths, taking the
// highest-id flow arc out of each node.
//
// Equal-cost pairs are all optimal, so the tie rule is free: it falls out
// of the settle order — QuadHeap's (key, id): of two equal keys, the lower
// node id settles first; h changes the keys — the relaxation order
// (out-arcs in adjacency order, then the p1 in-arc; strict improvement
// only) and the decomposition order above. It depends on nothing else, so
// it is the same however the heap's pushes and decrease-keys interleave.
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
  // has_edge_disjoint_pair: the flow's arc into and out of each node (the
  // first augmentation is a simple path, so one of each), the side flags
  // and labelling arcs of the two searches, and their queues.
  std::vector<EdgeId> flow_in;
  std::vector<EdgeId> flow_out;
  std::vector<std::uint8_t> side;
  std::vector<EdgeId> back_arc;
  std::vector<NodeId> queue;
  std::vector<NodeId> back_queue;
  /// Nodes the last suurballe_into settled in round 1 (t included; at most
  /// the nodes with d(v) + h(v) <= d(t)) and in round 2.
  std::int64_t round1_settled = 0;
  std::int64_t round2_settled = 0;
};

/// Minimum-total-weight pair of edge-disjoint paths s -> t, or found == false
/// when no such pair exists. Weights must be nonnegative; +inf arcs are never
/// used. The optional mask restricts the computation to a subgraph. `h`
/// (optional, one entry per node) is a consistent lower bound on each node's
/// distance to t over that subgraph, with h(t) = 0 (see the file comment);
/// it changes which equal-cost pair is returned, never the pair's cost or
/// whether one is found. Requires s != t. Writes into `*out`, recycling its
/// path vectors; `*ws` holds every intermediate buffer.
void suurballe_into(const Digraph& g, std::span<const double> w, NodeId s,
                    NodeId t, std::span<const std::uint8_t> edge_enabled,
                    SuurballeWorkspace* ws, DisjointPair* out,
                    std::span<const double> h = {});

/// True iff two edge-disjoint s -> t paths exist over the open arcs: those
/// enabled (empty mask = all) with w[e] < `below` (empty `w` = all; the
/// default +inf opens every finite arc) — exactly when suurballe_into would
/// find a pair on them, without computing one. The existence question is a
/// unit-capacity flow of value 2, answered by two augmentations in the
/// residual graph (an unused open arc forwards, a used one backwards). Each
/// augmentation is a BFS from both ends: a forward side from s over
/// residual arcs and a backward side from t over reversed residual arcs,
/// expanding the smaller frontier one node at a time until the sides meet.
/// The first augmentation is a simple path, so the second reads each node's
/// one flow arc instead of scanning in-arcs. The answer is "max-flow >= 2",
/// which does not depend on the paths found. Requires s != t. Reuses
/// `*ws`'s buffers, so a warm workspace makes it allocation-free.
bool has_edge_disjoint_pair(const Digraph& g, std::span<const double> w,
                            NodeId s, NodeId t,
                            std::span<const std::uint8_t> edge_enabled,
                            SuurballeWorkspace* ws, double below = kInf);

/// The O(deg(s) + deg(t)) necessary condition for has_edge_disjoint_pair
/// over the same open arcs: at least two leave s and at least two enter t.
/// False means no pair; true decides nothing.
bool ends_admit_edge_disjoint_pair(const Digraph& g, std::span<const double> w,
                                   NodeId s, NodeId t,
                                   std::span<const std::uint8_t> edge_enabled,
                                   double below = kInf);

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
