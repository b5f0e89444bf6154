#include "graph/suurballe.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/heaps.hpp"
#include "support/check.hpp"

namespace wdm::graph {

namespace {

bool edge_on(std::span<const std::uint8_t> mask, EdgeId e) {
  return mask.empty() || mask[static_cast<std::size_t>(e)] != 0;
}

/// The pair check's open arcs: enabled, and w[e] < below (empty w: all).
bool arc_open(std::span<const double> w,
              std::span<const std::uint8_t> edge_enabled, double below,
              EdgeId e) {
  return edge_on(edge_enabled, e) &&
         (w.empty() || w[static_cast<std::size_t>(e)] < below);
}

}  // namespace

void suurballe_into(const Digraph& g, std::span<const double> w, NodeId s,
                    NodeId t, std::span<const std::uint8_t> edge_enabled,
                    SuurballeWorkspace* ws, DisjointPair* out,
                    std::span<const double> h) {
  WDM_CHECK(g.valid_node(s) && g.valid_node(t));
  WDM_CHECK_MSG(s != t, "suurballe requires distinct endpoints");
  const auto m = static_cast<std::size_t>(g.num_edges());
  const auto n = static_cast<std::size_t>(g.num_nodes());
  WDM_CHECK(w.size() == m);
  WDM_CHECK(h.empty() || h.size() == n);
  WDM_DCHECK(h.empty() || h[static_cast<std::size_t>(t)] == 0.0);

  out->found = false;
  for (Path* p : {&out->first, &out->second}) {
    p->edges.clear();
    p->cost = 0.0;
    p->found = false;
  }
  ws->round2_settled = 0;

  // Round 1: Dijkstra from s — A* on h when given — stopped when t settles
  // (the paper's first iteration of Find_Two_Paths on G'^1 = G'). p1
  // follows the tree's predecessors; p1_in[v] is the one p1 arc entering v.
  DijkstraOptions opt;
  opt.target = t;
  opt.edge_enabled = edge_enabled;
  opt.potential = h;
  auto& heap = ws->heap;
  heap.reset(n);
  ws->round1_settled = static_cast<std::int64_t>(
      dijkstra_into(g, w, s, opt, heap, &ws->tree));
  const ShortestPathTree& tree1 = ws->tree;
  if (!tree1.reached(t)) return;
  heap.reset(n);  // the early stop leaves tentative labels queued
  ws->p1_in.assign(n, kInvalidEdge);
  std::size_t p1_len = 0;
  for (NodeId v = t; v != s;) {
    const EdgeId e = tree1.pred_edge[static_cast<std::size_t>(v)];
    ws->p1_in[static_cast<std::size_t>(v)] = e;
    v = g.tail(e);
    WDM_CHECK_MSG(++p1_len <= m, "predecessor cycle while extracting p1");
  }

  // Round 2: Dijkstra over reduced costs w(e) + π(tail) - π(head), with p1's
  // arcs usable only backwards at cost 0 (the paper's E_reserve), on the
  // potentials π(v) = min(d(v), d(t) - h(v)) over round 1's labels,
  // tentative or +inf ones included (h = 0 when empty). That is d(v) for a
  // settled v and d(t) - h(v) otherwise; the header shows every reduced
  // cost is nonnegative. Nodes with h = +inf cannot reach t and are skipped.
  const double dt = tree1.distance(t);
  auto pi = [&](std::size_t v) {
    return std::min(tree1.dist[v], dt - (h.empty() ? 0.0 : h[v]));
  };
  ws->dist.assign(n, kInf);
  // Predecessor arc: edge id, plus whether it was traversed in reverse.
  ws->pred.assign(n, kInvalidEdge);
  ws->pred_rev.assign(n, 0);
  auto& dist = ws->dist;
  dist[static_cast<std::size_t>(s)] = 0.0;
  heap.push(static_cast<std::size_t>(s), 0.0);
  const auto ti = static_cast<std::size_t>(t);
  while (!heap.empty()) {
    // t is final once no queued key is below its own: reduced costs are
    // clamped nonnegative and relaxation is strict, so no later pop can
    // change its label or the path behind it. Stop there rather than
    // settle every node tied with it first.
    if (heap.contains(ti) && heap.key(ti) <= heap.min_key()) {
      ++ws->round2_settled;
      break;
    }
    const auto [uid, du] = heap.pop_min();
    const auto u = static_cast<NodeId>(uid);
    ++ws->round2_settled;
    const double pu = pi(uid);
    for (EdgeId e : g.out_edges(u)) {
      const auto v = static_cast<std::size_t>(g.head(e));
      if (!edge_on(edge_enabled, e) || ws->p1_in[v] == e) continue;
      if (!h.empty() && h[v] == kInf) continue;
      const double pv = pi(v);
      const double r = w[static_cast<std::size_t>(e)] + pu - pv;
      WDM_DCHECK(r >= -1e-9 * std::max({1.0, std::abs(pu), std::abs(pv)}));
      // Clamp tiny negatives from floating-point cancellation.
      const double dv = du + (r < 0.0 ? 0.0 : r);
      if (dv < dist[v]) {
        dist[v] = dv;
        ws->pred[v] = e;
        ws->pred_rev[v] = 0;
        heap.push_or_decrease(v, dv);
      }
    }
    const EdgeId back = ws->p1_in[uid];
    if (back == kInvalidEdge) continue;
    // Traverse p1's arc into u backwards: head -> tail, reduced cost 0.
    const auto v = static_cast<std::size_t>(g.tail(back));
    if (du < dist[v]) {
      dist[v] = du;
      ws->pred[v] = back;
      ws->pred_rev[v] = 1;
      heap.push_or_decrease(v, du);
    }
  }
  if (dist[static_cast<std::size_t>(t)] == kInf) return;  // no pair

  // Cancel interlacing edges (the paper's E_intersect): an edge of p1 used in
  // reverse by round 2 drops out of p1_in. The flow is round 2's forward
  // arcs plus p1's surviving arcs, sorted by id.
  ws->flow_edges.clear();
  for (NodeId v = t; v != s;) {
    const EdgeId e = ws->pred[static_cast<std::size_t>(v)];
    WDM_CHECK(e != kInvalidEdge);
    if (ws->pred_rev[static_cast<std::size_t>(v)]) {
      ws->p1_in[static_cast<std::size_t>(g.head(e))] = kInvalidEdge;
      v = g.head(e);
    } else {
      ws->flow_edges.push_back(e);
      v = g.tail(e);
    }
  }
  for (NodeId v = t; v != s;) {
    const EdgeId e = tree1.pred_edge[static_cast<std::size_t>(v)];
    if (ws->p1_in[static_cast<std::size_t>(v)] == e) ws->flow_edges.push_back(e);
    v = g.tail(e);
  }
  std::sort(ws->flow_edges.begin(), ws->flow_edges.end());

  // Decompose the 2-unit flow into two s->t paths. Each node's out-slots are
  // filled in ascending arc order and consumed from the back, so every step
  // takes the highest-id remaining flow arc. p1 and the round-2 path each
  // leave a node at most once, so two slots per node suffice.
  ws->slot.assign(2 * n, kInvalidEdge);
  ws->slot_count.assign(n, 0);
  for (EdgeId e : ws->flow_edges) {
    const auto v = static_cast<std::size_t>(g.tail(e));
    WDM_CHECK_MSG(ws->slot_count[v] < 2, "flow decomposition: out-degree > 2");
    ws->slot[2 * v + ws->slot_count[v]++] = e;
  }
  for (Path* p : {&out->first, &out->second}) {
    NodeId v = s;
    while (v != t) {
      const auto vi = static_cast<std::size_t>(v);
      WDM_CHECK_MSG(ws->slot_count[vi] > 0,
                    "flow decomposition stuck — not a 2-flow");
      const EdgeId e = ws->slot[2 * vi + --ws->slot_count[vi]];
      p->edges.push_back(e);
      v = g.head(e);
      WDM_CHECK_MSG(p->edges.size() <= ws->flow_edges.size(),
                    "flow decomposition cycled");
    }
    p->found = true;
    p->cost = path_weight(*p, w);
  }
  out->found = true;
  // Canonical order: cheaper path first (primary).
  if (out->second.cost < out->first.cost) std::swap(out->first, out->second);
}

bool has_edge_disjoint_pair(const Digraph& g, std::span<const double> w,
                            NodeId s, NodeId t,
                            std::span<const std::uint8_t> edge_enabled,
                            SuurballeWorkspace* ws, double below) {
  WDM_CHECK(g.valid_node(s) && g.valid_node(t));
  WDM_CHECK_MSG(s != t, "has_edge_disjoint_pair requires distinct endpoints");
  const auto m = static_cast<std::size_t>(g.num_edges());
  const auto n = static_cast<std::size_t>(g.num_nodes());
  WDM_CHECK(w.empty() || w.size() == m);
  WDM_CHECK(edge_enabled.empty() || edge_enabled.size() == m);
  const auto open = [&](EdgeId e) {
    return arc_open(w, edge_enabled, below, e);
  };

  // side[v]: bit kFwd once the forward search (from s) labels v, with the
  // arc it came over in pred[v]; bit kBwd once the backward search (from t)
  // does, with the arc leaving v towards t in back_arc[v]. Whether an arc
  // was walked forwards or backwards is read off its ends.
  constexpr std::uint8_t kFwd = 1;
  constexpr std::uint8_t kBwd = 2;
  ws->flow_in.assign(n, kInvalidEdge);
  ws->flow_out.assign(n, kInvalidEdge);
  ws->pred.resize(n);
  ws->back_arc.resize(n);
  auto& side = ws->side;
  for (int round = 0; round < 2; ++round) {
    side.assign(n, 0);
    ws->queue.clear();
    ws->back_queue.clear();
    ws->queue.push_back(s);
    ws->back_queue.push_back(t);
    side[static_cast<std::size_t>(s)] = kFwd;
    side[static_cast<std::size_t>(t)] = kBwd;
    NodeId meet = kInvalidNode;
    // Labels v for one side; when the other side holds it too, sets meet
    // and returns true.
    const auto label = [&](NodeId v, EdgeId e, std::uint8_t bit) {
      const auto vi = static_cast<std::size_t>(v);
      if (side[vi] & bit) return false;
      side[vi] |= bit;
      if (bit == kFwd) {
        ws->pred[vi] = e;
      } else {
        ws->back_arc[vi] = e;
      }
      if (side[vi] == (kFwd | kBwd)) {
        meet = v;
        return true;
      }
      (bit == kFwd ? ws->queue : ws->back_queue).push_back(v);
      return false;
    };
    std::size_t next = 0;
    std::size_t back_next = 0;
    while (meet == kInvalidNode) {
      const std::size_t frontier = ws->queue.size() - next;
      const std::size_t back_frontier = ws->back_queue.size() - back_next;
      if (frontier == 0 || back_frontier == 0) return false;
      if (frontier <= back_frontier) {
        // Residual arcs out of u: unused open arcs, and u's flow in-arc
        // walked backwards.
        const NodeId u = ws->queue[next++];
        const auto ui = static_cast<std::size_t>(u);
        for (EdgeId e : g.out_edges(u)) {
          if (e != ws->flow_out[ui] && open(e) && label(g.head(e), e, kFwd)) {
            break;
          }
        }
        const EdgeId back = ws->flow_in[ui];
        if (meet == kInvalidNode && back != kInvalidEdge) {
          label(g.tail(back), back, kFwd);
        }
      } else {
        // Residual arcs into x: unused open arcs, and x's flow out-arc
        // walked backwards.
        const NodeId x = ws->back_queue[back_next++];
        const auto xi = static_cast<std::size_t>(x);
        for (EdgeId e : g.in_edges(x)) {
          if (e != ws->flow_in[xi] && open(e) && label(g.tail(e), e, kBwd)) {
            break;
          }
        }
        const EdgeId fwd = ws->flow_out[xi];
        if (meet == kInvalidNode && fwd != kInvalidEdge) {
          label(g.head(fwd), fwd, kBwd);
        }
      }
    }
    if (round == 1) return true;
    // Augment one unit along s -> meet -> t. No arc carries flow yet, so
    // every arc of the path is walked forwards, and the path is simple: a
    // node labelled by both sides ends the search at once.
    for (NodeId v = meet; v != s;) {
      const EdgeId e = ws->pred[static_cast<std::size_t>(v)];
      ws->flow_in[static_cast<std::size_t>(v)] = e;
      v = g.tail(e);
      ws->flow_out[static_cast<std::size_t>(v)] = e;
    }
    for (NodeId v = meet; v != t;) {
      const EdgeId e = ws->back_arc[static_cast<std::size_t>(v)];
      ws->flow_out[static_cast<std::size_t>(v)] = e;
      v = g.head(e);
      ws->flow_in[static_cast<std::size_t>(v)] = e;
    }
  }
  return true;
}

bool ends_admit_edge_disjoint_pair(const Digraph& g, std::span<const double> w,
                                   NodeId s, NodeId t,
                                   std::span<const std::uint8_t> edge_enabled,
                                   double below) {
  WDM_CHECK(g.valid_node(s) && g.valid_node(t));
  WDM_CHECK(w.empty() || w.size() == static_cast<std::size_t>(g.num_edges()));
  const auto at_least_two_open = [&](std::span<const EdgeId> arcs) {
    int open = 0;
    for (EdgeId e : arcs) {
      if (arc_open(w, edge_enabled, below, e) && ++open == 2) return true;
    }
    return false;
  };
  return at_least_two_open(g.out_edges(s)) && at_least_two_open(g.in_edges(t));
}

DisjointPair suurballe(const Digraph& g, std::span<const double> w, NodeId s,
                       NodeId t, std::span<const std::uint8_t> edge_enabled) {
  SuurballeWorkspace ws;
  DisjointPair out;
  suurballe_into(g, w, s, t, edge_enabled, &ws, &out);
  return out;
}

DisjointPair naive_two_step(const Digraph& g, std::span<const double> w,
                            NodeId s, NodeId t,
                            std::span<const std::uint8_t> edge_enabled) {
  WDM_CHECK(g.valid_node(s) && g.valid_node(t));
  WDM_CHECK(s != t);
  DisjointPair result;
  const Path p1 = shortest_path(g, w, s, t, edge_enabled);
  if (!p1.found) return result;
  std::vector<std::uint8_t> mask;
  if (edge_enabled.empty()) {
    mask.assign(static_cast<std::size_t>(g.num_edges()), 1);
  } else {
    mask.assign(edge_enabled.begin(), edge_enabled.end());
  }
  for (EdgeId e : p1.edges) mask[static_cast<std::size_t>(e)] = 0;
  const Path p2 = shortest_path(g, w, s, t, mask);
  if (!p2.found) return result;
  result.found = true;
  result.first = p1;
  result.second = p2;
  if (result.second.cost < result.first.cost) {
    std::swap(result.first, result.second);
  }
  return result;
}

}  // namespace wdm::graph
