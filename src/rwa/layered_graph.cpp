#include "rwa/layered_graph.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {

namespace {

bool link_on(std::span<const std::uint8_t> mask, EdgeId e) {
  return mask.empty() || mask[static_cast<std::size_t>(e)] != 0;
}

void check_query(const net::WdmNetwork& net, NodeId s, NodeId t,
                 std::span<const std::uint8_t> link_enabled,
                 const LinkView& view) {
  const auto& pg = net.graph();
  const auto m = static_cast<std::size_t>(pg.num_edges());
  WDM_CHECK(pg.valid_node(s) && pg.valid_node(t));
  WDM_CHECK(link_enabled.empty() || link_enabled.size() == m);
  WDM_CHECK(view.usable.empty() || view.usable.size() == m);
  WDM_CHECK(view.shared.empty() || view.shared.size() == m);
}

net::WavelengthSet usable_on(const net::WdmNetwork& net, const LinkView& view,
                             EdgeId e) {
  return view.usable.empty() ? net.available(e)
                             : view.usable[static_cast<std::size_t>(e)];
}

double weight_on(const net::WdmNetwork& net, const LinkView& view, EdgeId e,
                 net::Wavelength l) {
  const double real = net.weight(e, l);
  return !view.shared.empty() &&
                 view.shared[static_cast<std::size_t>(e)].contains(l)
             ? real * view.shared_price_factor
             : real;
}

// Active-node compaction: with a confining mask (the §3.3.2 refinement runs
// inside an induced subgraph of a handful of links), only nodes incident to
// an enabled link — plus the query endpoints — can appear on any S->T path.
// Skipping the rest drops the n·W² conversion-arc term to (active)·W², which
// is what makes per-request refinement affordable at continental scale.
// Slots are handed out in first-touch order: s, t, then the endpoints of
// each enabled link in ascending id. Unmasked queries keep the dense layout
// (slot = node id; every node is active anyway). Returns the slot count.
NodeId compact_active(const graph::Digraph& pg, NodeId s, NodeId t,
                      std::span<const std::uint8_t> link_enabled,
                      std::vector<NodeId>* layer_of,
                      std::vector<NodeId>* node_of_slot) {
  if (link_enabled.empty()) return pg.num_nodes();
  layer_of->assign(static_cast<std::size_t>(pg.num_nodes()),
                   graph::kInvalidNode);
  node_of_slot->clear();
  auto touch = [&](NodeId v) {
    NodeId& slot = (*layer_of)[static_cast<std::size_t>(v)];
    if (slot == graph::kInvalidNode) {
      slot = static_cast<NodeId>(node_of_slot->size());
      node_of_slot->push_back(v);
    }
  };
  touch(s);
  touch(t);
  for (EdgeId e = 0; e < pg.num_edges(); ++e) {
    if (!link_on(link_enabled, e)) continue;
    touch(pg.tail(e));
    touch(pg.head(e));
  }
  return static_cast<NodeId>(node_of_slot->size());
}

// True when `links` walks from s to t through pairwise distinct nodes.
// `on_walk` (one entry per node, all 0) is left all 0.
bool simple_chain(const graph::Digraph& pg, NodeId s, NodeId t,
                  std::span<const EdgeId> links,
                  std::vector<std::uint8_t>* on_walk) {
  for (const EdgeId e : links) WDM_CHECK(pg.valid_edge(e));
  if (links.empty() || pg.tail(links.front()) != s ||
      pg.head(links.back()) != t) {
    return false;
  }
  auto& mark = *on_walk;
  if (mark.size() < static_cast<std::size_t>(pg.num_nodes())) {
    mark.resize(static_cast<std::size_t>(pg.num_nodes()), 0);
  }
  mark[static_cast<std::size_t>(s)] = 1;
  std::size_t k = 0;  // links[0, k) have their heads marked
  bool simple = true;
  for (; k < links.size(); ++k) {
    const EdgeId e = links[k];
    std::uint8_t& seen = mark[static_cast<std::size_t>(pg.head(e))];
    if ((k > 0 && pg.tail(e) != pg.head(links[k - 1])) || seen != 0) {
      simple = false;
      break;
    }
    seen = 1;
  }
  mark[static_cast<std::size_t>(s)] = 0;
  for (std::size_t i = 0; i < k; ++i) {
    mark[static_cast<std::size_t>(pg.head(links[i]))] = 0;
  }
  return simple;
}

// The labels of one node's out-copies from those of its in-copies, over the
// conversion arcs the solver relaxes for `table`'s shape; from[b] is the
// in-copy the solver would record as (v, b)_out's predecessor: of the
// candidates that reach the minimum, the least (in-label, λ), i.e. the one
// it settles first. Entries with an infinite label are unreachable and
// their from[] is never read.
void convert_at(const net::ConversionTable& table, int W, const double* in,
                double* out, net::Wavelength* from) {
  // Candidate a for (v, b)_out at conversion cost c, scanned in ascending
  // a: strict improvement, or the same value from a smaller in-label.
  const auto offer = [&](net::Wavelength a, double c, double& best,
                         net::Wavelength& arg) {
    if (in[a] == graph::kInf) return;
    const double v = in[a] + c;
    if (v < best || (v == best && in[a] < in[arg])) {
      best = v;
      arg = a;
    }
  };
  using Shape = net::ConversionTable::Shape;
  switch (table.shape()) {
    case Shape::kNone:
      for (net::Wavelength b = 0; b < W; ++b) {
        out[b] = in[b] + 0.0;
        from[b] = b;
      }
      break;
    case Shape::kFull: {
      // The first in-copy settled, the least (label, λ), fans out to every
      // out-copy; each later one relaxes only its identity arc, which wins
      // only when strictly cheaper.
      net::Wavelength first = 0;
      for (net::Wavelength a = 1; a < W; ++a) {
        if (in[a] < in[first]) first = a;
      }
      const double fan = in[first] + table.uniform_cost();
      for (net::Wavelength b = 0; b < W; ++b) {
        const double own = in[b] + 0.0;
        if (b != first && own < fan) {
          out[b] = own;
          from[b] = b;
        } else {
          out[b] = b == first ? own : fan;
          from[b] = first;
        }
      }
      break;
    }
    case Shape::kLimitedRange: {
      const int r = std::min(table.range(), W - 1);
      for (net::Wavelength b = 0; b < W; ++b) {
        double best = graph::kInf;
        net::Wavelength arg = b;
        const net::Wavelength hi = std::min(W - 1, b + r);
        for (net::Wavelength a = std::max(0, b - r); a <= hi; ++a) {
          offer(a, table.cost_in_range(a, b), best, arg);
        }
        out[b] = best;
        from[b] = arg;
      }
      break;
    }
    case Shape::kGeneral:
      for (net::Wavelength b = 0; b < W; ++b) {
        double best = graph::kInf;
        net::Wavelength arg = b;
        for (net::Wavelength a = 0; a < W; ++a) {
          if (table.allowed_general(a, b)) {
            offer(a, table.cost_general(a, b), best, arg);
          }
        }
        out[b] = best;
        from[b] = arg;
      }
      break;
  }
}

}  // namespace

LayeredGraph LayeredGraph::build(const net::WdmNetwork& net, NodeId s,
                                 NodeId t,
                                 std::span<const std::uint8_t> link_enabled,
                                 const LinkView& view) {
  check_query(net, s, t, link_enabled, view);
  const auto& pg = net.graph();
  const int W = net.W();
  const bool compacted = !link_enabled.empty();
  std::vector<NodeId> layer_of;
  std::vector<NodeId> node_of_slot;
  const NodeId n_active =
      compact_active(pg, s, t, link_enabled, &layer_of, &node_of_slot);
  const auto slot = [&](NodeId v) {
    return compacted ? layer_of[static_cast<std::size_t>(v)] : v;
  };

  LayeredGraph lg;
  lg.source = s;
  lg.num_wavelengths = W;
  lg.node_of_slot = std::move(node_of_slot);
  if (!compacted) {
    for (NodeId v = 0; v < n_active; ++v) lg.node_of_slot.push_back(v);
  }
  // Layout: in-copy of (v, λ) = 2*(slot(v)*W + λ), out-copy = +1.
  lg.source_hub = 2 * n_active * W;
  lg.sink_hub = 2 * n_active * W + 1;
  auto in_copy = [&](NodeId v, net::Wavelength l) {
    return 2 * (slot(v) * W + l);
  };
  auto out_copy = [&](NodeId v, net::Wavelength l) {
    return 2 * (slot(v) * W + l) + 1;
  };
  const net::Hop no_hop{};
  std::vector<NodeId> tails;
  std::vector<NodeId> heads;
  auto add = [&](NodeId a, NodeId b, double weight, net::Hop hop) {
    tails.push_back(a);
    heads.push_back(b);
    lg.w.push_back(weight);
    lg.hop_of_arc.push_back(hop);
  };

  // Conversion arcs (including the free λ -> λ pass-through).
  for (NodeId v = 0; v < pg.num_nodes(); ++v) {
    if (compacted && slot(v) == graph::kInvalidNode) continue;
    const auto& table = net.conversion(v);
    for (net::Wavelength a = 0; a < W; ++a) {
      for (net::Wavelength b = 0; b < W; ++b) {
        if (table.allowed(a, b)) {
          add(in_copy(v, a), out_copy(v, b), table.cost(a, b), no_hop);
        }
      }
    }
  }
  // Traversal arcs over the view.
  for (EdgeId e = 0; e < pg.num_edges(); ++e) {
    if (!link_on(link_enabled, e)) continue;
    const NodeId u = pg.tail(e);
    const NodeId v = pg.head(e);
    usable_on(net, view, e).for_each([&](net::Wavelength l) {
      add(out_copy(u, l), in_copy(v, l), weight_on(net, view, e, l),
          net::Hop{e, l});
    });
  }
  // Hubs.
  for (net::Wavelength l = 0; l < W; ++l) {
    add(lg.source_hub, out_copy(s, l), 0.0, no_hop);
    add(in_copy(t, l), lg.sink_hub, 0.0, no_hop);
  }
  lg.g = graph::Digraph(lg.sink_hub + 1, std::move(tails), std::move(heads));
  return lg;
}

std::vector<double> LayeredGraph::lift(std::span<const double> bound) const {
  std::vector<double> h(static_cast<std::size_t>(g.num_nodes()));
  const auto W = static_cast<std::size_t>(num_wavelengths);
  for (std::size_t sl = 0; sl < node_of_slot.size(); ++sl) {
    const double hv = bound[static_cast<std::size_t>(node_of_slot[sl])];
    std::fill_n(h.begin() + static_cast<std::ptrdiff_t>(2 * sl * W), 2 * W,
                hv);
  }
  h[static_cast<std::size_t>(source_hub)] =
      bound[static_cast<std::size_t>(source)];
  h[static_cast<std::size_t>(sink_hub)] = 0.0;
  return h;
}

net::Semilightpath LayeredGraph::to_semilightpath(const graph::Path& p) const {
  net::Semilightpath slp;
  if (!p.found) return slp;
  slp.found = true;
  for (EdgeId arc : p.edges) {
    const net::Hop& h = hop_of_arc[static_cast<std::size_t>(arc)];
    if (h.edge != graph::kInvalidEdge) slp.hops.push_back(h);
  }
  return slp;
}

double semilightpath_bound_into(const net::WdmNetwork& net, NodeId s,
                                NodeId t,
                                std::span<const std::uint8_t> link_enabled,
                                SemilightpathWorkspace& ws,
                                const LinkView& view) {
  check_query(net, s, t, link_enabled, view);
  const auto& pg = net.graph();
  const auto n = static_cast<std::size_t>(pg.num_nodes());
  ws.bound.assign(n, graph::kInf);
  ws.heap.reset(n);
  ws.bound[static_cast<std::size_t>(t)] = 0.0;
  ws.heap.push(static_cast<std::size_t>(t), 0.0);
  while (!ws.heap.empty()) {
    const auto [vid, dv] = ws.heap.pop_min();
    for (const EdgeId e : pg.in_edges(static_cast<NodeId>(vid))) {
      const auto u = static_cast<std::size_t>(pg.tail(e));
      // dv + c >= dv: a tail already at or below dv cannot improve, so its
      // link's charge is never gathered.
      if (ws.bound[u] <= dv || !link_on(link_enabled, e)) continue;
      double charge = graph::kInf;
      usable_on(net, view, e).for_each([&](net::Wavelength l) {
        charge = std::min(charge, weight_on(net, view, e, l));
      });
      if (charge == graph::kInf) continue;  // nothing usable on e
      const double du = dv + charge;
      if (du < ws.bound[u]) {
        ws.bound[u] = du;
        ws.heap.push_or_decrease(u, du);
      }
    }
  }
  return ws.bound[static_cast<std::size_t>(s)];
}

double optimal_semilightpath_into(const net::WdmNetwork& net, NodeId s,
                                  NodeId t,
                                  std::span<const std::uint8_t> link_enabled,
                                  SemilightpathWorkspace& ws,
                                  net::Semilightpath* out,
                                  const LinkView& view) {
  WDM_CHECK_MSG(s != t, "semilightpath endpoints must differ");
  out->hops.clear();
  out->found = false;
  ws.conv_arcs_relaxed = 0;
  // The A* bound (checks the query); t out of reach ends the solve here.
  if (semilightpath_bound_into(net, s, t, link_enabled, ws, view) ==
      graph::kInf) {
    return graph::kInf;
  }

  const auto& pg = net.graph();
  const int W = net.W();
  const bool compacted = !link_enabled.empty();
  const NodeId n_active = compact_active(pg, s, t, link_enabled, &ws.layer_of,
                                         &ws.node_of_slot);
  const auto slot = [&](NodeId v) {
    return compacted ? ws.layer_of[static_cast<std::size_t>(v)] : v;
  };
  const NodeId source_hub = 2 * n_active * W;
  const NodeId sink_hub = source_hub + 1;
  const auto num_nodes = static_cast<std::size_t>(sink_hub) + 1;
  // pred_edge is written together with pred on every relaxation; only pred,
  // whose kInvalidNode marks the source hub for the path walk, needs a reset.
  ws.dist.assign(num_nodes, graph::kInf);
  ws.pred.assign(num_nodes, graph::kInvalidNode);
  ws.pred_edge.resize(num_nodes);
  ws.heap.reset(num_nodes);
  // Full conversion: the in-label each node last fanned out from. s starts
  // at 0, as its out-copies do, so no conversion arc at s can improve.
  ws.fanned.assign(static_cast<std::size_t>(n_active), graph::kInf);
  ws.fanned[static_cast<std::size_t>(slot(s))] = 0.0;

  // dijkstra_into's relax rule, potential included, over the arcs
  // LayeredGraph::build would insert, generated per settled node in build's
  // insertion order. `hv` is the bound of v's physical node (0 at the sink).
  auto relax = [&](NodeId u, double du, NodeId v, double w, double hv,
                   EdgeId link) {
    WDM_DCHECK(w >= 0.0);
    const auto vi = static_cast<std::size_t>(v);
    const double dv = du + w;
    if (dv < ws.dist[vi]) {
      if (hv == graph::kInf) return;
      ws.dist[vi] = dv;
      ws.pred[vi] = u;
      ws.pred_edge[vi] = link;
      ws.heap.push_or_decrease(vi, dv + hv);
    }
  };
  const double hs = ws.bound[static_cast<std::size_t>(s)];
  ws.dist[static_cast<std::size_t>(source_hub)] = 0.0;
  ws.heap.push(static_cast<std::size_t>(source_hub), 0.0);
  while (!ws.heap.empty()) {
    const auto uid = ws.heap.pop_min().first;
    const auto u = static_cast<NodeId>(uid);
    const double du = ws.dist[uid];
    if (u == source_hub) {
      for (net::Wavelength l = 0; l < W; ++l) {
        relax(u, du, 2 * (slot(s) * W + l) + 1, 0.0, hs, graph::kInvalidEdge);
      }
      continue;
    }
    const NodeId layer = u / 2;  // slot * W + λ
    const NodeId sl = layer / W;
    const net::Wavelength l = layer % W;
    const NodeId v =
        compacted ? ws.node_of_slot[static_cast<std::size_t>(sl)] : sl;
    const double hv = ws.bound[static_cast<std::size_t>(v)];
    if (u % 2 == 0) {
      // In-copy: conversion arcs in ascending λ', then the sink arc. The
      // shape decides which λ' can improve (see the header).
      const auto& table = net.conversion(v);
      const auto convert = [&](net::Wavelength b, double c) {
        ++ws.conv_arcs_relaxed;
        relax(u, du, 2 * (sl * W + b) + 1, c, hv, graph::kInvalidEdge);
      };
      using Shape = net::ConversionTable::Shape;
      switch (table.shape()) {
        case Shape::kGeneral:
          for (net::Wavelength b = 0; b < W; ++b) {
            if (table.allowed_general(l, b)) {
              convert(b, table.cost_general(l, b));
            }
          }
          break;
        case Shape::kFull: {
          // Only v's conversion arcs (and, for s, the source hub's) reach
          // v's out-copies, and one fan-out reaches all of them, so after a
          // fan-out from label f a later in-copy with du >= f can lower no
          // out-copy but its own. It fans out again only when du < f,
          // which a rounding tie in d + h allows (see the header).
          double& fan = ws.fanned[static_cast<std::size_t>(sl)];
          if (du < fan) {
            fan = du;
            for (net::Wavelength b = 0; b < W; ++b) {
              convert(b, b == l ? 0.0 : table.uniform_cost());
            }
            break;
          }
          convert(l, 0.0);
          break;
        }
        case Shape::kNone:
          convert(l, 0.0);
          break;
        case Shape::kLimitedRange: {
          const int r = std::min(table.range(), W - 1);
          const net::Wavelength hi = std::min(W - 1, l + r);
          for (net::Wavelength b = std::max(0, l - r); b <= hi; ++b) {
            convert(b, table.cost_in_range(l, b));
          }
          break;
        }
      }
      if (v == t) {
        // The sink's arcs weigh 0, h(t) = 0 and every earlier pop had a
        // key ≤ du, so the first in-copy of t to settle gives the sink its
        // final label and predecessor: stop rather than settle every node
        // tied with it (the sink has the highest id, so it would pop last
        // of them).
        relax(u, du, sink_hub, 0.0, 0.0, graph::kInvalidEdge);
        break;
      }
    } else {
      // Out-copy: traversal arcs in ascending link id.
      for (EdgeId e : pg.out_edges(v)) {
        if (!link_on(link_enabled, e) || !usable_on(net, view, e).contains(l)) {
          continue;
        }
        const NodeId head = pg.head(e);
        relax(u, du, 2 * (slot(head) * W + l), weight_on(net, view, e, l),
              ws.bound[static_cast<std::size_t>(head)], e);
      }
    }
  }

  const double cost = ws.dist[static_cast<std::size_t>(sink_hub)];
  if (cost == graph::kInf) return cost;
  // Collected in the workspace first, so `out` grows at most once.
  ws.hops.clear();
  std::size_t steps = 0;
  for (NodeId x = sink_hub; ws.pred[static_cast<std::size_t>(x)] !=
                            graph::kInvalidNode;
       x = ws.pred[static_cast<std::size_t>(x)]) {
    WDM_CHECK_MSG(++steps <= num_nodes,
                  "predecessor cycle while extracting a semilightpath");
    const EdgeId e = ws.pred_edge[static_cast<std::size_t>(x)];
    if (e != graph::kInvalidEdge) ws.hops.push_back({e, (x / 2) % W});
  }
  out->hops.assign(ws.hops.rbegin(), ws.hops.rend());
  out->found = true;
  return cost;
}

double refine_along_into(const net::WdmNetwork& net, NodeId s, NodeId t,
                         std::span<const EdgeId> links,
                         SemilightpathWorkspace& ws, net::Semilightpath* out) {
  WDM_CHECK_MSG(s != t, "semilightpath endpoints must differ");
  const auto& pg = net.graph();
  WDM_CHECK(pg.valid_node(s) && pg.valid_node(t));
  WDM_TEL_COUNT("rwa.refine.calls");
  if (!simple_chain(pg, s, t, links, &ws.on_walk)) {
    WDM_TEL_COUNT("rwa.refine.fallbacks");
    ws.walk_mask.assign(static_cast<std::size_t>(pg.num_edges()), 0);
    for (const EdgeId e : links) ws.walk_mask[static_cast<std::size_t>(e)] = 1;
    return optimal_semilightpath_into(net, s, t, ws.walk_mask, ws, out);
  }
  out->hops.clear();
  out->found = false;

  const int W = net.W();
  const auto w = static_cast<std::size_t>(W);
  const std::size_t L = links.size();
  ws.label.resize(2 * w);
  double* const lab_out = ws.label.data();  // out-copies of the tail
  double* const lab_in = lab_out + w;       // in-copies of the head
  ws.from.resize((L - 1) * w);
  // The source hub reaches every out-copy of s at 0.0 + 0.0.
  std::fill(lab_out, lab_out + w, 0.0);
  for (std::size_t k = 0;; ++k) {
    const EdgeId e = links[k];
    const net::WavelengthSet usable = net.available(e);
    bool reached = false;
    for (net::Wavelength l = 0; l < W; ++l) {
      const auto li = static_cast<std::size_t>(l);
      if (lab_out[li] == graph::kInf || !usable.contains(l)) {
        lab_in[li] = graph::kInf;
        continue;
      }
      lab_in[li] = lab_out[li] + net.weight(e, l);
      reached = true;
    }
    if (!reached) return graph::kInf;
    if (k + 1 == L) break;
    convert_at(net.conversion(pg.head(e)), W, lab_in, lab_out,
               ws.from.data() + k * w);
  }

  // The sink arc (+ 0.0) of the least λ among t's minimum labels.
  net::Wavelength best = 0;
  for (net::Wavelength l = 1; l < W; ++l) {
    if (lab_in[l] < lab_in[best]) best = l;
  }
  out->hops.resize(L);
  out->hops[L - 1] = {links[L - 1], best};
  for (std::size_t k = L - 1; k > 0; --k) {
    const net::Wavelength l = out->hops[k].lambda;
    out->hops[k - 1] = {links[k - 1],
                        ws.from[(k - 1) * w + static_cast<std::size_t>(l)]};
  }
  out->found = true;
  return lab_in[best] + 0.0;
}

net::Semilightpath optimal_semilightpath(
    const net::WdmNetwork& net, NodeId s, NodeId t,
    std::span<const std::uint8_t> link_enabled) {
  SemilightpathWorkspace ws;
  net::Semilightpath p;
  optimal_semilightpath_into(net, s, t, link_enabled, ws, &p);
  return p;
}

double optimal_semilightpath_cost(
    const net::WdmNetwork& net, NodeId s, NodeId t,
    std::span<const std::uint8_t> link_enabled) {
  const net::Semilightpath p = optimal_semilightpath(net, s, t, link_enabled);
  return p.found ? p.cost(net) : graph::kInf;
}

}  // namespace wdm::rwa
