#include "rwa/layered_graph.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

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

double optimal_semilightpath_into(const net::WdmNetwork& net, NodeId s,
                                  NodeId t,
                                  std::span<const std::uint8_t> link_enabled,
                                  SemilightpathWorkspace& ws,
                                  net::Semilightpath* out,
                                  const LinkView& view) {
  WDM_CHECK_MSG(s != t, "semilightpath endpoints must differ");
  check_query(net, s, t, link_enabled, view);
  out->hops.clear();
  out->found = false;

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
  ws.conv_arcs_relaxed = 0;

  // dijkstra_into's relax rule over the arcs LayeredGraph::build would
  // insert, generated per settled node in build's insertion order.
  auto relax = [&](NodeId u, double du, NodeId v, double w, EdgeId link) {
    WDM_DCHECK(w >= 0.0);
    const auto vi = static_cast<std::size_t>(v);
    const double dv = du + w;
    if (dv < ws.dist[vi]) {
      ws.dist[vi] = dv;
      ws.pred[vi] = u;
      ws.pred_edge[vi] = link;
      ws.heap.push_or_decrease(vi, dv);
    }
  };
  ws.dist[static_cast<std::size_t>(source_hub)] = 0.0;
  ws.heap.push(static_cast<std::size_t>(source_hub), 0.0);
  while (!ws.heap.empty()) {
    const auto [uid, du] = ws.heap.pop_min();
    const auto u = static_cast<NodeId>(uid);
    if (u == sink_hub) break;
    if (u == source_hub) {
      for (net::Wavelength l = 0; l < W; ++l) {
        relax(u, du, 2 * (slot(s) * W + l) + 1, 0.0, graph::kInvalidEdge);
      }
      continue;
    }
    const NodeId layer = u / 2;  // slot * W + λ
    const NodeId sl = layer / W;
    const net::Wavelength l = layer % W;
    const NodeId v =
        compacted ? ws.node_of_slot[static_cast<std::size_t>(sl)] : sl;
    if (u % 2 == 0) {
      // In-copy: conversion arcs in ascending λ', then the sink arc. The
      // shape decides which λ' can improve (see the header).
      const auto& table = net.conversion(v);
      const auto convert = [&](net::Wavelength b) {
        ++ws.conv_arcs_relaxed;
        relax(u, du, 2 * (sl * W + b) + 1, table.cost(l, b),
              graph::kInvalidEdge);
      };
      using Shape = net::ConversionTable::Shape;
      switch (table.shape()) {
        case Shape::kGeneral:
          for (net::Wavelength b = 0; b < W; ++b) {
            if (table.allowed(l, b)) convert(b);
          }
          break;
        case Shape::kFull:
          // Only v's conversion arcs (and, for s, the source hub's) reach
          // v's out-copies, and one fan-out reaches all of them: while
          // (v, λ)_out is unreached no in-copy at v has fanned out. For s,
          // whose out-copies start at 0, no conversion arc can improve.
          if (ws.dist[static_cast<std::size_t>(u) + 1] == graph::kInf) {
            for (net::Wavelength b = 0; b < W; ++b) convert(b);
            break;
          }
          [[fallthrough]];
        case Shape::kNone:
          convert(l);
          break;
        case Shape::kLimitedRange: {
          const int r = std::min(table.range(), W - 1);
          const net::Wavelength hi = std::min(W - 1, l + r);
          for (net::Wavelength b = std::max(0, l - r); b <= hi; ++b) {
            convert(b);
          }
          break;
        }
      }
      if (v == t) relax(u, du, sink_hub, 0.0, graph::kInvalidEdge);
    } else {
      // Out-copy: traversal arcs in ascending link id.
      for (EdgeId e : pg.out_edges(v)) {
        if (!link_on(link_enabled, e) || !usable_on(net, view, e).contains(l)) {
          continue;
        }
        relax(u, du, 2 * (slot(pg.head(e)) * W + l), weight_on(net, view, e, l),
              e);
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
