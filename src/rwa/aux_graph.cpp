#include "rwa/aux_graph.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace wdm::rwa {

using graph::EdgeId;
using graph::NodeId;

bool mean_conversion_cost(const net::WdmNetwork& net, net::NodeId v,
                          graph::EdgeId in_link, graph::EdgeId out_link,
                          double* mean_out) {
  return net.conversion(v).mean_cost(net.available(in_link),
                                     net.available(out_link), mean_out);
}

namespace {

/// A link is usable when it still has available wavelengths (residual
/// network membership) and — for G_c / G_rc — its load is strictly below ϑ.
bool usable(const net::WdmNetwork& net, EdgeId e, const AuxGraphOptions& opt) {
  if (net.available(e).empty()) return false;
  return opt.weighting == AuxWeighting::kCost || net.link_load(e) < opt.theta;
}

/// Link-arc weight of usable link e, given Σ_{λ∈Λ_avail(e)} w(e,λ) and
/// |Λ_avail(e)| (only G' and G_rc read them).
double link_weight(const net::WdmNetwork& net, EdgeId e,
                   const AuxGraphOptions& opt, double sum, int count) {
  switch (opt.weighting) {
    case AuxWeighting::kCost:
      WDM_DCHECK(count > 0);
      return sum / count;
    case AuxWeighting::kLoadExponential: {
      const double u = net.usage(e);
      const double cap = net.capacity(e);
      return std::pow(opt.load_base, (u + 1.0) / cap) -
             std::pow(opt.load_base, u / cap);
    }
    case AuxWeighting::kCostLoadFiltered:
      // Paper formula: Σ_{λ∈Λ_avail(e)} w(e,λ) / N(e). Dividing by N(e)
      // rather than |Λ_avail(e)| under-weights partially loaded links; we
      // follow the paper as written by default (see header comment) and
      // expose the true mean as an ablation.
      return sum / (opt.grc_mean_over_available ? count : net.capacity(e));
  }
  return 0.0;
}

void check_query(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
                 const AuxGraphOptions& opt) {
  const auto& pg = net.graph();
  WDM_CHECK(pg.valid_node(s) && pg.valid_node(t));
  WDM_CHECK(s != t);
  if (opt.weighting == AuxWeighting::kLoadExponential) {
    WDM_CHECK_MSG(opt.load_base > 1.0, "G_c requires exponent base a > 1");
  }
}

}  // namespace

void AuxGraphBuilder::bind(const net::WdmNetwork& net) {
  if (net_uid_ == net.uid() && bound_nodes_ == net.num_nodes() &&
      bound_links_ == net.num_links()) {
    return;
  }
  ++stats_.rebinds;
  net_uid_ = net.uid();
  bound_nodes_ = net.num_nodes();
  bound_links_ = net.num_links();
  // The arena structure is keyed on the bound topology.
  uni_ready_ = false;

  const auto& pg = net.graph();
  const auto n = static_cast<std::size_t>(pg.num_nodes());
  const auto m = static_cast<std::size_t>(pg.num_edges());
  pair_base_.assign(n + 1, 0);
  in_pos_.assign(m, 0);
  out_pos_.assign(m, 0);
  std::size_t total = 0;
  for (NodeId v = 0; v < pg.num_nodes(); ++v) {
    pair_base_[static_cast<std::size_t>(v)] = total;
    const auto in_edges = pg.in_edges(v);
    const auto out_edges = pg.out_edges(v);
    for (std::size_t i = 0; i < in_edges.size(); ++i) {
      in_pos_[static_cast<std::size_t>(in_edges[i])] =
          static_cast<std::uint32_t>(i);
    }
    for (std::size_t j = 0; j < out_edges.size(); ++j) {
      out_pos_[static_cast<std::size_t>(out_edges[j])] =
          static_cast<std::uint32_t>(j);
    }
    total += in_edges.size() * out_edges.size();
  }
  pair_base_[n] = total;
  pair_has_.assign(total, kUnknown);
  pair_mean_.assign(total, 0.0);

  rec_link_rev_.assign(m, kNoRevision);
  rec_conv_rev_.assign(n, kNoRevision);
  link_dirty_.assign(m, 0);
  dirty_links_.clear();
  node_dirty_.assign(n, 0);
  touched_nodes_.clear();
}

const AuxGraph& AuxGraphBuilder::build(const net::WdmNetwork& net,
                                       net::NodeId s, net::NodeId t,
                                       const AuxGraphOptions& opt) {
  check_query(net, s, t, opt);
  support::telemetry::SplitTimer tel_timer;
  // Baseline before bind(), so a rebind shows in rwa.aux_builder.rebinds.
  const CacheStats tel_before = tel_timer.on() ? stats_ : CacheStats{};
  (void)tel_before;  // referenced only from macro expansions when compiled in
  bind(net);
  ++stats_.builds;

  if (!uni_ready_ || uni_protect_ != opt.protect_nodes) {
    build_structure(net, opt.protect_nodes);
  }
  patch_weights(net, s, t, opt);

  if (tel_timer.on()) {
    tel_timer.total(WDM_TEL_HIST("rwa.aux_builder.build_ns"));
    WDM_TEL_COUNT("rwa.aux_builder.builds");
    WDM_TEL_COUNT_N("rwa.aux_builder.conv_hits",
                    stats_.conv_hits - tel_before.conv_hits);
    WDM_TEL_COUNT_N("rwa.aux_builder.conv_misses",
                    stats_.conv_misses - tel_before.conv_misses);
    WDM_TEL_COUNT_N("rwa.aux_builder.link_hits",
                    stats_.link_hits - tel_before.link_hits);
    WDM_TEL_COUNT_N("rwa.aux_builder.link_misses",
                    stats_.link_misses - tel_before.link_misses);
    WDM_TEL_COUNT_N("rwa.aux_builder.rebinds",
                    stats_.rebinds - tel_before.rebinds);
  }
  return aux_;
}

void AuxGraphBuilder::build_structure(const net::WdmNetwork& net,
                                      bool protect) {
  const auto& pg = net.graph();
  const EdgeId m = pg.num_edges();
  const NodeId n = pg.num_nodes();
  const std::size_t pairs = pair_base_[static_cast<std::size_t>(n)];

  AuxGraph& aux = aux_;
  // Structure changes only on a rebind or a protect-flag flip: the arena is
  // a fresh graph, bulk-built from the arc table below.
  const NodeId num_nodes = 2 * m + 2 + (protect ? 2 * n : 0);
  const auto num_arcs = static_cast<std::size_t>(m) + pairs +
                        (protect ? static_cast<std::size_t>(n) +
                                       2 * static_cast<std::size_t>(m)
                                 : 0) +
                        2 * static_cast<std::size_t>(m);

  // Computed ids: u_out^e = 2e, v_in^e = 2e + 1, then the two hubs, then the
  // protect gadget nodes (hub_in(v) = 2m + 2 + 2v, hub_out(v) one above).
  aux.phys_edge_of_node.clear();
  aux.is_in_node.clear();
  auto new_node = [&](EdgeId e, bool is_in) {
    aux.phys_edge_of_node.push_back(e);
    aux.is_in_node.push_back(is_in ? 1 : 0);
    return static_cast<NodeId>(aux.is_in_node.size() - 1);
  };
  for (EdgeId e = 0; e < m; ++e) {
    new_node(e, false);
    new_node(e, true);
  }
  aux.s_prime = new_node(graph::kInvalidEdge, false);
  aux.t_second = new_node(graph::kInvalidEdge, true);
  if (protect) {
    for (NodeId v = 0; v < n; ++v) {
      new_node(graph::kInvalidEdge, true);   // hub_in(v)
      new_node(graph::kInvalidEdge, false);  // hub_out(v)
    }
  }

  // Arc table, fixed order. Weights come later (patch_*).
  std::vector<NodeId> tails;
  std::vector<NodeId> heads;
  tails.reserve(num_arcs);
  heads.reserve(num_arcs);
  auto add_arc = [&](NodeId a, NodeId b) {
    tails.push_back(a);
    heads.push_back(b);
    return static_cast<EdgeId>(tails.size() - 1);
  };
  // 1. Link arcs: arc id e = link arc of physical link e.
  for (EdgeId e = 0; e < m; ++e) {
    add_arc(2 * e, 2 * e + 1);
  }
  // 2. Pair transit arcs: m + pair_base_[v] + i * out_deg(v) + j.
  for (NodeId v = 0; v < n; ++v) {
    for (const EdgeId e : pg.in_edges(v)) {
      for (const EdgeId e2 : pg.out_edges(v)) {
        add_arc(2 * e + 1, 2 * e2);
      }
    }
  }
  // 3. Protect gadget: one hub arc per node, then one fan arc per link end.
  if (protect) {
    uni_hub_arc_base_ = static_cast<EdgeId>(tails.size());
    for (NodeId v = 0; v < n; ++v) {
      const NodeId hub_in = 2 * m + 2 + 2 * v;
      add_arc(hub_in, hub_in + 1);
    }
    uni_fan_in_arc_.assign(static_cast<std::size_t>(m), graph::kInvalidEdge);
    uni_fan_out_arc_.assign(static_cast<std::size_t>(m), graph::kInvalidEdge);
    for (NodeId v = 0; v < n; ++v) {
      const NodeId hub_in = 2 * m + 2 + 2 * v;
      for (const EdgeId e : pg.in_edges(v)) {
        uni_fan_in_arc_[static_cast<std::size_t>(e)] =
            add_arc(2 * e + 1, hub_in);
      }
      for (const EdgeId e2 : pg.out_edges(v)) {
        uni_fan_out_arc_[static_cast<std::size_t>(e2)] =
            add_arc(hub_in + 1, 2 * e2);
      }
    }
  }
  // 4./5. Query wiring: one s' arc and one t'' arc per link, id = base + e.
  uni_sprime_arc_base_ = static_cast<EdgeId>(tails.size());
  for (EdgeId e = 0; e < m; ++e) {
    add_arc(aux.s_prime, 2 * e);
  }
  uni_tsec_arc_base_ = static_cast<EdgeId>(tails.size());
  for (EdgeId e = 0; e < m; ++e) {
    add_arc(2 * e + 1, aux.t_second);
  }
  aux.g = graph::Digraph(num_nodes, std::move(tails), std::move(heads));

  aux.w.assign(static_cast<std::size_t>(aux.g.num_edges()), graph::kInf);
  aux.phys_edge_of_arc.assign(static_cast<std::size_t>(aux.g.num_edges()),
                              graph::kInvalidEdge);
  for (EdgeId e = 0; e < m; ++e) {
    aux.phys_edge_of_arc[static_cast<std::size_t>(e)] = e;
  }
  aux.num_edge_nodes = 0;
  aux.num_link_arcs = 0;
  aux.num_transit_arcs = 0;
  aux.min_transit.assign(static_cast<std::size_t>(n), graph::kInf);
  uni_usable_.assign(static_cast<std::size_t>(m), 0);
  node_transit_.assign(static_cast<std::size_t>(n), 0);
  uni_protect_ = protect;
  uni_ready_ = true;
  // Every weight is +inf: the next build re-weights everything.
  rec_valid_ = false;
  rec_s_ = graph::kInvalidNode;
  rec_t_ = graph::kInvalidNode;
}

void AuxGraphBuilder::patch_links(const net::WdmNetwork& net,
                                  const AuxGraphOptions& opt, bool all) {
  const EdgeId m = net.num_links();
  const std::span<const double> residual = net.residual_loads();
  // usable(net, e, opt): an unusable link's entry is +inf, below no bound.
  const double below =
      opt.weighting == AuxWeighting::kCost ? graph::kInf : opt.theta;
  for (EdgeId e = 0; e < m; ++e) {
    const auto i = static_cast<std::size_t>(e);
    const std::uint64_t rev = net.link_revision(e);
    const bool moved = rev != rec_link_rev_[i];
    if (moved) rec_link_rev_[i] = rev;
    const bool ok = residual[i] < below;
    const bool was = uni_usable_[i] != 0;
    if (!all && !moved && ok == was) continue;
    link_dirty_[i] = moved ? kMoved : kReweighted;
    dirty_links_.push_back(e);

    double weight = graph::kInf;
    if (ok) {
      double sum = 0.0;
      int count = 0;
      if (opt.weighting != AuxWeighting::kLoadExponential) {
        // Ascending-λ order, exactly like mean_available_weight and
        // build_aux_graph, so weights stay bit-identical.
        const net::WavelengthSet avail = net.available(e);
        avail.for_each([&](net::Wavelength l) { sum += net.weight(e, l); });
        count = avail.count();
      }
      weight = link_weight(net, e, opt, sum, count);
    }
    aux_.w[i] = weight;
    uni_usable_[i] = ok ? 1 : 0;
    const int delta = static_cast<int>(ok) - static_cast<int>(was);
    aux_.num_link_arcs += delta;
    aux_.num_edge_nodes += 2 * delta;
  }
  stats_.link_misses += dirty_links_.size();
  stats_.link_hits += static_cast<std::size_t>(m) - dirty_links_.size();
}

void AuxGraphBuilder::patch_pair(const net::WdmNetwork& net, net::NodeId v,
                                 std::size_t idx, graph::EdgeId e,
                                 graph::EdgeId e2, bool pair_enabled,
                                 bool stale, const AuxGraphOptions& opt) {
  if (stale) pair_has_[idx] = kUnknown;
  double weight = graph::kInf;
  if (uni_usable_[static_cast<std::size_t>(e)] != 0 &&
      uni_usable_[static_cast<std::size_t>(e2)] != 0) {
    if (pair_has_[idx] == kUnknown) {
      ++stats_.conv_misses;
      double mean = 0.0;
      pair_has_[idx] = mean_conversion_cost(net, v, e, e2, &mean) ? 1 : 0;
      pair_mean_[idx] = mean;
    }
    // In protect mode a pair off s and t feeds the hub arc instead
    // (finish_node).
    if (pair_has_[idx] == 1 && pair_enabled) {
      weight = (opt.weighting == AuxWeighting::kLoadExponential)
                   ? 0.0
                   : pair_mean_[idx];
    }
  }
  aux_.w[static_cast<std::size_t>(bound_links_) + idx] = weight;
}

void AuxGraphBuilder::patch_pairs(const net::WdmNetwork& net, net::NodeId s,
                                  net::NodeId t, const AuxGraphOptions& opt) {
  const auto& pg = net.graph();
  const auto enabled = [&](NodeId v) {
    return !opt.protect_nodes || v == s || v == t;
  };
  const auto moved = [&](EdgeId e) {
    return link_dirty_[static_cast<std::size_t>(e)] == kMoved;
  };
  const auto touch = [&](NodeId v) {
    if (node_dirty_[static_cast<std::size_t>(v)] != 0) return;
    node_dirty_[static_cast<std::size_t>(v)] = kTouched;
    touched_nodes_.push_back(v);
  };
  // A dirty link's pairs: its row at its head, its column at its tail. A
  // column pair whose in-link is dirty too is its in-link's row pair.
  for (const EdgeId e : dirty_links_) {
    const NodeId v = pg.head(e);
    if (node_dirty_[static_cast<std::size_t>(v)] < kWhole) {
      touch(v);
      const auto out_edges = pg.out_edges(v);
      const std::size_t row =
          pair_base_[static_cast<std::size_t>(v)] +
          in_pos_[static_cast<std::size_t>(e)] * out_edges.size();
      for (std::size_t j = 0; j < out_edges.size(); ++j) {
        patch_pair(net, v, row + j, e, out_edges[j], enabled(v),
                   moved(e) || moved(out_edges[j]), opt);
      }
    }
    const NodeId u = pg.tail(e);
    if (node_dirty_[static_cast<std::size_t>(u)] < kWhole) {
      touch(u);
      const auto in_edges = pg.in_edges(u);
      const std::size_t out_deg = static_cast<std::size_t>(pg.out_degree(u));
      const std::size_t col = pair_base_[static_cast<std::size_t>(u)] +
                              out_pos_[static_cast<std::size_t>(e)];
      for (std::size_t i = 0; i < in_edges.size(); ++i) {
        if (link_dirty_[static_cast<std::size_t>(in_edges[i])] != 0) continue;
        patch_pair(net, u, col + i * out_deg, in_edges[i], e, enabled(u),
                   moved(e), opt);
      }
    }
  }
  // Nodes dirty as a whole: every pair.
  for (const NodeId v : touched_nodes_) {
    const std::uint8_t mark = node_dirty_[static_cast<std::size_t>(v)];
    if (mark < kWhole) continue;
    const auto in_edges = pg.in_edges(v);
    const auto out_edges = pg.out_edges(v);
    std::size_t idx = pair_base_[static_cast<std::size_t>(v)];
    for (const EdgeId e : in_edges) {
      for (const EdgeId e2 : out_edges) {
        patch_pair(net, v, idx++, e, e2, enabled(v),
                   mark == kConvMoved || moved(e) || moved(e2), opt);
      }
    }
  }
}

void AuxGraphBuilder::finish_node(const net::WdmNetwork& net, net::NodeId v,
                                  net::NodeId s, net::NodeId t,
                                  const AuxGraphOptions& opt) {
  const auto& pg = net.graph();
  const auto vi = static_cast<std::size_t>(v);
  const auto m = static_cast<std::size_t>(bound_links_);
  double tau = graph::kInf;
  int contrib = 0;
  for (std::size_t arc = m + pair_base_[vi]; arc < m + pair_base_[vi + 1];
       ++arc) {
    if (aux_.w[arc] == graph::kInf) continue;
    ++contrib;
    tau = std::min(tau, aux_.w[arc]);
  }

  if (opt.protect_nodes) {
    const auto in_edges = pg.in_edges(v);
    const auto out_edges = pg.out_edges(v);
    double hub_sum = 0.0;
    int hub_pairs = 0;
    if (v != s && v != t) {
      // Every transit at v funnels through the hub arc: the mean over its
      // convertible pairs, in (i, j) order — bit-identical to
      // build_aux_graph's accumulation.
      std::size_t idx = pair_base_[vi];
      for (const EdgeId e : in_edges) {
        const bool in_ok = uni_usable_[static_cast<std::size_t>(e)] != 0;
        for (const EdgeId e2 : out_edges) {
          if (in_ok && uni_usable_[static_cast<std::size_t>(e2)] != 0 &&
              pair_has_[idx] == 1) {
            hub_sum += pair_mean_[idx];
            ++hub_pairs;
          }
          ++idx;
        }
      }
    }
    const bool hub_on = hub_pairs > 0;
    double hub_weight = graph::kInf;
    if (hub_on) {
      hub_weight = (opt.weighting == AuxWeighting::kLoadExponential)
                       ? 0.0
                       : hub_sum / hub_pairs;
      ++contrib;
      tau = std::min(tau, hub_weight);
    }
    aux_.w[static_cast<std::size_t>(uni_hub_arc_base_ + v)] = hub_weight;
    for (const EdgeId e : in_edges) {
      const EdgeId fan = uni_fan_in_arc_[static_cast<std::size_t>(e)];
      aux_.w[static_cast<std::size_t>(fan)] =
          (hub_on && uni_usable_[static_cast<std::size_t>(e)] != 0)
              ? 0.0
              : graph::kInf;
    }
    for (const EdgeId e2 : out_edges) {
      const EdgeId fan = uni_fan_out_arc_[static_cast<std::size_t>(e2)];
      aux_.w[static_cast<std::size_t>(fan)] =
          (hub_on && uni_usable_[static_cast<std::size_t>(e2)] != 0)
              ? 0.0
              : graph::kInf;
    }
  }
  aux_.num_transit_arcs += contrib - node_transit_[vi];
  node_transit_[vi] = contrib;
  aux_.min_transit[vi] = tau;
}

void AuxGraphBuilder::patch_weights(const net::WdmNetwork& net, net::NodeId s,
                                    net::NodeId t, const AuxGraphOptions& opt) {
  const auto& pg = net.graph();
  const bool all = !rec_valid_ || rec_weighting_ != opt.weighting ||
                   rec_load_base_ != opt.load_base ||
                   rec_grc_mean_ != opt.grc_mean_over_available;
  const std::uint64_t misses_before = stats_.conv_misses;

  patch_links(net, opt, all);

  const auto mark_whole = [&](NodeId v, std::uint8_t mark) {
    std::uint8_t& d = node_dirty_[static_cast<std::size_t>(v)];
    if (d == 0) touched_nodes_.push_back(v);
    d = std::max(d, mark);
  };
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const std::uint64_t rev = net.conversion_revision(v);
    if (rev != rec_conv_rev_[static_cast<std::size_t>(v)]) {
      rec_conv_rev_[static_cast<std::size_t>(v)] = rev;
      mark_whole(v, kConvMoved);
    } else if (all) {
      mark_whole(v, kWhole);
    }
  }
  // Protect mode: only s and t keep their pair arcs, so a query move
  // re-weights the old and the new ends.
  if (opt.protect_nodes && (s != rec_s_ || t != rec_t_)) {
    for (const NodeId v : {rec_s_, rec_t_, s, t}) {
      if (v != graph::kInvalidNode) mark_whole(v, kWhole);
    }
  }
  patch_pairs(net, s, t, opt);
  for (const NodeId v : touched_nodes_) finish_node(net, v, s, t, opt);

  // Query wiring: clear the old query's s'/t'' arcs, then wire the new one.
  if (rec_s_ != graph::kInvalidNode) {
    for (const EdgeId e : pg.out_edges(rec_s_)) {
      aux_.w[static_cast<std::size_t>(uni_sprime_arc_base_ + e)] = graph::kInf;
    }
    for (const EdgeId e : pg.in_edges(rec_t_)) {
      aux_.w[static_cast<std::size_t>(uni_tsec_arc_base_ + e)] = graph::kInf;
    }
  }
  for (const EdgeId e : pg.out_edges(s)) {
    aux_.w[static_cast<std::size_t>(uni_sprime_arc_base_ + e)] =
        uni_usable_[static_cast<std::size_t>(e)] != 0 ? 0.0 : graph::kInf;
  }
  for (const EdgeId e : pg.in_edges(t)) {
    aux_.w[static_cast<std::size_t>(uni_tsec_arc_base_ + e)] =
        uni_usable_[static_cast<std::size_t>(e)] != 0 ? 0.0 : graph::kInf;
  }
  stats_.conv_hits += pair_base_[static_cast<std::size_t>(net.num_nodes())] -
                      (stats_.conv_misses - misses_before);

  for (const EdgeId e : dirty_links_) {
    link_dirty_[static_cast<std::size_t>(e)] = 0;
  }
  dirty_links_.clear();
  for (const NodeId v : touched_nodes_) {
    node_dirty_[static_cast<std::size_t>(v)] = 0;
  }
  touched_nodes_.clear();
  rec_valid_ = true;
  rec_weighting_ = opt.weighting;
  rec_load_base_ = opt.load_base;
  rec_grc_mean_ = opt.grc_mean_over_available;
  rec_s_ = s;
  rec_t_ = t;
}

AuxGraph build_aux_graph(const net::WdmNetwork& net, net::NodeId s,
                         net::NodeId t, const AuxGraphOptions& opt) {
  check_query(net, s, t, opt);
  const auto& pg = net.graph();
  AuxGraph aux;

  // Edge-nodes: out_node[e] = u_out^e, in_node[e] = v_in^e.
  std::vector<NodeId> out_node(static_cast<std::size_t>(pg.num_edges()),
                               graph::kInvalidNode);
  std::vector<NodeId> in_node(static_cast<std::size_t>(pg.num_edges()),
                              graph::kInvalidNode);
  auto new_node = [&](EdgeId e, bool is_in) {
    aux.phys_edge_of_node.push_back(e);
    aux.is_in_node.push_back(is_in ? 1 : 0);
    return static_cast<NodeId>(aux.is_in_node.size() - 1);
  };
  for (EdgeId e = 0; e < pg.num_edges(); ++e) {
    if (!usable(net, e, opt)) continue;
    out_node[static_cast<std::size_t>(e)] = new_node(e, false);
    in_node[static_cast<std::size_t>(e)] = new_node(e, true);
    aux.num_edge_nodes += 2;
  }
  aux.s_prime = new_node(graph::kInvalidEdge, false);
  aux.t_second = new_node(graph::kInvalidEdge, true);

  std::vector<NodeId> tails;
  std::vector<NodeId> heads;
  auto add_arc = [&](NodeId a, NodeId b, double weight, EdgeId phys) {
    tails.push_back(a);
    heads.push_back(b);
    aux.w.push_back(weight);
    aux.phys_edge_of_arc.push_back(phys);
  };
  auto transit_weight = [&](double mean) {
    return opt.weighting == AuxWeighting::kLoadExponential ? 0.0 : mean;
  };

  // Link arcs u_out^e -> v_in^e. Available costs are summed in ascending-λ
  // order, the order the builder's cache uses, so weights agree bitwise.
  for (EdgeId e = 0; e < pg.num_edges(); ++e) {
    if (out_node[static_cast<std::size_t>(e)] == graph::kInvalidNode) continue;
    double sum = 0.0;
    const net::WavelengthSet avail = net.available(e);
    avail.for_each([&](net::Wavelength l) { sum += net.weight(e, l); });
    add_arc(out_node[static_cast<std::size_t>(e)],
            in_node[static_cast<std::size_t>(e)],
            link_weight(net, e, opt, sum, avail.count()), e);
    ++aux.num_link_arcs;
  }

  // Transit arcs v_in^e -> v_out^e' when some available conversion exists.
  for (NodeId v = 0; v < pg.num_nodes(); ++v) {
    const auto in_edges = pg.in_edges(v);
    const auto out_edges = pg.out_edges(v);
    if (opt.protect_nodes && v != s && v != t) {
      // Node gadget: every transit at v funnels through one hub arc of
      // capacity 1 (for Suurballe's purposes: one edge), making the two
      // auxiliary paths internally node-disjoint in G.
      double sum = 0.0;
      int pairs = 0;
      for (const EdgeId e : in_edges) {
        if (in_node[static_cast<std::size_t>(e)] == graph::kInvalidNode) {
          continue;
        }
        for (const EdgeId e2 : out_edges) {
          if (out_node[static_cast<std::size_t>(e2)] == graph::kInvalidNode) {
            continue;
          }
          double mean = 0.0;
          if (mean_conversion_cost(net, v, e, e2, &mean)) {
            sum += mean;
            ++pairs;
          }
        }
      }
      if (pairs == 0) continue;  // v cannot be transited at all
      const NodeId hub_in = new_node(graph::kInvalidEdge, true);
      const NodeId hub_out = new_node(graph::kInvalidEdge, false);
      add_arc(hub_in, hub_out, transit_weight(sum / pairs),
              graph::kInvalidEdge);
      ++aux.num_transit_arcs;
      for (const EdgeId e : in_edges) {
        const NodeId a = in_node[static_cast<std::size_t>(e)];
        if (a != graph::kInvalidNode) {
          add_arc(a, hub_in, 0.0, graph::kInvalidEdge);
        }
      }
      for (const EdgeId e2 : out_edges) {
        const NodeId b = out_node[static_cast<std::size_t>(e2)];
        if (b != graph::kInvalidNode) {
          add_arc(hub_out, b, 0.0, graph::kInvalidEdge);
        }
      }
      continue;
    }
    for (const EdgeId e : in_edges) {
      const NodeId a = in_node[static_cast<std::size_t>(e)];
      if (a == graph::kInvalidNode) continue;
      for (const EdgeId e2 : out_edges) {
        const NodeId b = out_node[static_cast<std::size_t>(e2)];
        if (b == graph::kInvalidNode) continue;
        double mean = 0.0;
        if (!mean_conversion_cost(net, v, e, e2, &mean)) continue;
        add_arc(a, b, transit_weight(mean), graph::kInvalidEdge);
        ++aux.num_transit_arcs;
      }
    }
  }

  // Hub arcs.
  for (EdgeId e : pg.out_edges(s)) {
    const NodeId b = out_node[static_cast<std::size_t>(e)];
    if (b != graph::kInvalidNode) {
      add_arc(aux.s_prime, b, 0.0, graph::kInvalidEdge);
    }
  }
  for (EdgeId e : pg.in_edges(t)) {
    const NodeId a = in_node[static_cast<std::size_t>(e)];
    if (a != graph::kInvalidNode) {
      add_arc(a, aux.t_second, 0.0, graph::kInvalidEdge);
    }
  }
  aux.g = graph::Digraph(static_cast<NodeId>(aux.is_in_node.size()),
                         std::move(tails), std::move(heads));
  return aux;
}

std::vector<EdgeId> AuxGraph::project(const graph::Path& p) const {
  std::vector<EdgeId> links;
  for (EdgeId arc : p.edges) {
    const EdgeId phys = phys_edge_of_arc[static_cast<std::size_t>(arc)];
    if (phys != graph::kInvalidEdge) links.push_back(phys);
  }
  return links;
}

void AuxGraph::project_into(const graph::Path& p,
                            std::vector<EdgeId>* out) const {
  out->clear();
  for (EdgeId arc : p.edges) {
    const EdgeId phys = phys_edge_of_arc[static_cast<std::size_t>(arc)];
    if (phys != graph::kInvalidEdge) out->push_back(phys);
  }
}

void AuxGraph::induced_link_mask_into(const graph::Path& p,
                                      graph::EdgeId num_links,
                                      std::vector<std::uint8_t>* out) const {
  out->assign(static_cast<std::size_t>(num_links), 0);
  for (EdgeId arc : p.edges) {
    const EdgeId phys = phys_edge_of_arc[static_cast<std::size_t>(arc)];
    if (phys != graph::kInvalidEdge) (*out)[static_cast<std::size_t>(phys)] = 1;
  }
}

std::span<const double> ArenaLowerBound::compute(
    const net::WdmNetwork& net, const AuxGraph& arena, net::NodeId s,
    net::NodeId t, double below) {
  const auto& pg = net.graph();
  const EdgeId m = pg.num_edges();
  const NodeId n = pg.num_nodes();
  const NodeId arena_nodes = arena.g.num_nodes();
  const bool protect = arena_nodes == 2 * m + 2 + 2 * n;
  WDM_CHECK_MSG(arena.s_prime == 2 * m && arena.t_second == 2 * m + 1 &&
                    (protect || arena_nodes == 2 * m + 2),
                "ArenaLowerBound needs AuxGraphBuilder's arena layout");
  WDM_CHECK(arena.min_transit.size() == static_cast<std::size_t>(n));
  const auto w = [&](EdgeId arc) {
    return arena.w[static_cast<std::size_t>(arc)];
  };
  const std::span<const double> residual = net.residual_loads();
  const auto closed = [&](std::size_t e) { return !(residual[e] < below); };
  // τ, with τ(t) = 0: a path may end at t.
  const auto tau = [&](std::size_t v) {
    return v == static_cast<std::size_t>(t) ? 0.0 : arena.min_transit[v];
  };

  // Reverse Dijkstra from t: entering x over link e costs w(e) + τ(x).
  hp.assign(static_cast<std::size_t>(n), graph::kInf);
  heap.reset(static_cast<std::size_t>(n));
  hp[static_cast<std::size_t>(t)] = 0.0;
  heap.push(static_cast<std::size_t>(t), 0.0);
  while (!heap.empty()) {
    const auto [x, dx] = heap.pop_min();
    const double enter_x = dx + tau(x);
    for (const EdgeId e : pg.in_edges(static_cast<NodeId>(x))) {
      if (closed(static_cast<std::size_t>(e))) continue;
      const auto y = static_cast<std::size_t>(pg.tail(e));
      const double dy = enter_x + w(e);
      if (dy < hp[y]) {
        hp[y] = dy;
        heap.push_or_decrease(y, dy);
      }
    }
  }

  h.resize(static_cast<std::size_t>(arena_nodes));
  for (EdgeId e = 0; e < m; ++e) {
    const auto v = static_cast<std::size_t>(pg.head(e));
    const auto i = static_cast<std::size_t>(e);
    if (closed(i)) {
      h[2 * i + 1] = graph::kInf;  // closed: neither round enters it
      h[2 * i] = graph::kInf;
      continue;
    }
    h[2 * i + 1] = tau(v) + hp[v];  // v_in^e
    h[2 * i] = w(e) + h[2 * i + 1];         // u_out^e
  }
  h[static_cast<std::size_t>(arena.s_prime)] = hp[static_cast<std::size_t>(s)];
  h[static_cast<std::size_t>(arena.t_second)] = 0.0;
  if (protect) {
    for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) {
      const std::size_t hub_in = static_cast<std::size_t>(2 * m + 2) + 2 * v;
      h[hub_in] = tau(v) + hp[v];
      h[hub_in + 1] = hp[v];  // hub_out(v)
    }
  }
  return h;
}

}  // namespace wdm::rwa
