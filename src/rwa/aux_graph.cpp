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
  pair_base_.assign(static_cast<std::size_t>(pg.num_nodes()) + 1, 0);
  std::size_t total = 0;
  for (NodeId v = 0; v < pg.num_nodes(); ++v) {
    pair_base_[static_cast<std::size_t>(v)] = total;
    total += static_cast<std::size_t>(pg.in_degree(v)) *
             static_cast<std::size_t>(pg.out_degree(v));
  }
  pair_base_[static_cast<std::size_t>(pg.num_nodes())] = total;
  pair_in_rev_.assign(total, kNoRevision);
  pair_out_rev_.assign(total, kNoRevision);
  pair_conv_rev_.assign(total, kNoRevision);
  pair_has_.assign(total, 0);
  pair_mean_.assign(total, 0.0);

  const auto m = static_cast<std::size_t>(net.num_links());
  link_rev_seen_.assign(m, kNoRevision);
  link_sum_.assign(m, 0.0);
  link_cnt_.assign(m, 0);
}

bool AuxGraphBuilder::transit_mean(const net::WdmNetwork& net, net::NodeId v,
                                   std::size_t idx, graph::EdgeId in_link,
                                   graph::EdgeId out_link, double* mean_out) {
  const std::uint64_t in_rev = net.link_revision(in_link);
  const std::uint64_t out_rev = net.link_revision(out_link);
  const std::uint64_t conv_rev = net.conversion_revision(v);
  if (pair_in_rev_[idx] == in_rev && pair_out_rev_[idx] == out_rev &&
      pair_conv_rev_[idx] == conv_rev) {
    ++stats_.conv_hits;
    *mean_out = pair_mean_[idx];
    return pair_has_[idx] != 0;
  }
  ++stats_.conv_misses;
  double mean = 0.0;
  const bool has = mean_conversion_cost(net, v, in_link, out_link, &mean);
  pair_in_rev_[idx] = in_rev;
  pair_out_rev_[idx] = out_rev;
  pair_conv_rev_[idx] = conv_rev;
  pair_has_[idx] = has ? 1 : 0;
  pair_mean_[idx] = mean;
  *mean_out = mean;
  return has;
}

void AuxGraphBuilder::link_costs(const net::WdmNetwork& net, graph::EdgeId e,
                                 double* sum, int* count) {
  const std::uint64_t rev = net.link_revision(e);
  const auto i = static_cast<std::size_t>(e);
  if (link_rev_seen_[i] == rev) {
    ++stats_.link_hits;
  } else {
    ++stats_.link_misses;
    // Accumulate in ascending-λ order, exactly like mean_available_weight
    // and build_aux_graph, so cached weights stay bit-identical.
    double s = 0.0;
    const net::WavelengthSet avail = net.available(e);
    avail.for_each([&](net::Wavelength l) { s += net.weight(e, l); });
    link_sum_[i] = s;
    link_cnt_[i] = avail.count();
    link_rev_seen_[i] = rev;
  }
  *sum = link_sum_[i];
  *count = link_cnt_[i];
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
    tel_timer.total(WDM_TEL_HIST("rwa.aux_builder.build_ns"),
                    WDM_TEL_NAME("rwa.aux_builder.build"));
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
  uni_usable_.assign(static_cast<std::size_t>(m), 0);
  uni_protect_ = protect;
  uni_ready_ = true;
}

void AuxGraphBuilder::patch_link(const net::WdmNetwork& net, graph::EdgeId e,
                                 net::NodeId s, net::NodeId t,
                                 const AuxGraphOptions& opt) {
  const auto& pg = net.graph();
  const auto i = static_cast<std::size_t>(e);
  const bool ok = usable(net, e, opt);
  double weight = graph::kInf;
  if (ok) {
    double sum = 0.0;
    int count = 0;
    if (opt.weighting != AuxWeighting::kLoadExponential) {
      link_costs(net, e, &sum, &count);
    }
    weight = link_weight(net, e, opt, sum, count);
  }
  aux_.w[i] = weight;
  aux_.w[static_cast<std::size_t>(uni_sprime_arc_base_ + e)] =
      (ok && pg.tail(e) == s) ? 0.0 : graph::kInf;
  aux_.w[static_cast<std::size_t>(uni_tsec_arc_base_ + e)] =
      (ok && pg.head(e) == t) ? 0.0 : graph::kInf;
  uni_usable_[i] = ok ? 1 : 0;
  if (ok) {
    ++aux_.num_link_arcs;
    aux_.num_edge_nodes += 2;
  }
}

void AuxGraphBuilder::patch_node(const net::WdmNetwork& net, net::NodeId v,
                                 net::NodeId s, net::NodeId t,
                                 const AuxGraphOptions& opt) {
  const auto& pg = net.graph();
  const EdgeId m = pg.num_edges();
  const auto in_edges = pg.in_edges(v);
  const auto out_edges = pg.out_edges(v);
  const std::size_t base = pair_base_[static_cast<std::size_t>(v)];
  const std::size_t out_deg = out_edges.size();
  const bool protect = opt.protect_nodes;
  const bool pair_enabled = !protect || v == s || v == t;

  int contrib = 0;
  double hub_sum = 0.0;
  int hub_pairs = 0;
  for (std::size_t i = 0; i < in_edges.size(); ++i) {
    const EdgeId e = in_edges[i];
    const bool in_ok = uni_usable_[static_cast<std::size_t>(e)] != 0;
    for (std::size_t j = 0; j < out_deg; ++j) {
      const EdgeId e2 = out_edges[j];
      const std::size_t idx = base + i * out_deg + j;
      const auto arc = static_cast<std::size_t>(m) + idx;
      double weight = graph::kInf;
      if (in_ok && uni_usable_[static_cast<std::size_t>(e2)] != 0) {
        double mean = 0.0;
        if (transit_mean(net, v, idx, e, e2, &mean)) {
          if (pair_enabled) {
            weight = (opt.weighting == AuxWeighting::kLoadExponential)
                         ? 0.0
                         : mean;
            ++contrib;
          } else {
            // Aggregated into the node gadget's hub arc, (i, j) order —
            // bit-identical to build_aux_graph's accumulation.
            hub_sum += mean;
            ++hub_pairs;
          }
        }
      }
      aux_.w[arc] = weight;
    }
  }

  if (protect) {
    const bool hub_on = !pair_enabled && hub_pairs > 0;
    double hub_weight = graph::kInf;
    if (hub_on) {
      hub_weight = (opt.weighting == AuxWeighting::kLoadExponential)
                       ? 0.0
                       : hub_sum / hub_pairs;
      ++contrib;
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
  aux_.num_transit_arcs += contrib;
}

void AuxGraphBuilder::patch_weights(const net::WdmNetwork& net, net::NodeId s,
                                    net::NodeId t, const AuxGraphOptions& opt) {
  aux_.num_edge_nodes = 0;
  aux_.num_link_arcs = 0;
  aux_.num_transit_arcs = 0;
  for (EdgeId e = 0; e < net.num_links(); ++e) patch_link(net, e, s, t, opt);
  for (NodeId v = 0; v < net.num_nodes(); ++v) patch_node(net, v, s, t, opt);
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

void AuxGraph::threshold_mask_into(std::span<const double> link_load,
                                   double theta,
                                   std::vector<std::uint8_t>* out) const {
  out->assign(static_cast<std::size_t>(g.num_edges()), 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const EdgeId e = phys_edge_of_node[static_cast<std::size_t>(v)];
    if (e == graph::kInvalidEdge ||
        link_load[static_cast<std::size_t>(e)] < theta) {
      continue;
    }
    for (EdgeId arc : g.out_edges(v)) (*out)[static_cast<std::size_t>(arc)] = 0;
    for (EdgeId arc : g.in_edges(v)) (*out)[static_cast<std::size_t>(arc)] = 0;
  }
}

std::span<const double> ArenaLowerBound::compute(
    const net::WdmNetwork& net, const AuxGraph& arena, net::NodeId s,
    net::NodeId t, std::span<const std::uint8_t> link_mask) {
  const auto& pg = net.graph();
  const EdgeId m = pg.num_edges();
  const NodeId n = pg.num_nodes();
  const NodeId arena_nodes = arena.g.num_nodes();
  const bool protect = arena_nodes == 2 * m + 2 + 2 * n;
  WDM_CHECK_MSG(arena.s_prime == 2 * m && arena.t_second == 2 * m + 1 &&
                    (protect || arena_nodes == 2 * m + 2),
                "ArenaLowerBound needs AuxGraphBuilder's arena layout");
  WDM_CHECK(link_mask.empty() ||
            link_mask.size() == static_cast<std::size_t>(m));
  const auto w = [&](EdgeId arc) {
    return arena.w[static_cast<std::size_t>(arc)];
  };

  // τ(v): the pair transit arcs leave v_in^e (e into v) for u_out nodes,
  // ids below 2m; the hub arc is the one arc out of hub_in(v).
  min_transit.assign(static_cast<std::size_t>(n), graph::kInf);
  for (EdgeId e = 0; e < m; ++e) {
    double& tau = min_transit[static_cast<std::size_t>(pg.head(e))];
    for (const EdgeId arc : arena.g.out_edges(2 * e + 1)) {
      if (arena.g.head(arc) < 2 * m) tau = std::min(tau, w(arc));
    }
  }
  if (protect) {
    for (NodeId v = 0; v < n; ++v) {
      double& tau = min_transit[static_cast<std::size_t>(v)];
      tau = std::min(tau, w(arena.g.out_edges(2 * m + 2 + 2 * v)[0]));
    }
  }
  min_transit[static_cast<std::size_t>(t)] = 0.0;

  // Reverse Dijkstra from t: entering x over link e costs w(e) + τ(x).
  hp.assign(static_cast<std::size_t>(n), graph::kInf);
  heap.reset(static_cast<std::size_t>(n));
  hp[static_cast<std::size_t>(t)] = 0.0;
  heap.push(static_cast<std::size_t>(t), 0.0);
  while (!heap.empty()) {
    const auto [x, dx] = heap.pop_min();
    const double enter_x = dx + min_transit[x];
    for (const EdgeId e : pg.in_edges(static_cast<NodeId>(x))) {
      if (!link_mask.empty() && link_mask[static_cast<std::size_t>(e)] == 0) {
        continue;
      }
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
    h[2 * i + 1] = min_transit[v] + hp[v];  // v_in^e
    h[2 * i] = w(e) + h[2 * i + 1];         // u_out^e
  }
  h[static_cast<std::size_t>(arena.s_prime)] = hp[static_cast<std::size_t>(s)];
  h[static_cast<std::size_t>(arena.t_second)] = 0.0;
  if (protect) {
    for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) {
      const std::size_t hub_in = static_cast<std::size_t>(2 * m + 2) + 2 * v;
      h[hub_in] = min_transit[v] + hp[v];
      h[hub_in + 1] = hp[v];  // hub_out(v)
    }
  }
  return h;
}

}  // namespace wdm::rwa
