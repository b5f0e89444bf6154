// Shared helpers for the test suites: random instance generators and
// brute-force reference oracles (deliberately simple and slow).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/path.hpp"
#include "support/rng.hpp"
#include "topology/network_builder.hpp"
#include "wdm/network.hpp"
#include "wdm/semilightpath.hpp"

namespace wdm::test {

/// Random digraph with n nodes and ~m directed edges (no self loops),
/// uniform random weights in [lo, hi].
struct RandomGraph {
  graph::Digraph g;
  std::vector<double> w;
};

/// With `allow_parallel` (the default, preserving historical behavior) the
/// generator samples endpoint pairs independently and can silently emit
/// parallel duplicate edges — which inflates apparent edge-connectivity and
/// skews disjointness properties (a "disjoint" pair may ride two copies of
/// the same random link). Pass `allow_parallel = false` for tests whose
/// property depends on the simple-digraph structure; then each (u, v) pair
/// appears at most once and m is clamped to the n*(n-1) distinct pairs.
inline RandomGraph random_digraph(int n, int m, support::Rng& rng,
                                  double lo = 1.0, double hi = 10.0,
                                  bool allow_parallel = true) {
  RandomGraph rg;
  rg.g = graph::Digraph(n);
  if (!allow_parallel) m = std::min(m, n * (n - 1));
  for (int i = 0; i < m; ++i) {
    graph::NodeId u, v;
    do {
      u = static_cast<graph::NodeId>(rng.uniform_int(0, n - 1));
      v = u;
      while (v == u) v = static_cast<graph::NodeId>(rng.uniform_int(0, n - 1));
    } while (!allow_parallel && rg.g.find_edge(u, v) != graph::kInvalidEdge);
    rg.g.add_edge(u, v);
    rg.w.push_back(rng.uniform(lo, hi));
  }
  return rg;
}

/// max over nodes of max(in_degree, out_degree) — the paper's `d`.
inline int max_degree(const graph::Digraph& g) {
  int d = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    d = std::max({d, g.out_degree(v), g.in_degree(v)});
  }
  return d;
}

/// Nodes reachable from `src` over out-edges, or over in-edges when
/// `backward`; `enabled` optionally masks edges (empty span = all enabled;
/// otherwise enabled[e] != 0 keeps e).
inline std::vector<std::uint8_t> reachable_from(
    const graph::Digraph& g, graph::NodeId src,
    std::span<const std::uint8_t> enabled = {}, bool backward = false) {
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(g.num_nodes()), 0);
  std::vector<graph::NodeId> stack{src};
  seen[static_cast<std::size_t>(src)] = 1;
  while (!stack.empty()) {
    const graph::NodeId v = stack.back();
    stack.pop_back();
    for (graph::EdgeId e : backward ? g.in_edges(v) : g.out_edges(v)) {
      if (!enabled.empty() && !enabled[static_cast<std::size_t>(e)]) continue;
      const graph::NodeId w = backward ? g.tail(e) : g.head(e);
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = 1;
        stack.push_back(w);
      }
    }
  }
  return seen;
}

/// True if every node is reachable from node 0 AND node 0 is reachable from
/// every node (a search over out-edges, then one over in-edges).
inline bool strongly_connected(const graph::Digraph& g) {
  if (g.num_nodes() == 0) return true;
  const auto all = [](const std::vector<std::uint8_t>& seen) {
    return std::find(seen.begin(), seen.end(), 0) == seen.end();
  };
  return all(reachable_from(g, 0)) &&
         all(reachable_from(g, 0, {}, /*backward=*/true));
}

/// True when the two paths share no edge id.
inline bool edge_disjoint(const graph::Path& a, const graph::Path& b) {
  std::unordered_set<graph::EdgeId> ea(a.edges.begin(), a.edges.end());
  return std::none_of(b.edges.begin(), b.edges.end(),
                      [&](graph::EdgeId e) { return ea.count(e) > 0; });
}

/// True when the two paths share no intermediate node (endpoints excluded).
inline bool internally_node_disjoint(const graph::Path& a,
                                     const graph::Path& b,
                                     const graph::Digraph& g) {
  if (a.edges.empty() || b.edges.empty()) return true;
  std::unordered_set<graph::NodeId> inner;
  const auto an = a.nodes(g);
  for (std::size_t i = 1; i + 1 < an.size(); ++i) inner.insert(an[i]);
  const auto bn = b.nodes(g);
  for (std::size_t i = 1; i + 1 < bn.size(); ++i) {
    if (inner.count(bn[i])) return false;
  }
  return true;
}

/// All simple physical s->t paths (edge-id sequences), DFS. Exponential —
/// tiny graphs only.
inline void all_simple_paths_rec(const graph::Digraph& g, graph::NodeId v,
                                 graph::NodeId t,
                                 std::vector<graph::EdgeId>& cur,
                                 std::vector<std::uint8_t>& visited,
                                 std::vector<std::vector<graph::EdgeId>>& out) {
  if (v == t) {
    out.push_back(cur);
    return;
  }
  for (graph::EdgeId e : g.out_edges(v)) {
    const graph::NodeId w = g.head(e);
    if (visited[static_cast<std::size_t>(w)]) continue;
    visited[static_cast<std::size_t>(w)] = 1;
    cur.push_back(e);
    all_simple_paths_rec(g, w, t, cur, visited, out);
    cur.pop_back();
    visited[static_cast<std::size_t>(w)] = 0;
  }
}

inline std::vector<std::vector<graph::EdgeId>> all_simple_paths(
    const graph::Digraph& g, graph::NodeId s, graph::NodeId t) {
  std::vector<std::vector<graph::EdgeId>> out;
  std::vector<graph::EdgeId> cur;
  std::vector<std::uint8_t> visited(static_cast<std::size_t>(g.num_nodes()), 0);
  visited[static_cast<std::size_t>(s)] = 1;
  all_simple_paths_rec(g, s, t, cur, visited, out);
  return out;
}

/// Brute-force optimal semilightpath over a physical path: dynamic program
/// over per-hop wavelength choices (exact Eq. (1) minimization on the chain).
inline std::optional<net::Semilightpath> best_assignment_on_path(
    const net::WdmNetwork& net, const std::vector<graph::EdgeId>& links) {
  if (links.empty()) return std::nullopt;
  const int W = net.W();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(W), kInf);
  std::vector<std::vector<net::Wavelength>> choice(
      links.size(), std::vector<net::Wavelength>(static_cast<std::size_t>(W),
                                                 net::kInvalidWavelength));
  net.available(links[0]).for_each([&](net::Wavelength l) {
    dist[static_cast<std::size_t>(l)] = net.weight(links[0], l);
  });
  for (std::size_t i = 1; i < links.size(); ++i) {
    const net::NodeId mid = net.graph().tail(links[i]);
    std::vector<double> next(static_cast<std::size_t>(W), kInf);
    net.available(links[i]).for_each([&](net::Wavelength l2) {
      for (net::Wavelength l1 = 0; l1 < W; ++l1) {
        if (dist[static_cast<std::size_t>(l1)] == kInf) continue;
        if (!net.conversion(mid).allowed(l1, l2)) continue;
        const double c = dist[static_cast<std::size_t>(l1)] +
                         net.conversion(mid).cost(l1, l2) +
                         net.weight(links[i], l2);
        if (c < next[static_cast<std::size_t>(l2)]) {
          next[static_cast<std::size_t>(l2)] = c;
          choice[i][static_cast<std::size_t>(l2)] = l1;
        }
      }
    });
    dist = std::move(next);
  }
  double best = kInf;
  net::Wavelength last = net::kInvalidWavelength;
  for (net::Wavelength l = 0; l < W; ++l) {
    if (dist[static_cast<std::size_t>(l)] < best) {
      best = dist[static_cast<std::size_t>(l)];
      last = l;
    }
  }
  if (last == net::kInvalidWavelength) return std::nullopt;
  // Backtrack.
  std::vector<net::Wavelength> lambdas(links.size());
  net::Wavelength cur = last;
  for (std::size_t i = links.size(); i-- > 0;) {
    lambdas[i] = cur;
    if (i > 0) cur = choice[i][static_cast<std::size_t>(cur)];
  }
  net::Semilightpath slp;
  slp.found = true;
  for (std::size_t i = 0; i < links.size(); ++i) {
    slp.hops.push_back(net::Hop{links[i], lambdas[i]});
  }
  return slp;
}

/// Brute-force optimal semilightpath: best assignment over all simple
/// physical paths.
inline std::optional<net::Semilightpath> brute_force_semilightpath(
    const net::WdmNetwork& net, net::NodeId s, net::NodeId t) {
  std::optional<net::Semilightpath> best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& links : all_simple_paths(net.graph(), s, t)) {
    const auto slp = best_assignment_on_path(net, links);
    if (!slp) continue;
    const double c = slp->cost(net);
    if (c < best_cost) {
      best_cost = c;
      best = slp;
    }
  }
  return best;
}

/// Brute-force optimal edge-disjoint pair: all ordered pairs of
/// edge-disjoint simple paths, best assignments on each.
inline std::optional<std::pair<net::Semilightpath, net::Semilightpath>>
brute_force_disjoint_pair(const net::WdmNetwork& net, net::NodeId s,
                          net::NodeId t, double* cost_out = nullptr) {
  const auto paths = all_simple_paths(net.graph(), s, t);
  double best_cost = std::numeric_limits<double>::infinity();
  std::optional<std::pair<net::Semilightpath, net::Semilightpath>> best;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t j = 0; j < paths.size(); ++j) {
      if (i == j) continue;
      const auto& a = paths[i];
      const auto& b = paths[j];
      const bool disjoint = std::none_of(
          a.begin(), a.end(), [&](graph::EdgeId e) {
            return std::find(b.begin(), b.end(), e) != b.end();
          });
      if (!disjoint) continue;
      const auto pa = best_assignment_on_path(net, a);
      const auto pb = best_assignment_on_path(net, b);
      if (!pa || !pb) continue;
      const double c = pa->cost(net) + pb->cost(net);
      if (c < best_cost) {
        best_cost = c;
        best = std::make_pair(*pa, *pb);
      }
    }
  }
  if (best && cost_out != nullptr) *cost_out = best_cost;
  return best;
}

/// Small random WDM network for property sweeps.
inline net::WdmNetwork random_network(int n, int extra_links, int W,
                                      std::uint64_t seed,
                                      topo::NetworkOptions opt = {}) {
  support::Rng rng(seed);
  opt.num_wavelengths = W;
  const topo::Topology t = topo::random_connected(n, extra_links, rng);
  return topo::build_network(t, opt, rng);
}

}  // namespace wdm::test
