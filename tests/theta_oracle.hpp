// Test-only oracle for the MinCog ϑ search (§4.1): the ladder as it ran
// before each rung got a physical pre-check. Every probe masks the ϑ_max
// arena to ϑ, reading each load from net.link_load(), and asks the arena
// itself for two edge-disjoint s' -> t'' paths with
// graph::has_edge_disjoint_pair; ϑ_min and ϑ_max come from the network's own
// accessors. Deliberately the slow, direct form: the production search must
// agree with it rung for rung.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/mincog.hpp"
#include "wdm/network.hpp"

namespace wdm::test {

/// The arena mask at ϑ, cut node by node: every arc touching an edge-node
/// of a link whose load is not below ϑ is 0. On an arena built at ϑ_max
/// the enabled finite arcs are exactly the finite arcs of a build at ϑ,
/// with the same ids and weights. The production confirm takes no arc mask
/// (rwa::ArenaLowerBound cuts the same edge-nodes with h = +inf); this is
/// its reference.
inline void oracle_threshold_mask(const rwa::AuxGraph& arena,
                                  const net::WdmNetwork& net, double theta,
                                  std::vector<std::uint8_t>* out) {
  out->assign(static_cast<std::size_t>(arena.g.num_edges()), 1);
  for (graph::NodeId v = 0; v < arena.g.num_nodes(); ++v) {
    const graph::EdgeId e =
        arena.phys_edge_of_node[static_cast<std::size_t>(v)];
    if (e == graph::kInvalidEdge || net.link_load(e) < theta) continue;
    for (graph::EdgeId a : arena.g.out_edges(v)) {
      (*out)[static_cast<std::size_t>(a)] = 0;
    }
    for (graph::EdgeId a : arena.g.in_edges(v)) {
      (*out)[static_cast<std::size_t>(a)] = 0;
    }
  }
}

/// One arena-BFS probe: mask the arena to ϑ, then pair existence on it.
class OracleProbe {
 public:
  OracleProbe(const net::WdmNetwork& net, const rwa::AuxGraph& arena)
      : net_(net), arena_(arena) {}

  bool operator()(double theta) {
    oracle_threshold_mask(arena_, net_, theta, &mask);
    return graph::has_edge_disjoint_pair(arena_.g, arena_.w, arena_.s_prime,
                                         arena_.t_second, mask, &ws_);
  }

  std::vector<std::uint8_t> mask;

 private:
  const net::WdmNetwork& net_;
  const rwa::AuxGraph& arena_;
  graph::SuurballeWorkspace ws_;
};

struct OracleSearch {
  rwa::MinCogResult result;
  /// The accepted ϑ's arena mask and Suurballe's pair under it, goal-directed
  /// by rwa::ArenaLowerBound over the links open at that ϑ as the production
  /// confirm is (found == false when the search is exhausted). The
  /// production confirm takes no arc mask, so the pair checks its cut.
  std::vector<std::uint8_t> mask;
  graph::DisjointPair pair;
};

/// The three ladders on `arena` (G_c or G_rc built at net.theta_max() for
/// the query s -> t).
inline OracleSearch oracle_mincog_search(const net::WdmNetwork& net,
                                         net::NodeId s, net::NodeId t,
                                         const rwa::AuxGraph& arena,
                                         rwa::ThetaSearch search) {
  OracleProbe probe(net, arena);
  rwa::MinCogResult r;
  const double theta_min = net.theta_min();
  const double theta_max = net.theta_max();
  const auto accept = [&r](double theta) {
    r.found = true;
    r.theta = theta;
  };
  switch (search) {
    case rwa::ThetaSearch::kLinearScan: {
      std::vector<double> grid{theta_min, theta_max};
      for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
        grid.push_back(std::nextafter(net.link_load(e),
                                      std::numeric_limits<double>::infinity()));
      }
      std::sort(grid.begin(), grid.end());
      grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
      for (const double theta : grid) {
        ++r.iterations;
        if (probe(theta)) {
          accept(theta);
          break;
        }
        r.last_infeasible_theta = theta;
      }
      break;
    }
    case rwa::ThetaSearch::kBisection: {
      double lo = theta_min;
      double hi = theta_max;
      ++r.iterations;
      if (probe(lo)) {
        accept(lo);
        break;
      }
      r.last_infeasible_theta = lo;
      ++r.iterations;
      if (!probe(hi)) {
        r.last_infeasible_theta = hi;
        break;
      }
      while (hi - lo > 1e-3) {
        const double mid = 0.5 * (lo + hi);
        ++r.iterations;
        if (probe(mid)) {
          hi = mid;
        } else {
          lo = mid;
          r.last_infeasible_theta = mid;
        }
      }
      accept(hi);
      probe(hi);  // leave the accepted ϑ's mask
      break;
    }
    case rwa::ThetaSearch::kDoubling: {
      const double delta = theta_max - theta_min;
      double theta = theta_min;
      int j = (delta > 0.0)
                  ? std::max(0, static_cast<int>(std::ceil(-std::log2(delta))))
                  : 0;
      while (true) {
        ++r.iterations;
        if (probe(theta)) {
          accept(theta);
          break;
        }
        r.last_infeasible_theta = theta;
        if (theta >= theta_max || delta <= 0.0) break;
        theta = std::min(theta + delta / std::pow(2.0, j), theta_max);
        --j;
      }
      break;
    }
  }
  OracleSearch out;
  out.result = r;
  if (r.found) {
    out.mask = probe.mask;
    rwa::ArenaLowerBound bound;
    graph::SuurballeWorkspace ws;
    graph::suurballe_into(arena.g, arena.w, arena.s_prime, arena.t_second,
                          out.mask, &ws, &out.pair,
                          bound.compute(net, arena, s, t, r.theta));
  }
  return out;
}

/// exact_min_threshold as the arena-BFS probes answer it: the smallest link
/// load L whose probe at nextafter(L, +inf) finds a pair on G_c(ϑ_max).
inline bool oracle_exact_min_threshold(const net::WdmNetwork& net,
                                       net::NodeId s, net::NodeId t,
                                       double* theta_out) {
  std::vector<double> loads;
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    loads.push_back(net.link_load(e));
  }
  std::sort(loads.begin(), loads.end());
  loads.erase(std::unique(loads.begin(), loads.end()), loads.end());
  rwa::AuxGraphOptions opt;
  opt.weighting = rwa::AuxWeighting::kLoadExponential;
  opt.theta = net.theta_max();
  rwa::AuxGraphBuilder builder;
  const rwa::AuxGraph& arena = builder.build(net, s, t, opt);
  OracleProbe probe(net, arena);
  for (const double load : loads) {
    if (probe(std::nextafter(load, std::numeric_limits<double>::infinity()))) {
      *theta_out = load;
      return true;
    }
  }
  return false;
}

}  // namespace wdm::test
