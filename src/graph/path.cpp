#include "graph/path.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace wdm::graph {

std::vector<NodeId> Path::nodes(const Digraph& g) const {
  WDM_CHECK(found);
  std::vector<NodeId> ns;
  ns.reserve(edges.size() + 1);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i == 0) ns.push_back(g.tail(edges[i]));
    ns.push_back(g.head(edges[i]));
  }
  return ns;
}

bool Path::contiguous_in(const Digraph& g) const {
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    if (g.head(edges[i]) != g.tail(edges[i + 1])) return false;
  }
  return true;
}

Path extract_path(const Digraph& g, const ShortestPathTree& tree,
                  NodeId target) {
  WDM_CHECK(g.valid_node(target));
  Path p;
  if (!tree.reached(target)) return p;
  p.found = true;
  p.cost = tree.distance(target);
  NodeId v = target;
  while (true) {
    const EdgeId e = tree.pred_edge[static_cast<std::size_t>(v)];
    if (e == kInvalidEdge) break;
    p.edges.push_back(e);
    v = g.tail(e);
    WDM_CHECK_MSG(p.edges.size() <= static_cast<std::size_t>(g.num_edges()),
                  "predecessor cycle while extracting path");
  }
  std::reverse(p.edges.begin(), p.edges.end());
  return p;
}

double path_weight(const Path& p, std::span<const double> w) {
  double s = 0.0;
  for (EdgeId e : p.edges) s += w[static_cast<std::size_t>(e)];
  return s;
}

}  // namespace wdm::graph
