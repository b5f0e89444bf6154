#include "graph/dijkstra.hpp"

namespace wdm::graph {

ShortestPathTree dijkstra(const Digraph& g, std::span<const double> w,
                          NodeId src, const DijkstraOptions& opt) {
  ShortestPathTree tree;
  QuadHeap heap(static_cast<std::size_t>(g.num_nodes()));
  dijkstra_into(g, w, src, opt, heap, &tree);
  return tree;
}

Path shortest_path(const Digraph& g, std::span<const double> w, NodeId s,
                   NodeId t, std::span<const std::uint8_t> edge_enabled) {
  DijkstraOptions opt;
  opt.target = t;
  opt.edge_enabled = edge_enabled;
  const ShortestPathTree tree = dijkstra(g, w, s, opt);
  return extract_path(g, tree, t);
}

}  // namespace wdm::graph
