#include "graph/digraph.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "support/check.hpp"

namespace wdm::graph {

namespace {

/// Counting sort of edge ids by endpoint: `ids` gets one block per node, in
/// ascending edge-id order, and `start` the n+1 block offsets.
void group_by(NodeId n, const std::vector<NodeId>& endpoint,
              std::vector<EdgeId>* ids, std::vector<EdgeId>* start) {
  start->assign(static_cast<std::size_t>(n) + 1, 0);
  for (const NodeId v : endpoint) ++(*start)[static_cast<std::size_t>(v) + 1];
  std::partial_sum(start->begin(), start->end(), start->begin());
  ids->resize(endpoint.size());
  std::vector<EdgeId> next(start->begin(), start->end() - 1);
  for (std::size_t e = 0; e < endpoint.size(); ++e) {
    (*ids)[static_cast<std::size_t>(
        next[static_cast<std::size_t>(endpoint[e])]++)] =
        static_cast<EdgeId>(e);
  }
}

/// Appends `e` (the largest id so far) to the end of v's block, keeping the
/// block ascending, and shifts every later block by one.
void append_to_block(NodeId v, EdgeId e, std::vector<EdgeId>* ids,
                     std::vector<EdgeId>* start) {
  const auto i = static_cast<std::size_t>(v) + 1;
  ids->insert(ids->begin() + (*start)[i], e);
  for (std::size_t j = i; j < start->size(); ++j) ++(*start)[j];
}

}  // namespace

Digraph::Digraph(NodeId n, std::vector<NodeId> tails,
                 std::vector<NodeId> heads)
    : tail_(std::move(tails)), head_(std::move(heads)) {
  WDM_CHECK(n >= 0);
  WDM_CHECK_MSG(tail_.size() == head_.size(),
                "Digraph tails and heads must have equal length");
  const auto ok = [n](NodeId v) { return v >= 0 && v < n; };
  WDM_CHECK_MSG(std::all_of(tail_.begin(), tail_.end(), ok) &&
                    std::all_of(head_.begin(), head_.end(), ok),
                "Digraph edge endpoints must be existing nodes");
  group_by(n, tail_, &out_, &out_start_);
  group_by(n, head_, &in_, &in_start_);
}

NodeId Digraph::add_node() {
  out_start_.push_back(out_start_.back());
  in_start_.push_back(in_start_.back());
  return num_nodes() - 1;
}

EdgeId Digraph::add_edge(NodeId tail, NodeId head) {
  WDM_CHECK_MSG(valid_node(tail) && valid_node(head),
                "add_edge endpoints must be existing nodes");
  const auto e = static_cast<EdgeId>(tail_.size());
  tail_.push_back(tail);
  head_.push_back(head);
  append_to_block(tail, e, &out_, &out_start_);
  append_to_block(head, e, &in_, &in_start_);
  return e;
}

EdgeId Digraph::find_edge(NodeId tail, NodeId head) const {
  WDM_CHECK(valid_node(tail) && valid_node(head));
  for (EdgeId e : out_edges(tail)) {
    if (this->head(e) == head) return e;
  }
  return kInvalidEdge;
}

}  // namespace wdm::graph
