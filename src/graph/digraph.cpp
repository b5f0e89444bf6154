#include "graph/digraph.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace wdm::graph {

Digraph::Digraph(NodeId n) {
  WDM_CHECK(n >= 0);
  out_.resize(static_cast<std::size_t>(n));
  in_.resize(static_cast<std::size_t>(n));
}

void Digraph::finalize_csr() {
  if (csr_) return;
  const auto n = static_cast<std::size_t>(num_nodes());
  const auto m = tail_.size();
  csr_out_start_.assign(n + 1, 0);
  csr_in_start_.assign(n + 1, 0);
  for (std::size_t e = 0; e < m; ++e) {
    ++csr_out_start_[static_cast<std::size_t>(tail_[e]) + 1];
    ++csr_in_start_[static_cast<std::size_t>(head_[e]) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    csr_out_start_[v + 1] += csr_out_start_[v];
    csr_in_start_[v + 1] += csr_in_start_[v];
  }
  csr_out_.resize(m);
  csr_in_.resize(m);
  // Fill in ascending edge-id order: within each node's block that matches
  // the insertion order the per-node adjacency recorded.
  std::vector<std::size_t> next_out(csr_out_start_.begin(),
                                    csr_out_start_.end() - 1);
  std::vector<std::size_t> next_in(csr_in_start_.begin(),
                                   csr_in_start_.end() - 1);
  for (std::size_t e = 0; e < m; ++e) {
    csr_out_[next_out[static_cast<std::size_t>(tail_[e])]++] =
        static_cast<EdgeId>(e);
    csr_in_[next_in[static_cast<std::size_t>(head_[e])]++] =
        static_cast<EdgeId>(e);
  }
  // Free the per-node buffers; num_nodes() reads the CSR offsets now.
  out_ = {};
  in_ = {};
  csr_ = true;
}

NodeId Digraph::add_node() {
  WDM_CHECK_MSG(!csr_, "add_node on a finalized (frozen) Digraph");
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<NodeId>(out_.size() - 1);
}

EdgeId Digraph::add_edge(NodeId tail, NodeId head) {
  WDM_CHECK_MSG(!csr_, "add_edge on a finalized (frozen) Digraph");
  WDM_CHECK_MSG(valid_node(tail) && valid_node(head),
                "add_edge endpoints must be existing nodes");
  const auto e = static_cast<EdgeId>(tail_.size());
  tail_.push_back(tail);
  head_.push_back(head);
  out_[static_cast<std::size_t>(tail)].push_back(e);
  in_[static_cast<std::size_t>(head)].push_back(e);
  return e;
}

int Digraph::max_degree() const {
  int d = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    d = std::max({d, out_degree(v), in_degree(v)});
  }
  return d;
}

EdgeId Digraph::find_edge(NodeId tail, NodeId head) const {
  WDM_CHECK(valid_node(tail) && valid_node(head));
  for (EdgeId e : out_edges(tail)) {
    if (this->head(e) == head) return e;
  }
  return kInvalidEdge;
}

void Digraph::reserve(NodeId nodes, EdgeId edges) {
  WDM_CHECK_MSG(!csr_, "reserve on a finalized (frozen) Digraph");
  out_.reserve(static_cast<std::size_t>(nodes));
  in_.reserve(static_cast<std::size_t>(nodes));
  tail_.reserve(static_cast<std::size_t>(edges));
  head_.reserve(static_cast<std::size_t>(edges));
}

std::vector<std::uint8_t> Digraph::reachable_from(
    NodeId src, std::span<const std::uint8_t> enabled) const {
  WDM_CHECK(valid_node(src));
  WDM_CHECK(enabled.empty() ||
            enabled.size() == static_cast<std::size_t>(num_edges()));
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(num_nodes()), 0);
  std::vector<NodeId> stack{src};
  seen[static_cast<std::size_t>(src)] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (EdgeId e : out_edges(v)) {
      if (!enabled.empty() && !enabled[static_cast<std::size_t>(e)]) continue;
      const NodeId w = head(e);
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = 1;
        stack.push_back(w);
      }
    }
  }
  return seen;
}

bool Digraph::strongly_connected() const {
  if (num_nodes() == 0) return true;
  const auto fwd = reachable_from(0);
  if (std::find(fwd.begin(), fwd.end(), 0) != fwd.end()) return false;
  const auto bwd = reversed().reachable_from(0);
  return std::find(bwd.begin(), bwd.end(), 0) == bwd.end();
}

Digraph Digraph::reversed() const {
  Digraph r(num_nodes());
  r.reserve(num_nodes(), num_edges());
  for (EdgeId e = 0; e < num_edges(); ++e) {
    r.add_edge(head(e), tail(e));
  }
  return r;
}

}  // namespace wdm::graph
