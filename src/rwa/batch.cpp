#include "rwa/batch.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <unordered_map>
#include <vector>

#include "support/check.hpp"

namespace wdm::rwa {

const char* batch_order_name(BatchOrder order) {
  switch (order) {
    case BatchOrder::kArrival: return "arrival";
    case BatchOrder::kShortestFirst: return "shortest-first";
    case BatchOrder::kLongestFirst: return "longest-first";
    case BatchOrder::kRandom: return "random";
  }
  return "?";
}

namespace {

/// All-targets BFS hop distances from `s`. Unreachable nodes get
/// kUnreachableHops, so under the stable hop sort they land after every
/// reachable request in kShortestFirst and before them in kLongestFirst.
std::vector<int> bfs_hops(const graph::Digraph& g, net::NodeId s) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()),
                        kUnreachableHops);
  std::queue<net::NodeId> q;
  dist[static_cast<std::size_t>(s)] = 0;
  q.push(s);
  while (!q.empty()) {
    const net::NodeId v = q.front();
    q.pop();
    for (graph::EdgeId e : g.out_edges(v)) {
      const net::NodeId w = g.head(e);
      if (dist[static_cast<std::size_t>(w)] == kUnreachableHops) {
        dist[static_cast<std::size_t>(w)] =
            dist[static_cast<std::size_t>(v)] + 1;
        q.push(w);
      }
    }
  }
  return dist;
}

/// Memoizes one all-targets BFS per distinct source across a batch — a
/// batch of k requests from r distinct sources costs r BFS passes, not k
/// (duplicate sources, the common case under hotspot traffic, are free).
class HopDistances {
 public:
  explicit HopDistances(const graph::Digraph& g) : g_(g) {}

  int operator()(net::NodeId s, net::NodeId t) {
    auto [it, inserted] = memo_.try_emplace(s);
    if (inserted) it->second = bfs_hops(g_, s);
    return it->second[static_cast<std::size_t>(t)];
  }

 private:
  const graph::Digraph& g_;
  std::unordered_map<net::NodeId, std::vector<int>> memo_;
};

/// The processing permutation for `order` — input indices in the order
/// requests are routed. kRandom consumes exactly one shuffle from `rng`.
std::vector<std::size_t> batch_order_permutation(
    const net::WdmNetwork& net, const std::vector<BatchRequest>& batch,
    BatchOrder order, support::Rng* rng) {
  std::vector<std::size_t> perm(batch.size());
  std::iota(perm.begin(), perm.end(), 0);
  switch (order) {
    case BatchOrder::kArrival:
      break;
    case BatchOrder::kShortestFirst:
    case BatchOrder::kLongestFirst: {
      HopDistances hop_distance(net.graph());
      std::vector<int> hops(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        hops[i] = hop_distance(batch[i].s, batch[i].t);
      }
      std::stable_sort(perm.begin(), perm.end(),
                       [&](std::size_t a, std::size_t b) {
                         return order == BatchOrder::kShortestFirst
                                    ? hops[a] < hops[b]
                                    : hops[a] > hops[b];
                       });
      break;
    }
    case BatchOrder::kRandom:
      WDM_CHECK_MSG(rng != nullptr, "random ordering needs an RNG");
      rng->shuffle(std::span<std::size_t>(perm));
      break;
  }
  return perm;
}

/// The single accept/drop decision of §2: a route is accepted iff found and
/// feasible against `net`'s *current* residual state; accepted routes are
/// reserved immediately and recorded at input index `i`.
void commit_route(net::WdmNetwork& net, const RouteResult& r, std::size_t i,
                  BatchOutcome& out) {
  if (!r.found || !r.route.feasible(net)) {
    ++out.dropped;
    return;
  }
  r.route.reserve_in(net);
  out.routes[i] = r.route;
  ++out.accepted;
  out.total_cost += r.route.total_cost(net);
}

}  // namespace

BatchOutcome provision_batch(net::WdmNetwork& net, const Router& router,
                             const std::vector<BatchRequest>& batch,
                             BatchOrder order, support::Rng* rng) {
  BatchOutcome out;
  out.routes.resize(batch.size());
  for (std::size_t i : batch_order_permutation(net, batch, order, rng)) {
    const BatchRequest& req = batch[i];
    commit_route(net, router.route(net, req.s, req.t), i, out);
  }
  out.final_network_load = net.network_load();
  return out;
}

void release_batch(net::WdmNetwork& net, const BatchOutcome& outcome) {
  for (const auto& route : outcome.routes) {
    if (route.has_value()) route->release_in(net);
  }
}

}  // namespace wdm::rwa
