// E11 — google-benchmark micro-suite for the primitives the routing stack
// is built on: Dijkstra on the 4-ary heap (the Theorem 1 log-factor term),
// layered-graph construction (the materialized oracle) and the Liang–Shen
// solve, cold and with a warm workspace (the nW² term), auxiliary-graph
// construction, Suurballe (on random digraphs, and warm on geo-grid
// auxiliary-graph arenas with and without the physical-graph bound, with
// the nodes each round settles), and the MinCog
// ϑ search with its probes, confirms, confirm misses and O(deg) rung
// rejections per search.
#include <benchmark/benchmark.h>

#include "graph/dijkstra.hpp"
#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/layered_graph.hpp"
#include "rwa/mincog.hpp"
#include "support/rng.hpp"
#include "test_util_bench.hpp"
#include "topology/network_builder.hpp"
#include "topology/topologies.hpp"

namespace {

using namespace wdm;

std::pair<graph::Digraph, std::vector<double>> bench_graph(int n) {
  support::Rng rng(static_cast<std::uint64_t>(n));
  return test::random_digraph_bench(n, 6 * n, rng);
}

void BM_DijkstraQuad(benchmark::State& state) {
  const auto [g, w] = bench_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto tree = graph::dijkstra(g, w, 0);
    benchmark::DoNotOptimize(tree.dist.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DijkstraQuad)->Range(64, 4096)->Complexity();

void BM_Suurballe(benchmark::State& state) {
  const auto [g, w] = bench_graph(static_cast<int>(state.range(0)));
  const graph::NodeId t = g.num_nodes() - 1;
  for (auto _ : state) {
    auto pair = graph::suurballe(g, w, 0, t);
    benchmark::DoNotOptimize(&pair);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Suurballe)->Range(64, 4096)->Complexity();

// Warm Suurballe on AuxGraphBuilder arenas of geo grids (full conversion),
// as RouteScratch runs it, over 32 random queries per arm. First arg: the
// arena — 0: geo16 W16 G' with 30% of the wavelength-links reserved;
// 1: geo16 W16 G_rc at ϑ_max, 30% reserved; 2: geo16 W16 G_rc at ϑ_max,
// nothing reserved; 3: geo32 W64 G', 30% reserved. Second arg: 0 runs the
// empty potential span (plain Dijkstra rounds); 1 the physical-graph bound
// (rwa::ArenaLowerBound), computed inside the timed loop; 2 the same bound,
// computed once per query before it, so only the search is timed. One
// iteration searches every query once, with that query's own s' and t'', so
// the counters cover whole cycles and read the same in every run: per call,
// the nodes each round settled and the out-degree of s' (source_arcs), next
// to the arena's node count. The iteration time is one cycle; `call_time`
// is the time per call.
void BM_SuurballeArena(benchmark::State& state) {
  const int arm = static_cast<int>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  const int k = arm == 3 ? 32 : 16;
  support::Rng rng(1);
  const topo::Topology topo = topo::geo_grid(k, k, /*chord_p=*/0.3, rng);
  topo::NetworkOptions nopt;
  nopt.num_wavelengths = arm == 3 ? 64 : 16;
  net::WdmNetwork n = topo::build_network(topo, nopt, rng);
  if (arm != 2) {
    for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
      n.available(e).for_each([&](net::Wavelength l) {
        if (rng.bernoulli(0.3)) n.reserve(e, l);
      });
    }
  }
  rwa::AuxGraphOptions aopt;
  if (arm == 1 || arm == 2) {
    aopt.weighting = rwa::AuxWeighting::kCostLoadFiltered;
    aopt.theta = n.theta_max();
  }
  struct Query {
    net::NodeId s, t;
    graph::NodeId s_prime, t_second;
    std::vector<double> w;
    std::vector<double> h;  // mode 2: the bound, computed up front
  };
  std::vector<Query> queries;
  while (queries.size() < 32) {
    const auto s = static_cast<net::NodeId>(rng.uniform_int(0, k * k - 1));
    const auto t = static_cast<net::NodeId>(rng.uniform_int(0, k * k - 1));
    if (s != t) queries.push_back({s, t, graph::kInvalidNode,
                                   graph::kInvalidNode, {}, {}});
  }
  // One arena's structure serves every query; the weights and the query
  // nodes differ, so each query keeps its own.
  rwa::AuxGraphBuilder builder;
  rwa::AuxGraph arena =
      builder.build(n, queries[0].s, queries[0].t, aopt);
  rwa::ArenaLowerBound bound;
  for (Query& q : queries) {
    const rwa::AuxGraph& built = builder.build(n, q.s, q.t, aopt);
    q.s_prime = built.s_prime;
    q.t_second = built.t_second;
    q.w = built.w;
    if (mode == 2) {
      const std::span<const double> h = bound.compute(n, built, q.s, q.t);
      q.h.assign(h.begin(), h.end());
    }
  }
  graph::SuurballeWorkspace ws;
  graph::DisjointPair pair;
  std::int64_t calls = 0, settled1 = 0, settled2 = 0, source_arcs = 0;
  for (auto _ : state) {
    for (const Query& q : queries) {
      arena.s_prime = q.s_prime;
      arena.t_second = q.t_second;
      std::span<const double> h;
      if (mode == 1) h = bound.compute(n, arena, q.s, q.t);
      if (mode == 2) h = q.h;
      graph::suurballe_into(arena.g, q.w, q.s_prime, q.t_second, {}, &ws,
                            &pair, h);
      ++calls;
      settled1 += ws.round1_settled;
      settled2 += ws.round2_settled;
      source_arcs += arena.g.out_degree(q.s_prime);
      benchmark::DoNotOptimize(&pair);
    }
  }
  const auto per_call = [&](std::int64_t x) {
    return static_cast<double>(x) / static_cast<double>(calls);
  };
  state.counters["call_time"] = benchmark::Counter(
      static_cast<double>(calls),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["arena_nodes"] = static_cast<double>(arena.g.num_nodes());
  state.counters["round1_settled"] = per_call(settled1);
  state.counters["round2_settled"] = per_call(settled2);
  state.counters["source_arcs"] = per_call(source_arcs);
}
BENCHMARK(BM_SuurballeArena)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

// The §4.1 ϑ search (doubling ladder) on prebuilt G_rc(ϑ_max) arenas
// (AuxGraphBuilder's layout, which the confirms' bound reads), as
// the load+cost router runs it, cycling over fixed queries of a network
// with the second arg's percentage of its wavelength-links reserved. First
// arg 0: a 16 x 16 geo grid (W = 16, full conversion), 32 random queries;
// 1: NSFNET (W = 16, limited-range conversion, range 2), every ordered node
// pair. One iteration searches every query once, so the counters cover
// whole cycles and read the same in every run: per search, the rungs
// probed, the rungs whose physical check passed (confirms: one Suurballe
// each), the confirms whose arena had no pair (misses: restricted
// conversion only) and the rungs rejected in O(deg) before the pair check
// (degree_rejects). The iteration time is one cycle; `search_time` is the
// time per search.
void BM_MinCogSearch(benchmark::State& state) {
  const bool nsfnet = state.range(0) == 1;
  support::Rng rng(7);
  topo::NetworkOptions nopt;
  nopt.num_wavelengths = 16;
  if (nsfnet) nopt.conversion_model = topo::ConversionModel::kLimitedRange;
  const topo::Topology topo =
      nsfnet ? topo::nsfnet() : topo::geo_grid(16, 16, /*chord_p=*/0.3, rng);
  net::WdmNetwork n = topo::build_network(topo, nopt, rng);
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
    n.available(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(static_cast<double>(state.range(1)) / 100.0)) {
        n.reserve(e, l);
      }
    });
  }
  std::vector<std::pair<net::NodeId, net::NodeId>> queries;
  if (nsfnet) {
    for (net::NodeId s = 0; s < n.num_nodes(); ++s) {
      for (net::NodeId t = 0; t < n.num_nodes(); ++t) {
        if (s != t) queries.emplace_back(s, t);
      }
    }
  } else {
    while (queries.size() < 32) {
      const auto s = static_cast<net::NodeId>(rng.uniform_int(0, 255));
      const auto t = static_cast<net::NodeId>(rng.uniform_int(0, 255));
      if (s != t) queries.emplace_back(s, t);
    }
  }
  rwa::AuxGraphOptions aopt;
  aopt.weighting = rwa::AuxWeighting::kCostLoadFiltered;
  aopt.theta = n.theta_max();
  rwa::AuxGraphBuilder builder;
  std::vector<rwa::AuxGraph> arenas;
  for (const auto& [s, t] : queries) {
    arenas.push_back(builder.build(n, s, t, aopt));
  }
  rwa::ArenaLowerBound bound;
  graph::SuurballeWorkspace ws;
  graph::DisjointPair pair;
  std::int64_t searches = 0, probes = 0, confirms = 0, misses = 0;
  std::int64_t degree_rejects = 0;
  for (auto _ : state) {
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const rwa::MinCogResult mc =
          rwa::mincog_search(n, queries[q].first, queries[q].second,
                             arenas[q], {}, &bound, &ws, &pair);
      ++searches;
      probes += mc.iterations;
      confirms += mc.confirms;
      misses += mc.confirm_misses;
      degree_rejects += mc.degree_rejects;
      benchmark::DoNotOptimize(&pair);
    }
  }
  const auto per_search = [&](std::int64_t x) {
    return static_cast<double>(x) / static_cast<double>(searches);
  };
  state.counters["search_time"] = benchmark::Counter(
      static_cast<double>(searches),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["probes"] = per_search(probes);
  state.counters["confirms"] = per_search(confirms);
  state.counters["misses"] = per_search(misses);
  state.counters["degree_rejects"] = per_search(degree_rejects);
}
BENCHMARK(BM_MinCogSearch)->Args({0, 40})->Args({1, 40})->Args({1, 70});

net::WdmNetwork micro_network(int W) {
  support::Rng rng(5);
  topo::NetworkOptions opt;
  opt.num_wavelengths = W;
  return topo::build_network(topo::nsfnet(), opt, rng);
}

void BM_LayeredBuild(benchmark::State& state) {
  const net::WdmNetwork n = micro_network(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto lg = rwa::LayeredGraph::build(n, 0, 13);
    benchmark::DoNotOptimize(&lg);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LayeredBuild)->RangeMultiplier(2)->Range(2, 32)->Complexity();

// Cold wrapper: a call-local workspace per solve.
void BM_OptimalSemilightpath(benchmark::State& state) {
  const net::WdmNetwork n = micro_network(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto p = rwa::optimal_semilightpath(n, 0, 13);
    benchmark::DoNotOptimize(&p);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OptimalSemilightpath)->RangeMultiplier(2)->Range(2, 32)->Complexity();

// Warm workspace and result path, as RouteScratch holds them. Reports the
// conversion arcs the solve relaxed next to the materialized oracle's
// conversion-arc count (full conversion: ≤ n(2W − 1) against nW²).
void BM_OptimalSemilightpathWarm(benchmark::State& state) {
  const net::WdmNetwork n = micro_network(static_cast<int>(state.range(0)));
  rwa::SemilightpathWorkspace ws;
  net::Semilightpath p;
  for (auto _ : state) {
    rwa::optimal_semilightpath_into(n, 0, 13, {}, ws, &p);
    benchmark::DoNotOptimize(&p);
  }
  const rwa::LayeredGraph lg = rwa::LayeredGraph::build(n, 0, 13);
  std::int64_t oracle_conv_arcs = 0;
  for (graph::EdgeId a = 0; a < lg.g.num_edges(); ++a) {
    if (lg.hop_of_arc[static_cast<std::size_t>(a)].edge ==
            graph::kInvalidEdge &&
        lg.g.tail(a) != lg.source_hub && lg.g.head(a) != lg.sink_hub) {
      ++oracle_conv_arcs;
    }
  }
  state.counters["conv_arcs_relaxed"] =
      static_cast<double>(ws.conv_arcs_relaxed);
  state.counters["oracle_conv_arcs"] = static_cast<double>(oracle_conv_arcs);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OptimalSemilightpathWarm)
    ->RangeMultiplier(2)
    ->Range(2, 32)
    ->Complexity();

void BM_AuxGraphBuild(benchmark::State& state) {
  const net::WdmNetwork n = micro_network(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto aux = rwa::build_aux_graph(n, 0, 13);
    benchmark::DoNotOptimize(&aux);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AuxGraphBuild)->RangeMultiplier(2)->Range(2, 32)->Complexity();

void BM_AuxGraphLoadWeighted(benchmark::State& state) {
  net::WdmNetwork n = micro_network(8);
  support::Rng rng(11);
  for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
    n.available(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(0.4)) n.reserve(e, l);
    });
  }
  rwa::AuxGraphOptions opt;
  opt.weighting = rwa::AuxWeighting::kLoadExponential;
  opt.theta = 0.7;
  for (auto _ : state) {
    auto aux = rwa::build_aux_graph(n, 0, 13, opt);
    benchmark::DoNotOptimize(&aux);
  }
}
BENCHMARK(BM_AuxGraphLoadWeighted);

}  // namespace
