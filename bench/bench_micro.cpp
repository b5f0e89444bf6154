// E11 — google-benchmark micro-suite for the primitives the routing stack
// is built on: Dijkstra on the 4-ary heap (the Theorem 1 log-factor term),
// layered-graph construction (the materialized oracle) and the Liang–Shen
// solve, cold and with a warm workspace (the nW² term), auxiliary-graph
// construction, Suurballe (on random digraphs, and warm on a geo-grid
// auxiliary-graph arena with the nodes each round settles), and the MinCog
// ϑ search with its probes, confirms and confirm misses per search.
#include <benchmark/benchmark.h>

#include "graph/dijkstra.hpp"
#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/layered_graph.hpp"
#include "rwa/mincog.hpp"
#include "rwa/route_scratch.hpp"
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

// Warm workspace on the G' arena of a k x k geo grid (W = 16, full
// conversion), s in one corner and t mid-grid, as RouteScratch runs it.
// Reports the nodes each round settled next to the arena's node count:
// round 1 stops when t settles, so it stays below the arena size.
void BM_SuurballeArena(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  support::Rng rng(1);
  const topo::Topology topo = topo::geo_grid(k, k, /*chord_p=*/0.3, rng);
  topo::NetworkOptions nopt;
  nopt.num_wavelengths = 16;
  const net::WdmNetwork n = topo::build_network(topo, nopt, rng);
  rwa::AuxGraphBuilder builder;
  const rwa::AuxGraph& aux =
      builder.build(n, 0, static_cast<net::NodeId>(k * k / 2 + k / 2), {});
  graph::SuurballeWorkspace ws;
  graph::DisjointPair pair;
  for (auto _ : state) {
    graph::suurballe_into(aux.g, aux.w, aux.s_prime, aux.t_second, {}, &ws,
                          &pair);
    benchmark::DoNotOptimize(&pair);
  }
  state.counters["arena_nodes"] = static_cast<double>(aux.g.num_nodes());
  state.counters["round1_settled"] = static_cast<double>(ws.round1_settled);
  state.counters["round2_settled"] = static_cast<double>(ws.round2_settled);
}
BENCHMARK(BM_SuurballeArena)->Arg(8)->Arg(16);

// The §4.1 ϑ search (doubling ladder) on prebuilt G_rc(ϑ_max) arenas, as
// the load+cost router runs it, cycling over fixed queries of a network
// with the second arg's percentage of its wavelength-links reserved. First
// arg 0: a 16 x 16 geo grid (W = 16, full conversion), 32 random queries;
// 1: NSFNET (W = 16, limited-range conversion, range 2), every ordered node
// pair. The timed
// loop is the search alone (the load snapshot is taken once). Reports per
// search the rungs probed, the rungs whose physical check passed
// (confirms: one Suurballe each) and the confirms whose arena had no pair
// (misses: restricted conversion only).
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
  rwa::ThetaScratch ts;
  ts.snapshot(n);
  rwa::AuxGraphOptions aopt;
  aopt.weighting = rwa::AuxWeighting::kCostLoadFiltered;
  aopt.theta = ts.theta_max;
  std::vector<rwa::AuxGraph> arenas;
  for (const auto& [s, t] : queries) {
    arenas.push_back(rwa::build_aux_graph(n, s, t, aopt));
  }
  graph::SuurballeWorkspace ws;
  graph::DisjointPair pair;
  std::int64_t searches = 0, probes = 0, confirms = 0, misses = 0;
  for (auto _ : state) {
    const std::size_t q = static_cast<std::size_t>(searches) % queries.size();
    const rwa::MinCogResult mc =
        rwa::mincog_search(n, queries[q].first, queries[q].second, arenas[q],
                           {}, &ts, &ws, &pair);
    ++searches;
    probes += mc.iterations;
    confirms += mc.confirms;
    misses += mc.confirm_misses;
    benchmark::DoNotOptimize(&pair);
  }
  const auto per_search = [&](std::int64_t x) {
    return static_cast<double>(x) / static_cast<double>(searches);
  };
  state.counters["probes"] = per_search(probes);
  state.counters["confirms"] = per_search(confirms);
  state.counters["misses"] = per_search(misses);
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
