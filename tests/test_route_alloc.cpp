// The zero-allocation guarantee of the routing hot path, enforced by a
// counting global operator new: after a warmup request has sized the stable
// arena, the Suurballe workspace, the Liang–Shen workspace and every pooled
// scratch buffer, a steady-state ApproxDisjointRouter::route_into (kFull
// policy) must touch the heap ZERO times — with refinement off, and with the
// Lemma 2 refinement on under limited-range conversion, including requests
// whose refinement is infeasible. So must a bare arena rebuild plus a
// goal-directed suurballe_into (its ArenaLowerBound refilled in place) with
// a reused workspace. Every router's Suurballe runs with the bound. The
// load-aware routers' steady-state route() (one load snapshot and arena,
// the ϑ rungs' physical pair checks, the arena mask, bound and Suurballe of
// each confirm, refinement) may allocate only the two hop vectors of the
// RouteResult it returns. The hook counts every global new
// while armed; any regression — a stray std::vector rebuild, a std::function
// capture, a string in a telemetry label — fails loudly with the exact count.
//
// Debug builds run the same scenarios without the zero bar (WDM_DCHECK
// machinery and libstdc++ debug containers allocate freely); the strict
// assertions are NDEBUG-only, as documented in DESIGN.md.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "graph/suurballe.hpp"
#include "rwa/approx_router.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/loadcost_router.hpp"
#include "rwa/mincog.hpp"
#include "support/rng.hpp"
#include "topology/network_builder.hpp"

namespace {

std::atomic<std::uint64_t> g_armed{0};
std::atomic<std::uint64_t> g_allocations{0};

void count_alloc() {
  if (g_armed.load(std::memory_order_relaxed) != 0) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

/// The replacement deletes free through this out-of-line call. Inlined into
/// a caller, a bare std::free on memory from operator new trips GCC's
/// -Wmismatched-new-delete, although the replacement new takes it from
/// malloc.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

/// Counts allocations while alive; read the delta via count().
class AllocationProbe {
 public:
  AllocationProbe() : start_(g_allocations.load()) {
    g_armed.fetch_add(1, std::memory_order_relaxed);
  }
  ~AllocationProbe() { g_armed.fetch_sub(1, std::memory_order_relaxed); }
  std::uint64_t count() const { return g_allocations.load() - start_; }

 private:
  std::uint64_t start_;
};

}  // namespace

// Counting replacements for the whole binary. Deletes never count — only
// acquisition matters for the steady-state bar.
void* operator new(std::size_t size) {
  count_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  count_alloc();
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace wdm {
namespace {

#ifdef NDEBUG
constexpr bool kStrict = true;
#else
constexpr bool kStrict = false;
#endif

TEST(RouteAlloc, HookCountsWhileArmedOnly) {
  // Explicit operator-new calls: a `new int` expression may legally be
  // elided by the optimizer, the direct function call may not.
  const std::uint64_t before = g_allocations.load();
  ::operator delete(::operator new(16));  // unarmed: invisible
  EXPECT_EQ(g_allocations.load(), before);
  AllocationProbe probe;
  ::operator delete(::operator new(16));
  EXPECT_GE(probe.count(), 1u);
}

TEST(RouteAlloc, SteadyStateRouteIntoIsAllocationFree) {
  net::WdmNetwork net = topo::nsfnet_network(/*W=*/8, 0.25);
  const rwa::ApproxDisjointRouter router(/*refine=*/false);
  rwa::RouteResult out;

  // Deterministic query mix; routing never mutates the network, so the
  // armed pass replays the warmup pass exactly.
  const std::pair<net::NodeId, net::NodeId> queries[] = {
      {0, 7}, {3, 12}, {5, 9}, {1, 13}, {0, 7}, {10, 2}};

  // Warmup: size the arena, the Suurballe workspace, the pooled scratch
  // buffers, and `out`'s hop vectors.
  for (const auto& [s, t] : queries) router.route_into(net, s, t, &out);

  AllocationProbe probe;
  for (const auto& [s, t] : queries) router.route_into(net, s, t, &out);
  if (kStrict) {
    EXPECT_EQ(probe.count(), 0u)
        << "steady-state route_into touched the heap";
  } else {
    GTEST_SKIP() << "zero-allocation bar is NDEBUG-only (ran "
                 << probe.count() << " allocations unasserted)";
  }
}

TEST(RouteAlloc, SteadyStateRefinedRouteIntoIsAllocationFree) {
  // NSFNET, W=16, limited-range conversion (range 2), 80% of the channels
  // preloaded: outside assumption (i), so some G' pairs refine infeasibly.
  support::Rng rng(3);
  topo::NetworkOptions nopt;
  nopt.num_wavelengths = 16;
  nopt.conversion_model = topo::ConversionModel::kLimitedRange;
  nopt.conversion_range = 2;
  net::WdmNetwork net = topo::build_network(topo::nsfnet(), nopt, rng);
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    net.available(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(0.8)) net.reserve(e, l);
    });
  }
  const rwa::ApproxDisjointRouter router(/*refine=*/true);
  rwa::RouteResult out;

  // Unarmed scan: pick routed requests and refine-infeasible ones (a G'
  // pair was found — aux_cost is set — but Liang–Shen blocked).
  std::vector<std::pair<net::NodeId, net::NodeId>> queries;
  int routed = 0;
  int infeasible = 0;
  for (net::NodeId s = 0; s < net.num_nodes(); ++s) {
    for (net::NodeId t = 0; t < net.num_nodes(); ++t) {
      if (s == t) continue;
      router.route_into(net, s, t, &out);
      const bool refine_infeasible = !out.found && !std::isnan(out.aux_cost);
      if (out.found && routed < 6) {
        ++routed;
        queries.emplace_back(s, t);
      } else if (refine_infeasible && infeasible < 3) {
        ++infeasible;
        queries.emplace_back(s, t);
      }
    }
  }
  ASSERT_GT(routed, 0);
  ASSERT_GT(infeasible, 0) << "the mix must exercise a refine-infeasible exit";

  for (const auto& [s, t] : queries) router.route_into(net, s, t, &out);

  AllocationProbe probe;
  for (const auto& [s, t] : queries) router.route_into(net, s, t, &out);
  if (kStrict) {
    EXPECT_EQ(probe.count(), 0u)
        << "steady-state refined route_into touched the heap";
  } else {
    GTEST_SKIP() << "zero-allocation bar is NDEBUG-only (ran "
                 << probe.count() << " allocations unasserted)";
  }
}

TEST(RouteAlloc, StableArenaRebuildAndWarmSolveAreAllocationFree) {
  net::WdmNetwork net = topo::nsfnet_network(/*W=*/8, 0.25);
  rwa::AuxGraphBuilder builder;
  rwa::ArenaLowerBound bound;
  graph::SuurballeWorkspace ws;
  graph::DisjointPair pair;

  auto one_request = [&](net::NodeId s, net::NodeId t) {
    const rwa::AuxGraph& aux = builder.build(net, s, t);
    graph::suurballe_into(aux.g, aux.w, aux.s_prime, aux.t_second, {}, &ws,
                          &pair, bound.compute(net, aux, s, t));
  };
  // A state-neutral churn cycle: reserve, route, release, route. Each cycle
  // ends with the network back in its starting state, so every cycle after
  // the first replays identical weight patches and identically-sized solves.
  auto cycle = [&] {
    const net::Wavelength l0 = net.available(0).lowest();
    net.reserve(0, l0);
    one_request(0, 7);
    const net::Wavelength l1 = net.available(1).lowest();
    net.reserve(1, l1);
    one_request(3, 12);
    net.release(0, l0);
    one_request(0, 7);
    net.release(1, l1);
    one_request(3, 12);
  };
  cycle();  // sizes the arena, the workspace, and the result paths
  cycle();  // confirms the steady state is reachable

  AllocationProbe probe;
  cycle();
  if (kStrict) {
    EXPECT_EQ(probe.count(), 0u)
        << "arena rebuild / workspace solve touched the heap";
  } else {
    GTEST_SKIP() << "zero-allocation bar is NDEBUG-only";
  }
}

// LoadCostRouter and MinLoadRouter return their RouteResult by value, so a
// routed request owns two fresh hop vectors; everything else (the pooled
// scratch, the ϑ_max arena, the probes' arc mask and BFS buffers, the
// Suurballe and Liang–Shen workspaces) must be recycled.
TEST(RouteAlloc, SteadyStateLoadAwareRouteAllocatesOnlyTheResult) {
  support::Rng rng(5);
  topo::NetworkOptions nopt;
  nopt.num_wavelengths = 8;
  net::WdmNetwork net = topo::build_network(topo::nsfnet(), nopt, rng);
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    net.available(e).for_each([&](net::Wavelength l) {
      if (rng.bernoulli(0.5)) net.reserve(e, l);
    });
  }
  const rwa::LoadCostRouter loadcost;
  const rwa::MinLoadRouter minload;
  const std::pair<net::NodeId, net::NodeId> queries[] = {
      {0, 7}, {3, 12}, {5, 9}, {1, 13}, {0, 7}, {10, 2}};

  for (const rwa::Router* router :
       {static_cast<const rwa::Router*>(&loadcost),
        static_cast<const rwa::Router*>(&minload)}) {
    SCOPED_TRACE(router->name());
    int routed = 0;
    int multi_probe = 0;
    for (const auto& [s, t] : queries) {
      const rwa::RouteResult r = router->route(net, s, t);
      if (r.found) ++routed;
      if (r.theta_iterations > 1) ++multi_probe;
    }
    ASSERT_GT(routed, 0);
    ASSERT_GT(multi_probe, 0) << "the mix must make the ϑ search climb";

    for (const auto& [s, t] : queries) {
      AllocationProbe probe;
      const rwa::RouteResult r = router->route(net, s, t);
      const std::uint64_t allocs = probe.count();
      if (kStrict) {
        EXPECT_LE(allocs, 2u) << "route(" << s << ", " << t << ")";
      }
      (void)r;
    }
  }
  if (!kStrict) GTEST_SKIP() << "allocation bar is NDEBUG-only";
}

TEST(ConversionTableAlloc, TaggedTablesHoldNoMatrix) {
  // Building, copying and reading a tagged W = 64 table touch no heap; the
  // first set() builds the W×W matrix, which the armed hook must see.
  constexpr int kW = 64;
  std::uint64_t tagged_allocations = 0;
  std::uint64_t general_allocations = 0;
  double sink = 0.0;
  {
    AllocationProbe probe;
    const net::ConversionTable tables[] = {
        net::ConversionTable::none(kW), net::ConversionTable::full(kW, 0.5),
        net::ConversionTable::limited_range(kW, 2, 0.5)};
    for (const net::ConversionTable& t : tables) {
      const net::ConversionTable copy = t;
      sink += copy.max_cost() + (copy.is_full() ? 1.0 : 0.0);
      if (copy.allowed(3, 5)) sink += copy.cost(3, 5);
    }
    tagged_allocations = probe.count();
    net::ConversionTable general = tables[1];
    general.set(3, 5, 0.25);
    general_allocations = probe.count() - tagged_allocations;
    sink += general.cost(3, 5);
  }
  EXPECT_GT(sink, 0.0);
  EXPECT_GE(general_allocations, 1u) << "set() must build the matrix";
  if (kStrict) {
    EXPECT_EQ(tagged_allocations, 0u) << "a tagged table touched the heap";
  } else {
    GTEST_SKIP() << "zero-allocation bar is NDEBUG-only (ran "
                 << tagged_allocations << " allocations unasserted)";
  }
}

}  // namespace
}  // namespace wdm
