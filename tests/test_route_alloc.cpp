// The zero-allocation guarantee of the routing hot path, enforced by a
// counting global operator new: after a warmup request has sized the stable
// arena, the Suurballe workspace, and every pooled scratch buffer, a
// steady-state ApproxDisjointRouter::route_into (kFull policy, refine off)
// must touch the heap ZERO times, and so must a bare arena rebuild plus
// suurballe_into with a reused workspace. The hook counts every global new while armed; any
// regression — a stray std::vector rebuild, a std::function capture, a
// string in a telemetry label — fails loudly with the exact count.
//
// Debug builds run the same scenarios without the zero bar (WDM_DCHECK
// machinery and libstdc++ debug containers allocate freely); the strict
// assertions are NDEBUG-only, as documented in DESIGN.md.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "graph/suurballe.hpp"
#include "rwa/approx_router.hpp"
#include "rwa/aux_graph.hpp"
#include "topology/network_builder.hpp"

namespace {

std::atomic<std::uint64_t> g_armed{0};
std::atomic<std::uint64_t> g_allocations{0};

void count_alloc() {
  if (g_armed.load(std::memory_order_relaxed) != 0) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
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

TEST(RouteAlloc, StableArenaRebuildAndWarmSolveAreAllocationFree) {
  net::WdmNetwork net = topo::nsfnet_network(/*W=*/8, 0.25);
  rwa::AuxGraphBuilder builder;
  graph::SuurballeWorkspace ws;
  graph::DisjointPair pair;

  auto one_request = [&](net::NodeId s, net::NodeId t) {
    const rwa::AuxGraph& aux = builder.build(net, s, t);
    graph::suurballe_into(aux.g, aux.w, aux.s_prime, aux.t_second, {}, &ws,
                          &pair);
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

}  // namespace
}  // namespace wdm
