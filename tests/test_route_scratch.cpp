// RouteScratchPool: the lease discipline every aux-graph router relies on.
// route() is const and runs concurrently under sim::replicate (one router,
// one network per replica), so each call leases a RouteScratch (builder,
// Suurballe workspace, buffers) for its duration. Covered here: LIFO reuse,
// the exact-uid preference of lease(net), the fallback to a never-bound
// scratch, and distinct scratches for overlapping leases from several
// threads (also run under ThreadSanitizer in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "graph/suurballe.hpp"
#include "rwa/route_scratch.hpp"
#include "topology/network_builder.hpp"

namespace wdm::rwa {
namespace {

TEST(RouteScratchPool, SingleThreadedCallerGetsWarmScratchBack) {
  RouteScratchPool pool;
  EXPECT_EQ(pool.idle_count(), 0u);
  RouteScratch* first = nullptr;
  {
    auto lease = pool.lease();
    first = lease.get();
    EXPECT_EQ(pool.idle_count(), 0u);
  }
  EXPECT_EQ(pool.idle_count(), 1u);
  {
    auto lease = pool.lease();
    EXPECT_EQ(lease.get(), first) << "LIFO pool must recycle the warm scratch";
    auto second = pool.lease();
    EXPECT_NE(second.get(), first);
  }
  EXPECT_EQ(pool.idle_count(), 2u);
  {
    // LIFO: the scratch returned last comes back first.
    auto lease = pool.lease();
    EXPECT_EQ(lease.get(), first);
  }
}

TEST(RouteScratchPool, KeyedLeasePrefersExactUid) {
  const net::WdmNetwork a = topo::nsfnet_network(4, 0.5);
  const net::WdmNetwork b = topo::nsfnet_network(4, 0.5);
  ASSERT_NE(a.uid(), b.uid());
  RouteScratchPool pool;
  RouteScratch* on_a = nullptr;
  RouteScratch* on_b = nullptr;
  {
    auto la = pool.lease(a);
    auto lb = pool.lease(b);
    la->builder.build(a, 0, 13);
    lb->builder.build(b, 0, 13);
    on_a = la.get();
    on_b = lb.get();
  }  // lb is released first, la last: LIFO alone would hand out on_a next
  ASSERT_EQ(pool.idle_count(), 2u);
  {
    auto lease = pool.lease(b);
    EXPECT_EQ(lease.get(), on_b) << "lease(net) must prefer the bound scratch";
    EXPECT_EQ(lease->bound_uid(), b.uid());
  }
  {
    auto lease = pool.lease(a);
    EXPECT_EQ(lease.get(), on_a);
    EXPECT_EQ(lease->bound_uid(), a.uid());
  }
  EXPECT_EQ(pool.idle_count(), 2u);
}

TEST(RouteScratchPool, KeyedLeaseFallsBackToNeverBoundScratch) {
  const net::WdmNetwork a = topo::nsfnet_network(4, 0.5);
  const net::WdmNetwork c = topo::nsfnet_network(4, 0.5);
  RouteScratchPool pool;
  RouteScratch* unbound = nullptr;
  RouteScratch* bound = nullptr;
  {
    auto lu = pool.lease();
    auto lb = pool.lease();
    lb->builder.build(a, 0, 13);
    unbound = lu.get();
    bound = lb.get();
  }  // the bound scratch sits on top of the LIFO stack
  {
    // No scratch is bound to c: take the never-bound one rather than
    // destroying a's warm caches.
    auto lease = pool.lease(c);
    EXPECT_EQ(lease.get(), unbound);
    EXPECT_EQ(lease->bound_uid(), 0u);
    // With no never-bound scratch left, fall back to LIFO.
    auto next = pool.lease(c);
    EXPECT_EQ(next.get(), bound);
    // An empty pool allocates.
    auto fresh = pool.lease(c);
    EXPECT_NE(fresh.get(), unbound);
    EXPECT_NE(fresh.get(), bound);
  }
  EXPECT_EQ(pool.idle_count(), 3u);
}

TEST(RouteScratchPool, OverlappingLeasesAcrossThreadsAreDistinct) {
  const net::WdmNetwork net = topo::nsfnet_network(4, 0.5);
  RouteScratchPool pool;
  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<RouteScratch*> held(kThreads, nullptr);
    std::vector<int> found(kThreads, 0);
    std::latch all_leased(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        auto lease = pool.lease(net);
        held[static_cast<std::size_t>(i)] = lease.get();
        // Every lease stays alive until all threads hold one, so the pool
        // must hand out kThreads distinct scratches; each is then used.
        all_leased.arrive_and_wait();
        const AuxGraph& aux =
            lease->builder.build(net, static_cast<net::NodeId>(i), 13);
        graph::suurballe_into(aux.g, aux.w, aux.s_prime, aux.t_second, {},
                              &lease->suurballe, &lease->pair);
        found[static_cast<std::size_t>(i)] = lease->pair.found ? 1 : 0;
      });
    }
    for (auto& th : threads) th.join();
    const std::set<RouteScratch*> distinct(held.begin(), held.end());
    EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kThreads));
    EXPECT_EQ(std::count(found.begin(), found.end(), 1), kThreads);
    // Every lease came back; later rounds reuse them instead of growing.
    EXPECT_EQ(pool.idle_count(), static_cast<std::size_t>(kThreads));
  }
}

}  // namespace
}  // namespace wdm::rwa
