// Pooled per-route scratch state — the allocation-free routing hot path.
//
// RouteScratch bundles everything the protection stage
// (rwa/protection_stage.hpp) would otherwise rebuild per request: the
// aux-graph builder (stable arena plus caches), the Suurballe workspace
// (whose buffers the ϑ probes' pair checks reuse) and its goal-direction
// bound (the physical graph's distances to t and the arena's h),
// projection vectors, the DisjointPair result and the Liang–Shen
// workspace of the Lemma 2 refinement, each cleared and refilled in place
// so its capacity carries over from one request to the next.
// RouteScratchPool is the library's only lease-and-return object pool. A steady-state
// ApproxDisjointRouter::route_into touches the heap zero times, with
// refinement on or off, and a steady-state load-aware route() only for the
// two hop vectors it returns (verified by tests/test_route_alloc.cpp's
// counting hook). Each of the four policy
// routers owns one pool and leases one scratch per route() call.
//
// lease(net) prefers a scratch whose builder caches are already bound to the
// same network uid. sim::replicate's replicas route concurrently through one
// router against distinct networks; the uid key hands each replica its own
// warm scratch back.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/suurballe.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/layered_graph.hpp"
#include "wdm/semilightpath.hpp"

namespace wdm::rwa {

struct RouteScratch {
  AuxGraphBuilder builder;
  graph::SuurballeWorkspace suurballe;
  /// The goal-direction bound every Suurballe on the arena runs with; the
  /// load-aware routers' ϑ search also cuts the arena to a rung with it.
  ArenaLowerBound bound;
  graph::DisjointPair pair;
  /// The pair's paths projected to physical links (realize_pair).
  std::vector<graph::EdgeId> links1;
  std::vector<graph::EdgeId> links2;
  SemilightpathWorkspace semilightpath;

  /// uid() of the network the builder caches are bound to (0 = unbound).
  std::uint64_t bound_uid() const { return builder.bound_uid(); }
};

/// Thread-safe LIFO pool of scratches. Router::route() is const but may run
/// concurrently (sim::replicate's parallel Monte Carlo);
/// each call leases a scratch for its duration. A single-threaded caller
/// therefore always gets the same warm scratch back, while concurrent
/// callers each get their own.
class RouteScratchPool {
 public:
  class Lease {
   public:
    Lease(RouteScratchPool* pool, std::unique_ptr<RouteScratch> scratch)
        : pool_(pool), scratch_(std::move(scratch)) {}
    Lease(Lease&& other) noexcept = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease();

    RouteScratch& operator*() { return *scratch_; }
    RouteScratch* operator->() { return scratch_.get(); }
    RouteScratch* get() { return scratch_.get(); }

   private:
    RouteScratchPool* pool_;
    std::unique_ptr<RouteScratch> scratch_;
  };

  RouteScratchPool() = default;
  RouteScratchPool(const RouteScratchPool&) = delete;
  RouteScratchPool& operator=(const RouteScratchPool&) = delete;

  /// Keyed lease: exact uid match first (warm builder caches), then the
  /// most recently returned never-bound scratch (no caches to destroy), then
  /// LIFO (evicts some other network's warmth); allocates only when the pool
  /// is empty.
  Lease lease(const net::WdmNetwork& net);
  /// Scratches currently parked in the pool (observability for tests).
  std::size_t idle_count() const;

 private:
  friend class Lease;
  void put(std::unique_ptr<RouteScratch> scratch);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<RouteScratch>> idle_;
};

}  // namespace wdm::rwa
