// Pooled per-route scratch state — the allocation-free routing hot path.
//
// RouteScratch bundles everything a route() call would otherwise rebuild per
// request: the aux-graph builder (stable arena plus caches), the Suurballe
// workspace, projection vectors, induced-subgraph masks and the
// DisjointPair result, all recycled via the clear_keep_capacity idiom, so a
// steady-state ApproxDisjointRouter::route_into with refinement off touches
// the heap zero times (verified by tests/test_route_alloc.cpp's counting
// hook).
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
#include "wdm/semilightpath.hpp"

namespace wdm::rwa {

struct RouteScratch {
  AuxGraphBuilder builder;
  graph::SuurballeWorkspace suurballe;
  graph::DisjointPair pair;
  std::vector<graph::EdgeId> links1;
  std::vector<graph::EdgeId> links2;
  std::vector<std::uint8_t> mask1;
  std::vector<std::uint8_t> mask2;

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

  Lease lease();
  /// Keyed lease: exact uid match first (warm builder caches), then a
  /// never-bound scratch (no caches to destroy), then LIFO (evicts some
  /// other network's warmth); allocates only when the pool is empty.
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
