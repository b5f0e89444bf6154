// Shared-memory parallel loop helper for Monte-Carlo sweeps.
//
// Uses OpenMP when the build found it (ROBUSTWDM_HAVE_OPENMP), otherwise runs
// serially. Library algorithms themselves are single-threaded and
// thread-compatible; parallelism lives at the replication level only
// (independent simulation replicas / instances, e.g. sim::replicate).
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>

#ifdef ROBUSTWDM_HAVE_OPENMP
#include <omp.h>
#endif

#include "support/env.hpp"

namespace wdm::support {

/// Runs body(i) for i in [0, n), possibly in parallel. `body` must be safe to
/// invoke concurrently for distinct i (no shared mutable state without
/// synchronization).
///
/// Exception contract: if any invocation throws, the first exception (in
/// completion order) is captured and rethrown on the calling thread after the
/// loop finishes; iterations not yet started when the exception lands are
/// skipped. Letting an exception escape an OpenMP region is immediate
/// std::terminate, so the capture is mandatory, not a convenience.
template <typename Body>
void parallel_for(std::size_t n, Body&& body) {
#ifdef ROBUSTWDM_HAVE_OPENMP
  std::exception_ptr first_exception;
  std::atomic<bool> failed{false};
#pragma omp parallel for schedule(dynamic)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    if (failed.load(std::memory_order_relaxed)) continue;
    try {
      body(static_cast<std::size_t>(i));
    } catch (...) {
      bool expected = false;
      if (failed.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
        first_exception = std::current_exception();
      }
    }
  }
  // The implicit barrier at the end of the parallel region orders the
  // winner's store of first_exception before this read.
  if (first_exception) std::rethrow_exception(first_exception);
#else
  for (std::size_t i = 0; i < n; ++i) body(i);
#endif
}

/// Usable hardware parallelism: OpenMP's view when built with it, otherwise
/// std::thread::hardware_concurrency() (so a non-OpenMP build on a 64-core
/// box does not pretend to be serial). Never less than 1. The ROBUSTWDM_THREADS
/// environment variable (parsed via support/env; malformed or non-positive
/// values ignored) caps the result — the CI / container knob for bounding
/// parallelism.
inline int hardware_threads() {
  int n = 0;
#ifdef ROBUSTWDM_HAVE_OPENMP
  n = omp_get_max_threads();
#endif
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;
  const std::int64_t cap = env_int("ROBUSTWDM_THREADS", 0);
  if (cap > 0 && cap < static_cast<std::int64_t>(n)) n = static_cast<int>(cap);
  return n;
}

}  // namespace wdm::support
