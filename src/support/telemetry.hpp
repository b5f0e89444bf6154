// Structured telemetry: named monotonic counters, log-spaced latency
// histograms and sampled time series, flushed to a single JSON file per run
// (schema "robustwdm-telemetry-v4", the only one the tools read, documented
// in DESIGN.md §8 and validated by tools/telemetry_check). Output is
// end-of-run only (DESIGN.md §8.5). The per-request layer
// split is the stage histograms SplitTimer fills: a one-request run's dump
// holds each of them at count 1.
//
// Cost contract (enforced by E18 / CI):
//   * compiled out (-DROBUSTWDM_TELEMETRY=OFF): every macro below expands to
//     nothing and `enabled()` is a constant false, so guarded blocks are
//     dead code — zero instructions on the hot paths;
//   * compiled in but disabled (the default at runtime): one relaxed atomic
//     load + branch per instrumentation site, <2% on bench_policies;
//   * enabled: counters are relaxed atomic adds on interned handles (no
//     lookups on the hot path — handles are cached in function-local
//     statics), histograms one clock read + one atomic add.
//
// Determinism: counter values are a pure function of the work performed.
// Counters under `sim.*` (and time series under `sim.series.*`) count
// committed simulator outcomes and are identical for identical seeds
// (tests/test_telemetry.cpp pins golden values). Series under
// `rwa.series.*` read router cache state, and all histogram timings depend
// on the host; neither is replay-stable.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef ROBUSTWDM_TELEMETRY
#define ROBUSTWDM_TELEMETRY 1
#endif

namespace wdm::support::telemetry {

#if ROBUSTWDM_TELEMETRY
namespace detail {
extern std::atomic<bool> g_enabled;
}
/// Runtime gate, read on every instrumentation site. Relaxed: flipping it
/// mid-run may lose a few in-flight samples, never corrupt state.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
constexpr bool compiled_in() { return true; }
#else
constexpr bool enabled() { return false; }
constexpr bool compiled_in() { return false; }
#endif

/// Enables/disables collection. Counters and histograms registered while
/// disabled still appear (as zeros) in the JSON output.
void set_enabled(bool on);

/// Zeroes every counter/histogram/series.
/// Registered names (and cached handles) stay valid. For tests and
/// multi-run tools.
void reset();

/// Named monotonic counter. Obtain through counter() once (cache the
/// reference); add() is a relaxed atomic increment.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend void reset();
  std::atomic<std::uint64_t> v_{0};
};

/// Latency histogram with fixed log-spaced (powers-of-two nanosecond)
/// buckets: bucket b counts samples in [2^(b-1), 2^b) ns, bucket 0 counts
/// {0}. Buckets are independent relaxed atomics, so one instance is safely
/// shared across threads.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void record_ns(std::uint64_t ns);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum_ns() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min_ns() const;  // 0 when empty
  std::uint64_t max_ns() const;  // 0 when empty
  std::uint64_t bucket_count(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// Lower/upper bound of bucket b in ns ([lo, hi)).
  static std::uint64_t bucket_lo(int b);
  static std::uint64_t bucket_hi(int b);

  /// Quantile estimate with *upper-bound* semantics: returns the smallest
  /// bucket upper bound `u` such that at least ceil(q * count) samples are
  /// < u, clamped to max_ns(). Because bucket b spans [2^(b-1), 2^b), the
  /// estimate over-reports the true quantile by at most a factor of 2
  /// (equality only when the quantile is exactly a power of two; exact for
  /// 0, and the clamp keeps p99 <= max with the saturating last bucket
  /// reporting the exact observed maximum). 0 when empty; `q` is clamped
  /// to [0, 1]. Documented + tested in tests/test_support.cpp.
  std::uint64_t percentile_ns(double q) const;

 private:
  friend void reset();
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// Sampled time series: (t, value) points, where `t` is caller time (the
/// simulator samples at *simulation*-time boundaries, which keeps `sim.*`
/// series independent of wall-clock timing). Bounded: past kMaxPoints new
/// points are dropped and counted (tel.dropped_points + the dump header).
class Series {
 public:
  static constexpr std::size_t kMaxPoints = std::size_t{1} << 16;

  void add(double t, double v);
  std::vector<std::pair<double, double>> points() const;
  std::uint64_t dropped() const;

 private:
  friend void reset();
  mutable std::mutex mu_;
  std::vector<std::pair<double, double>> pts_;
  std::uint64_t dropped_ = 0;
};

/// Registry lookup-or-create. Takes a mutex — call once per site and cache
/// the reference (the macros below do this with function-local statics).
/// Returned references stay valid for the process lifetime.
Counter& counter(std::string_view name);
LatencyHistogram& histogram(std::string_view name);
Series& series(std::string_view name);

/// Snapshot of every registered counter (name -> value). For tests and
/// report generation, not hot paths.
std::map<std::string, std::uint64_t> counter_values();

/// Snapshot of every registered series (name -> points). Tests/reports only.
std::map<std::string, std::vector<std::pair<double, double>>> series_values();

/// Run metadata attached to every dump (the `meta` section, since v2): build
/// info (git describe, compiler, flags) is populated automatically; apps add
/// run-scoped keys ("seed", "command", ...). tools/teldiff refuses
/// apples-to-oranges comparisons based on these keys.
void set_meta(std::string_view key, std::string_view value);
std::map<std::string, std::string> meta_values();

/// Monotonic nanoseconds since the registry epoch (first telemetry call).
std::uint64_t now_ns();

namespace detail {
/// Debug backstop for the static-handle macros (WDM_TEL_COUNTER/HIST
/// and everything built on them): the name is evaluated once and cached in a
/// function-local static, so a *runtime-built* name silently folds every
/// subsequent call into the first-seen metric. In debug builds the macros
/// re-evaluate the name expression and call this; on mismatch it prints both
/// names and aborts, pointing at WDM_TEL_COUNT_DYN. Compiled away in NDEBUG.
void check_static_name(const std::string& cached, std::string_view now);
}  // namespace detail

/// Writes the full JSON document (schema "robustwdm-telemetry-v4"). Call
/// after worker threads have joined.
void write_json(std::ostream& out);
/// write_json to `path`; returns false (and keeps the data) on I/O failure.
bool write_file(const std::string& path);

/// Stage stopwatch for split timings (aux build vs. Suurballe vs. Liang–
/// Shen): one clock read per split, all of it skipped when disabled. The
/// sink parameter is a template so call sites compile unchanged when
/// telemetry is compiled out (WDM_TEL_HIST then yields a null sink).
class SplitTimer {
 public:
  SplitTimer() : on_(enabled()) {
    if (on_) first_ = last_ = now_ns();
  }
  bool on() const { return on_; }
  /// Records time since construction or the previous split.
  template <class Sink>
  void split(Sink& h) {
    if (on_) {
      const std::uint64_t t = now_ns();
      h.record_ns(t - last_);
      last_ = t;
    }
  }
  /// Records time since construction (independent of splits).
  template <class Sink>
  void total(Sink& h) const {
    if (on_) h.record_ns(now_ns() - first_);
  }

 private:
  bool on_;
  std::uint64_t first_ = 0;
  std::uint64_t last_ = 0;
};

}  // namespace wdm::support::telemetry

// Instrumentation macros. All of them cache registry handles in
// function-local statics, so the steady-state cost is the enabled() branch.
// That cache makes the name expression a one-shot: runtime-built names fold
// into the first-seen metric. The lambdas are deliberately *captureless* so
// names referencing locals fail to compile, and debug builds additionally
// verify (WDM_TEL_DEBUG_STATIC_NAME) that the name expression is stable —
// use WDM_TEL_COUNT_DYN for genuinely dynamic names.
#if ROBUSTWDM_TELEMETRY

#ifdef NDEBUG
#define WDM_TEL_DEBUG_STATIC_NAME(name) \
  do {                                  \
  } while (0)
#else
#define WDM_TEL_DEBUG_STATIC_NAME(name)                   \
  do {                                                    \
    static const std::string wdm_tel_name0(name);         \
    ::wdm::support::telemetry::detail::check_static_name( \
        wdm_tel_name0, (name));                           \
  } while (0)
#endif

/// Expression yielding the (static, interned) counter for `name`.
#define WDM_TEL_COUNTER(name)                                       \
  ([]() -> ::wdm::support::telemetry::Counter& {                    \
    static auto& wdm_tel_c = ::wdm::support::telemetry::counter(name); \
    WDM_TEL_DEBUG_STATIC_NAME(name);                                \
    return wdm_tel_c;                                               \
  }())

/// Expression yielding the (static, interned) histogram for `name`.
#define WDM_TEL_HIST(name)                                          \
  ([]() -> ::wdm::support::telemetry::LatencyHistogram& {           \
    static auto& wdm_tel_h = ::wdm::support::telemetry::histogram(name); \
    WDM_TEL_DEBUG_STATIC_NAME(name);                                \
    return wdm_tel_h;                                               \
  }())

#define WDM_TEL_COUNT_N(name, n)                                    \
  do {                                                              \
    if (::wdm::support::telemetry::enabled()) {                     \
      WDM_TEL_COUNTER(name).add(                                    \
          static_cast<std::uint64_t>(n));                           \
    }                                                               \
  } while (0)
#define WDM_TEL_COUNT(name) WDM_TEL_COUNT_N(name, 1)

/// Dynamic-name counter increment: resolves the registry entry on *every*
/// call (a mutex + map lookup), so each runtime-built name gets its own
/// counter. ~100x the cost of WDM_TEL_COUNT_N — use only off the hot path
/// (per-arm bench summaries, per-worker totals), and keep literal names on
/// the cached macros.
#define WDM_TEL_COUNT_DYN(name, n)                                  \
  do {                                                              \
    if (::wdm::support::telemetry::enabled()) {                     \
      ::wdm::support::telemetry::counter(name).add(                 \
          static_cast<std::uint64_t>(n));                           \
    }                                                               \
  } while (0)

#else  // !ROBUSTWDM_TELEMETRY — everything compiles away.

namespace wdm::support::telemetry::detail {
struct NullSink {
  void add(std::uint64_t = 1) {}
  void record_ns(std::uint64_t) {}
};
inline NullSink g_null_sink;
}  // namespace wdm::support::telemetry::detail

#define WDM_TEL_DEBUG_STATIC_NAME(name) \
  do {                                  \
  } while (0)
#define WDM_TEL_COUNTER(name) (::wdm::support::telemetry::detail::g_null_sink)
#define WDM_TEL_HIST(name) (::wdm::support::telemetry::detail::g_null_sink)
#define WDM_TEL_COUNT_N(name, n) \
  do {                           \
  } while (0)
#define WDM_TEL_COUNT(name) \
  do {                      \
  } while (0)
#define WDM_TEL_COUNT_DYN(name, n) \
  do {                             \
  } while (0)

#endif  // ROBUSTWDM_TELEMETRY
