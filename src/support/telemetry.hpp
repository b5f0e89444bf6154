// Structured telemetry: named monotonic counters, log-spaced latency
// histograms, request-lifecycle span tracing, point events, and sampled time
// series, flushed to a single JSON file per run (schema
// "robustwdm-telemetry-v3", documented in DESIGN.md §8 and validated by
// tools/telemetry_check; v1 and v2 dumps remain readable by the checker).
// Span data can additionally be exported in Chrome trace-event format
// (write_chrome_trace), loadable by Perfetto / chrome://tracing, with
// per-thread tracks. Output is end-of-run only (DESIGN.md §8.5).
//
// Cost contract (enforced by E18/E19 / CI):
//   * compiled out (-DROBUSTWDM_TELEMETRY=OFF): every macro below expands to
//     nothing and `enabled()` is a constant false, so guarded blocks are
//     dead code — zero instructions on the hot paths;
//   * compiled in but disabled (the default at runtime): one relaxed atomic
//     load + branch per instrumentation site, <2% on bench_policies;
//   * enabled: counters are relaxed atomic adds on interned handles (no
//     lookups on the hot path — handles are cached in function-local
//     statics), histograms one clock read + one atomic add, spans/events go
//     to bounded thread-local ring buffers and are only serialized at flush
//     time.
//
// Determinism: counter values are a pure function of the work performed.
// Counters under `sim.*` (and time series under `sim.series.*`) count
// committed simulator outcomes and are identical for identical seeds
// (tests/test_telemetry.cpp pins golden values). Series under
// `rwa.series.*` read router cache state, and all histogram/span timings
// depend on the host; neither is replay-stable.
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

/// Zeroes every counter/histogram/series and drops all spans/events.
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

/// Interns an event/span name; the id is what the hot-path record calls
/// take. Same caching advice as counter().
std::uint32_t intern(std::string_view name);

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

// ---------------------------------------------------------------------------
// Request-lifecycle tracing.

/// Identifies one request's causally-linked span tree across pipeline
/// stages. 0 = untraced. The simulator assigns ids deterministically (the
/// offered-request ordinal), so a given seed always yields the same trace
/// ids.
using TraceId = std::uint64_t;

namespace detail {
/// Debug backstop for the static-handle macros (WDM_TEL_COUNTER/HIST
/// and everything built on them): the name is evaluated once and cached in a
/// function-local static, so a *runtime-built* name silently folds every
/// subsequent call into the first-seen metric. In debug builds the macros
/// re-evaluate the name expression and call this; on mismatch it prints both
/// names and aborts, pointing at WDM_TEL_COUNT_DYN. Compiled away in NDEBUG.
void check_static_name(const std::string& cached, std::string_view now);
}  // namespace detail

/// A completed span. `span_id` is process-unique; `parent_id` is 0 for trace
/// roots.
struct SpanRecord {
  std::uint32_t name = 0;
  TraceId trace = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Per-thread ring-buffer capacity for spans and for events. Past this,
/// recording overwrites the oldest entry (flight-recorder semantics) and the
/// overflow is counted per thread and in the tel.dropped_* counters.
inline constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 18;
inline constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 18;

/// Records a completed span into this thread's ring buffer. Overflow
/// overwrites the oldest span (flight-recorder semantics) and increments
/// both the per-thread drop count and the `tel.dropped_spans` counter
/// surfaced in the dump header.
void record_span(const SpanRecord& s);

/// Convenience: span [start_ns, start_ns + dur_ns) attached under the
/// calling thread's innermost open ScopedSpan (fresh span id).
void record_span(std::uint32_t name_id, std::uint64_t start_ns,
                 std::uint64_t dur_ns);

/// Records a timestamped point event. `t` is caller-defined time (the
/// simulator passes *simulation* time, which keeps event streams
/// deterministic for a fixed seed).
void record_event(std::uint32_t name_id, double t);

/// Flight-recorder trace retention: when either bound is nonzero, JSON and
/// Chrome exports keep only spans belonging to the last `last_k` started
/// traces, the `worst_k` highest-root-latency traces, and untraced spans.
/// Record-time buffers are rings regardless, so long runs stay bounded.
void set_trace_retention(std::size_t last_k, std::size_t worst_k);

/// All buffered spans (flushed across threads, retention-filtered), with the
/// owning thread id. For tests and exporters, not hot paths.
struct SpanSnapshot {
  SpanRecord span;
  std::uint32_t thread = 0;
};
std::vector<SpanSnapshot> span_snapshot();

/// Writes the full JSON document (schema "robustwdm-telemetry-v3"); flushes
/// all thread buffers. Call after worker threads have joined.
void write_json(std::ostream& out);
/// write_json to `path`; returns false (and keeps the data) on I/O failure.
bool write_file(const std::string& path);

/// Writes the span/event data as a Chrome trace-event JSON document
/// (Perfetto-loadable): spans as "X" slices on per-thread tracks (pid 1) and
/// sim-time point events as instants under a separate clock (pid 2).
void write_chrome_trace(std::ostream& out);
bool write_chrome_trace_file(const std::string& path);

// ---------------------------------------------------------------------------
// RAII helpers (compiled-in versions; no-op twins live in the #else branch).

#if ROBUSTWDM_TELEMETRY

/// RAII span: records [ctor, dtor) into the thread buffer when enabled. Each
/// thread keeps a private chain of its open spans, so nested spans attach to
/// the innermost one and inherit its trace. The chain is per thread because
/// sim::replicate runs one simulator per OpenMP thread.
class ScopedSpan {
 public:
  /// A child of the calling thread's innermost open span (untraced when
  /// none is open).
  explicit ScopedSpan(std::uint32_t name_id)
      : on_(enabled()), name_(name_id) {
    if (on_) open(0, false);
  }
  /// The root of trace `trace` (parent 0): every span this thread opens
  /// before the root closes joins `trace`.
  ScopedSpan(std::uint32_t name_id, TraceId trace)
      : on_(enabled()), name_(name_id) {
    if (on_) open(trace, true);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (on_) close();
  }

 private:
  void open(TraceId trace, bool root);
  void close();

  bool on_;
  std::uint32_t name_;
  TraceId trace_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t t0_ = 0;
  // The thread's chain as it was before this span opened; close() restores
  // it (a root replaces the trace, not just the parent).
  TraceId outer_trace_ = 0;
  std::uint64_t outer_parent_ = 0;
};

#else  // !ROBUSTWDM_TELEMETRY — inert twin so call sites compile unchanged.

class ScopedSpan {
 public:
  explicit ScopedSpan(std::uint32_t) {}
  ScopedSpan(std::uint32_t, TraceId) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

#endif  // ROBUSTWDM_TELEMETRY

/// Stage stopwatch for split timings (aux build vs. Suurballe vs. Liang–
/// Shen): one clock read per split, all of it skipped when disabled. The
/// sink parameter is a template so call sites compile unchanged when
/// telemetry is compiled out (WDM_TEL_HIST then yields a null sink). Passing
/// an interned `span_name` (WDM_TEL_NAME) additionally records the stage as
/// a span under the calling thread's innermost open span.
class SplitTimer {
 public:
  SplitTimer() : on_(enabled()) {
    if (on_) first_ = last_ = now_ns();
  }
  bool on() const { return on_; }
  /// Records time since construction or the previous split.
  template <class Sink>
  void split(Sink& h, std::uint32_t span_name = 0) {
    if (on_) {
      const std::uint64_t t = now_ns();
      h.record_ns(t - last_);
      if (span_name != 0) record_span(span_name, last_, t - last_);
      last_ = t;
    }
  }
  /// Records time since construction (independent of splits).
  template <class Sink>
  void total(Sink& h, std::uint32_t span_name = 0) const {
    if (on_) {
      const std::uint64_t t = now_ns();
      h.record_ns(t - first_);
      if (span_name != 0) record_span(span_name, first_, t - first_);
    }
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

/// Expression yielding the (static) interned id for a span/event `name`.
#define WDM_TEL_NAME(name)                                          \
  ([]() -> std::uint32_t {                                          \
    static const std::uint32_t wdm_tel_n =                          \
        ::wdm::support::telemetry::intern(name);                    \
    return wdm_tel_n;                                               \
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

/// Point event with caller-defined timestamp (e.g. simulation time).
#define WDM_TEL_EVENT(name, t)                                      \
  do {                                                              \
    if (::wdm::support::telemetry::enabled()) {                     \
      static const std::uint32_t wdm_tel_e =                        \
          ::wdm::support::telemetry::intern(name);                  \
      ::wdm::support::telemetry::record_event(wdm_tel_e, (t));      \
    }                                                               \
  } while (0)

/// RAII wall-clock span named `name` for the rest of the scope.
#define WDM_TEL_SPAN(var, name)                                     \
  static const std::uint32_t wdm_tel_span_id_##var =                \
      ::wdm::support::telemetry::intern(name);                      \
  ::wdm::support::telemetry::ScopedSpan var(wdm_tel_span_id_##var)

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
#define WDM_TEL_NAME(name) (std::uint32_t{0})
#define WDM_TEL_COUNT_N(name, n) \
  do {                           \
  } while (0)
#define WDM_TEL_COUNT(name) \
  do {                      \
  } while (0)
#define WDM_TEL_COUNT_DYN(name, n) \
  do {                             \
  } while (0)
#define WDM_TEL_EVENT(name, t) \
  do {                         \
  } while (0)
#define WDM_TEL_SPAN(var, name) \
  [[maybe_unused]] ::wdm::support::telemetry::ScopedSpan var(0u)

#endif  // ROBUSTWDM_TELEMETRY
