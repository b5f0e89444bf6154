// Structured telemetry: named monotonic counters, log-spaced latency
// histograms, request-lifecycle span tracing, point events, and sampled time
// series, flushed to a single JSON file per run (schema
// "robustwdm-telemetry-v2", documented in DESIGN.md §8 and validated by
// tools/telemetry_check; v1 dumps remain readable by the checker). Span data
// can additionally be exported in Chrome trace-event format
// (write_chrome_trace), loadable by Perfetto / chrome://tracing, with
// per-thread tracks and flow arrows across cross-thread handoffs.
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
#include <bit>
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
/// shared across threads and merging is an elementwise add.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void record_ns(std::uint64_t ns);
  void merge(const LatencyHistogram& other);

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

/// Named gauge: a *current-value* metric (queue depth, cache occupancy,
/// live-connection count, a rate) with set/add semantics — unlike Counter it
/// is not monotone and may go down or negative. The value is a double stored
/// as its bit pattern in one relaxed atomic, so set() is a single store and
/// concurrent readers (the SnapshotPublisher, write_json) never see a torn
/// value. Obtain through gauge() once and cache the reference (the
/// WDM_TEL_GAUGE_* macros below do this with function-local statics).
class Gauge {
 public:
  void set(double v) {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }
  void add(double delta) {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        cur, std::bit_cast<std::uint64_t>(std::bit_cast<double>(cur) + delta),
        std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  friend void reset();
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
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
  /// Appends points [from, size) to `out` and returns the current size —
  /// the SnapshotPublisher's cursored tail read, which avoids copying the
  /// whole (possibly 2^16-point) vector once per frame.
  std::size_t tail_into(std::size_t from,
                        std::vector<std::pair<double, double>>& out) const;
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
Gauge& gauge(std::string_view name);
LatencyHistogram& histogram(std::string_view name);
Series& series(std::string_view name);

/// Interns an event/span name; the id is what the hot-path record calls
/// take. Same caching advice as counter().
std::uint32_t intern(std::string_view name);

/// Snapshot of every registered counter (name -> value). For tests and
/// report generation, not hot paths.
std::map<std::string, std::uint64_t> counter_values();

/// Snapshot of every registered gauge (name -> value). Tests/reports only.
std::map<std::string, double> gauge_values();

/// Snapshot of every registered series (name -> points). Tests/reports only.
std::map<std::string, std::vector<std::pair<double, double>>> series_values();

/// Run metadata attached to every dump (schema v2 `meta` section): build
/// info (git describe, compiler, flags) is populated automatically; apps add
/// run-scoped keys ("seed", "command", ...). tools/teldiff refuses
/// apples-to-oranges comparisons based on these keys.
void set_meta(std::string_view key, std::string_view value);
std::map<std::string, std::string> meta_values();

/// Names the calling thread for the Chrome trace export's per-thread tracks
/// (e.g. "telemetry-stream"). Unnamed threads show as "thread-<id>".
void set_thread_name(std::string_view name);

/// Monotonic nanoseconds since the registry epoch (first telemetry call).
std::uint64_t now_ns();

// ---------------------------------------------------------------------------
// Request-lifecycle tracing.

/// Identifies one request's causally-linked span tree across threads and
/// pipeline stages. 0 = untraced. The simulator assigns ids deterministically
/// (the offered-request ordinal), so a given seed always yields the same
/// trace ids.
using TraceId = std::uint64_t;

/// The ambient trace context: which request the current thread is working
/// for, and the span that any new span should attach to as a child.
struct RequestCtx {
  TraceId trace = 0;
  std::uint64_t parent_span = 0;
};

namespace detail {
/// This thread's active context (mutated by TraceScope / ScopedSpan).
RequestCtx& tls_ctx();
/// Process-unique span id (relaxed atomic increment; never 0).
std::uint64_t new_span_id();
/// Debug backstop for the static-handle macros (WDM_TEL_COUNTER/HIST/GAUGE
/// and everything built on them): the name is evaluated once and cached in a
/// function-local static, so a *runtime-built* name silently folds every
/// subsequent call into the first-seen metric. In debug builds the macros
/// re-evaluate the name expression and call this; on mismatch it prints both
/// names and aborts, pointing at WDM_TEL_COUNT_DYN. Compiled away in NDEBUG.
void check_static_name(const std::string& cached, std::string_view now);
}  // namespace detail

/// Reads the calling thread's active request context.
RequestCtx current_ctx();

/// A completed span. `span_id` is process-unique; `parent_id` is 0 for trace
/// roots; `flow_in`/`flow_out` carry Chrome trace flow-arrow bindings across
/// threads (0 = none). No span in the tree sets them today; the fields stay
/// because the v2 dump schema (and telemetry_check) carry the keys.
struct SpanRecord {
  std::uint32_t name = 0;
  TraceId trace = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t flow_in = 0;
  std::uint64_t flow_out = 0;
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
/// calling thread's current context (fresh span id, no flows).
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

/// Writes the full JSON document (schema "robustwdm-telemetry-v2"); flushes
/// all thread buffers. Call after worker threads have joined.
void write_json(std::ostream& out);
/// write_json to `path`; returns false (and keeps the data) on I/O failure.
bool write_file(const std::string& path);

/// Writes the span/event data as a Chrome trace-event JSON document
/// (Perfetto-loadable): spans as "X" slices on per-thread tracks (pid 1),
/// flow arrows ("s"/"f") for spans that bind a flow id, and
/// sim-time point events as instants under a separate clock (pid 2).
void write_chrome_trace(std::ostream& out);
bool write_chrome_trace_file(const std::string& path);

/// Writes every counter, gauge, and histogram in Prometheus text exposition
/// format (metric names are prefixed "robustwdm_" with non-identifier
/// characters folded to '_'; histograms export cumulative power-of-two
/// buckets plus _sum/_count). A future `wdmd` daemon serves this verbatim
/// from a /metrics handler; `wdmtool --prom out.prom` and the benches dump
/// it at exit for scrape-file ingestion.
void write_prometheus(std::ostream& out);
bool write_prometheus_file(const std::string& path);

// ---------------------------------------------------------------------------
// Live streaming (SnapshotPublisher).

/// Configuration for the background snapshot publisher: where the JSONL
/// stream goes and how often a frame is captured. Exactly one of `path`
/// (truncated on start) or `fd` (an already-open descriptor, e.g. a pipe to
/// a collector; never closed by the publisher) selects the sink.
struct StreamOptions {
  std::string path;
  int fd = -1;
  double interval_s = 1.0;  // wall-clock capture stride, > 0
};

/// Starts the background SnapshotPublisher: a thread that, every
/// `interval_s` of wall time, captures a coherent *delta* frame — counter
/// increments since the previous frame, current gauge values, histogram
/// quantiles, and the tail of every time series — and appends it to the
/// sink as one JSONL record (schema "robustwdm-telemetry-stream-v1",
/// DESIGN.md §8.5). Frames that fail to write are dropped and counted
/// (tel.stream.dropped_frames + the final frame), never blocked on.
/// Enables collection (set_enabled(true)) as a side effect — a stream of
/// zeros helps nobody. Returns false (and starts nothing) when a stream is
/// already active, the sink cannot be opened, interval_s <= 0, or telemetry
/// is compiled out.
bool start_stream(const StreamOptions& opt);

/// Stops the publisher: joins the thread, then appends one *final* frame
/// ("kind": "final") carrying cumulative counters, gauges, full histogram
/// stats, run metadata, and drop totals — the frame tools/teldiff gates on.
/// Idempotent; no-op when no stream is active.
void stop_stream();

/// True while a publisher thread is running.
bool stream_active();

/// RAII wrapper: entry points hold one so the final frame is flushed on
/// every exit path, including exception unwind (tested in
/// tests/test_stream.cpp). The default constructor is inert.
class StreamScope {
 public:
  StreamScope() = default;
  explicit StreamScope(const StreamOptions& opt) { start_stream(opt); }
  StreamScope(const StreamScope&) = delete;
  StreamScope& operator=(const StreamScope&) = delete;
  ~StreamScope() { stop_stream(); }
};

// ---------------------------------------------------------------------------
// RAII helpers (compiled-in versions; no-op twins live in the #else branch).

#if ROBUSTWDM_TELEMETRY

/// RAII: makes `ctx` the calling thread's request context (restores the
/// previous one on destruction). The simulator activates the request's ctx
/// around each route-on-arrival call so the router's spans join the
/// request's tree.
class TraceScope {
 public:
  explicit TraceScope(RequestCtx ctx) {
    if (enabled()) {
      RequestCtx& cur = detail::tls_ctx();
      saved_ = cur;
      cur = ctx;
      active_ = true;
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope() {
    if (active_) detail::tls_ctx() = saved_;
  }

 private:
  bool active_ = false;
  RequestCtx saved_;
};

/// RAII span: records [ctor, dtor) into the thread buffer when enabled, as a
/// child of the ambient context; nested spans chain automatically.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::uint32_t name_id) : on_(enabled()), name_(name_id) {
    if (on_) {
      t0_ = now_ns();
      id_ = detail::new_span_id();
      RequestCtx& ctx = detail::tls_ctx();
      trace_ = ctx.trace;
      parent_ = ctx.parent_span;
      ctx.parent_span = id_;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (on_) {
      detail::tls_ctx().parent_span = parent_;
      record_span({name_, trace_, id_, parent_, t0_, now_ns() - t0_, flow_in_,
                   flow_out_});
    }
  }

  /// 0 when telemetry is disabled — flow_*(0) means "no arrow".
  std::uint64_t span_id() const { return id_; }
  void flow_in(std::uint64_t id) { flow_in_ = id; }
  void flow_out(std::uint64_t id) { flow_out_ = id; }

 private:
  bool on_;
  std::uint32_t name_;
  TraceId trace_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t t0_ = 0;
  std::uint64_t flow_in_ = 0;
  std::uint64_t flow_out_ = 0;
};

#else  // !ROBUSTWDM_TELEMETRY — inert twins so call sites compile unchanged.

class TraceScope {
 public:
  explicit TraceScope(RequestCtx) {}
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(std::uint32_t) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t span_id() const { return 0; }
  void flow_in(std::uint64_t) {}
  void flow_out(std::uint64_t) {}
};

#endif  // ROBUSTWDM_TELEMETRY

/// Stage stopwatch for split timings (aux build vs. Suurballe vs. Liang–
/// Shen): one clock read per split, all of it skipped when disabled. The
/// sink parameter is a template so call sites compile unchanged when
/// telemetry is compiled out (WDM_TEL_HIST then yields a null sink). Passing
/// an interned `span_name` (WDM_TEL_NAME) additionally records the stage as
/// a span under the ambient request context.
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

/// Expression yielding the (static, interned) gauge for `name`.
#define WDM_TEL_GAUGE(name)                                         \
  ([]() -> ::wdm::support::telemetry::Gauge& {                      \
    static auto& wdm_tel_g = ::wdm::support::telemetry::gauge(name); \
    WDM_TEL_DEBUG_STATIC_NAME(name);                                \
    return wdm_tel_g;                                               \
  }())

#define WDM_TEL_GAUGE_SET(name, v)                                  \
  do {                                                              \
    if (::wdm::support::telemetry::enabled()) {                     \
      WDM_TEL_GAUGE(name).set(static_cast<double>(v));              \
    }                                                               \
  } while (0)

#define WDM_TEL_GAUGE_ADD(name, d)                                  \
  do {                                                              \
    if (::wdm::support::telemetry::enabled()) {                     \
      WDM_TEL_GAUGE(name).add(static_cast<double>(d));              \
    }                                                               \
  } while (0)

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

/// RAII wall-clock span named `name` for the rest of the scope. `var` is a
/// ScopedSpan: call var.flow_in/flow_out/span_id for flow arrows.
#define WDM_TEL_SPAN(var, name)                                     \
  static const std::uint32_t wdm_tel_span_id_##var =                \
      ::wdm::support::telemetry::intern(name);                      \
  ::wdm::support::telemetry::ScopedSpan var(wdm_tel_span_id_##var)

#else  // !ROBUSTWDM_TELEMETRY — everything compiles away.

namespace wdm::support::telemetry::detail {
struct NullSink {
  void add(std::uint64_t = 1) {}
  void record_ns(std::uint64_t) {}
  void set(double) {}
};
inline NullSink g_null_sink;
}  // namespace wdm::support::telemetry::detail

#define WDM_TEL_DEBUG_STATIC_NAME(name) \
  do {                                  \
  } while (0)
#define WDM_TEL_COUNTER(name) (::wdm::support::telemetry::detail::g_null_sink)
#define WDM_TEL_HIST(name) (::wdm::support::telemetry::detail::g_null_sink)
#define WDM_TEL_GAUGE(name) (::wdm::support::telemetry::detail::g_null_sink)
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
#define WDM_TEL_GAUGE_SET(name, v) \
  do {                             \
  } while (0)
#define WDM_TEL_GAUGE_ADD(name, d) \
  do {                             \
  } while (0)
#define WDM_TEL_EVENT(name, t) \
  do {                         \
  } while (0)
#define WDM_TEL_SPAN(var, name) \
  [[maybe_unused]] ::wdm::support::telemetry::ScopedSpan var(0u)

#endif  // ROBUSTWDM_TELEMETRY
