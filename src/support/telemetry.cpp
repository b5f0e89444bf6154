#include "support/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>  // dup() for the fd-sink variant of start_stream

#if __has_include("robustwdm_buildinfo.hpp")
#include "robustwdm_buildinfo.hpp"
#else  // out-of-CMake compile (tooling, IDE): degrade gracefully.
#define ROBUSTWDM_GIT_DESCRIBE "unknown"
#define ROBUSTWDM_COMPILER "unknown"
#define ROBUSTWDM_BUILD_TYPE "unknown"
#define ROBUSTWDM_CXX_FLAGS ""
#endif

namespace wdm::support::telemetry {

#if ROBUSTWDM_TELEMETRY
namespace detail {
std::atomic<bool> g_enabled{false};
}
#endif

namespace {

/// Per-thread span/event ring buffer. Appends lock the buffer's own mutex
/// (uncontended except against a concurrent flush); the registry keeps the
/// buffer alive after the owning thread exits so nothing is lost. Overflow
/// overwrites the oldest record (flight-recorder semantics) and is counted —
/// per buffer and in the tel.dropped_* counters surfaced in the dump header.
struct ThreadBuffer {
  static constexpr std::size_t kMaxSpans = kMaxSpansPerThread;
  static constexpr std::size_t kMaxEvents = kMaxEventsPerThread;

  struct Event {
    std::uint32_t name;
    double t;
  };

  std::mutex mu;
  std::uint32_t thread_id = 0;
  std::string name;
  std::vector<SpanRecord> spans;
  std::size_t span_head = 0;  // ring cursor, meaningful once full
  std::vector<Event> events;
  std::size_t event_head = 0;
  std::uint64_t spans_dropped = 0;
  std::uint64_t events_dropped = 0;
};

/// Flight-recorder retention state: which request traces to keep at export
/// time. Updated only when a trace *root* span completes (per request, not
/// per span), under its own mutex — never nested with registry or buffer
/// locks.
struct Retention {
  std::mutex mu;
  std::size_t last_k = 0;
  std::size_t worst_k = 0;
  std::deque<TraceId> recent;  // trace ids by root completion order
  /// Min-heap on root duration so the smallest of the worst-K pops first.
  std::vector<std::pair<std::uint64_t, TraceId>> worst;

  static Retention& instance() {
    static Retention* r = new Retention;
    return *r;
  }
};

std::atomic<bool> g_retention_active{false};

struct Registry {
  std::mutex mu;
  // Stable addresses: handles cached at instrumentation sites must survive
  // rehashing, so values live in deques behind name maps.
  std::map<std::string, Counter*, std::less<>> counters;
  std::deque<Counter> counter_pool;
  std::map<std::string, LatencyHistogram*, std::less<>> histograms;
  std::deque<LatencyHistogram> histogram_pool;
  std::map<std::string, Gauge*, std::less<>> gauges;
  std::deque<Gauge> gauge_pool;
  std::map<std::string, Series*, std::less<>> series;
  std::deque<Series> series_pool;
  std::map<std::string, std::string> meta;
  std::map<std::string, std::uint32_t, std::less<>> name_ids;
  std::vector<std::string> names;  // id -> name
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_thread_id = 0;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();

  Registry() {
    // Build/run metadata baked into every dump (schema v2 `meta`), so
    // tools/teldiff can refuse apples-to-oranges comparisons. App-level keys
    // ("seed", "command") are added by the entry points via set_meta().
    meta["git"] = ROBUSTWDM_GIT_DESCRIBE;
    meta["compiler"] = ROBUSTWDM_COMPILER;
    meta["build_type"] = ROBUSTWDM_BUILD_TYPE;
    meta["cxx_flags"] = ROBUSTWDM_CXX_FLAGS;
    meta["telemetry_compiled"] = std::string(compiled_in() ? "1" : "0");
    meta["hardware_threads"] =
        std::to_string(std::thread::hardware_concurrency());
    const char* env = std::getenv("ROBUSTWDM_THREADS");
    meta["threads_env"] = std::string(env != nullptr ? env : "");
  }

  static Registry& instance() {
    static Registry* r = new Registry;  // leaked: handles outlive main()
    return *r;
  }
};

ThreadBuffer& thread_buffer() {
  thread_local ThreadBuffer* tb = [] {
    Registry& r = Registry::instance();
    std::lock_guard<std::mutex> lk(r.mu);
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    r.buffers.back()->thread_id = r.next_thread_id++;
    return r.buffers.back().get();
  }();
  return *tb;
}

void json_escape(std::ostream& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          out << c;
        }
    }
  }
}

/// A trace root finished: remember it for last-K / worst-K retention.
/// Deduplicates consecutive roots of the same trace (several parent-0 spans
/// of one request) against the most recent entry.
void note_trace_root(TraceId trace, std::uint64_t dur_ns) {
  if (!g_retention_active.load(std::memory_order_relaxed)) return;
  Retention& rt = Retention::instance();
  std::lock_guard<std::mutex> lk(rt.mu);
  if (rt.last_k > 0) {
    if (rt.recent.empty() || rt.recent.back() != trace) {
      rt.recent.push_back(trace);
      while (rt.recent.size() > rt.last_k) rt.recent.pop_front();
    }
  }
  if (rt.worst_k > 0) {
    const auto greater_dur = [](const std::pair<std::uint64_t, TraceId>& a,
                                const std::pair<std::uint64_t, TraceId>& b) {
      return a.first > b.first;
    };
    rt.worst.emplace_back(dur_ns, trace);
    std::push_heap(rt.worst.begin(), rt.worst.end(), greater_dur);
    while (rt.worst.size() > rt.worst_k) {
      std::pop_heap(rt.worst.begin(), rt.worst.end(), greater_dur);
      rt.worst.pop_back();
    }
  }
}

/// The trace ids an export keeps, or empty + false when retention is off.
std::pair<std::set<TraceId>, bool> retained_traces() {
  if (!g_retention_active.load(std::memory_order_relaxed)) return {{}, false};
  Retention& rt = Retention::instance();
  std::lock_guard<std::mutex> lk(rt.mu);
  std::set<TraceId> keep;
  keep.insert(rt.recent.begin(), rt.recent.end());
  for (const auto& [dur, id] : rt.worst) keep.insert(id);
  return {std::move(keep), true};
}

bool span_retained(const SpanRecord& s, const std::set<TraceId>& keep,
                   bool filter) {
  return !filter || s.trace == 0 || keep.count(s.trace) != 0;
}

/// Visits every buffered span in record order (oldest first, ring-aware).
template <class Fn>
void for_each_span(const ThreadBuffer& tb, Fn&& fn) {
  const std::size_t n = tb.spans.size();
  const bool wrapped = n == ThreadBuffer::kMaxSpans && tb.spans_dropped > 0;
  const std::size_t head = wrapped ? tb.span_head : 0;
  for (std::size_t i = 0; i < n; ++i) fn(tb.spans[(head + i) % n]);
}

template <class Fn>
void for_each_event(const ThreadBuffer& tb, Fn&& fn) {
  const std::size_t n = tb.events.size();
  const bool wrapped = n == ThreadBuffer::kMaxEvents && tb.events_dropped > 0;
  const std::size_t head = wrapped ? tb.event_head : 0;
  for (std::size_t i = 0; i < n; ++i) fn(tb.events[(head + i) % n]);
}

}  // namespace

void set_enabled(bool on) {
#if ROBUSTWDM_TELEMETRY
  detail::g_enabled.store(on, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

void LatencyHistogram::record_ns(std::uint64_t ns) {
  const int b =
      ns == 0 ? 0 : std::min(static_cast<int>(std::bit_width(ns)), kBuckets - 1);
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(ns, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (ns < cur &&
         !min_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (ns > cur &&
         !max_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[b].fetch_add(other.bucket_count(b), std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum_ns(), std::memory_order_relaxed);
  if (other.count() > 0) {
    std::uint64_t v = other.min_.load(std::memory_order_relaxed);
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    v = other.max_.load(std::memory_order_relaxed);
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
}

std::uint64_t LatencyHistogram::min_ns() const {
  return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::max_ns() const {
  return max_.load(std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::bucket_lo(int b) {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}

std::uint64_t LatencyHistogram::bucket_hi(int b) {
  return b == 0 ? 1
                : (b >= kBuckets - 1 ? ~std::uint64_t{0}
                                     : std::uint64_t{1} << b);
}

std::uint64_t LatencyHistogram::percentile_ns(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  std::uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    cum += bucket_count(b);
    if (cum >= target) {
      // Upper-bound estimate, clamped to the exact observed maximum: the true
      // quantile never exceeds max_ns(), and the topmost sample's bucket_hi
      // (as well as the saturating last bucket) would otherwise over-report.
      return b == kBuckets - 1 ? max_ns() : std::min(bucket_hi(b), max_ns());
    }
  }
  return max_ns();
}

void Series::add(double t, double v) {
  // Resolve the drop counter before taking mu_ (counter() locks the
  // registry; never nest registry and series locks).
  static Counter& dropped_points = counter("tel.dropped_points");
  std::lock_guard<std::mutex> lk(mu_);
  if (pts_.size() >= kMaxPoints) {
    ++dropped_;
    dropped_points.add();
    return;
  }
  pts_.emplace_back(t, v);
}

std::vector<std::pair<double, double>> Series::points() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pts_;
}

std::size_t Series::tail_into(std::size_t from,
                              std::vector<std::pair<double, double>>& out) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (from > pts_.size()) from = 0;  // series was reset() since the cursor
  out.insert(out.end(), pts_.begin() + static_cast<std::ptrdiff_t>(from),
             pts_.end());
  return pts_.size();
}

std::uint64_t Series::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

Counter& counter(std::string_view name) {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);
  const auto it = r.counters.find(name);
  if (it != r.counters.end()) return *it->second;
  r.counter_pool.emplace_back();
  Counter* c = &r.counter_pool.back();
  r.counters.emplace(std::string(name), c);
  return *c;
}

LatencyHistogram& histogram(std::string_view name) {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);
  const auto it = r.histograms.find(name);
  if (it != r.histograms.end()) return *it->second;
  r.histogram_pool.emplace_back();
  LatencyHistogram* h = &r.histogram_pool.back();
  r.histograms.emplace(std::string(name), h);
  return *h;
}

Gauge& gauge(std::string_view name) {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);
  const auto it = r.gauges.find(name);
  if (it != r.gauges.end()) return *it->second;
  r.gauge_pool.emplace_back();
  Gauge* g = &r.gauge_pool.back();
  r.gauges.emplace(std::string(name), g);
  return *g;
}

Series& series(std::string_view name) {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);
  const auto it = r.series.find(name);
  if (it != r.series.end()) return *it->second;
  r.series_pool.emplace_back();
  Series* s = &r.series_pool.back();
  r.series.emplace(std::string(name), s);
  return *s;
}

std::uint32_t intern(std::string_view name) {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);
  const auto it = r.name_ids.find(name);
  if (it != r.name_ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(r.names.size());
  r.names.emplace_back(name);
  r.name_ids.emplace(r.names.back(), id);
  return id;
}

std::map<std::string, std::uint64_t> counter_values() {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : r.counters) out.emplace(name, c->value());
  return out;
}

std::map<std::string, double> gauge_values() {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);
  std::map<std::string, double> out;
  for (const auto& [name, g] : r.gauges) out.emplace(name, g->value());
  return out;
}

std::map<std::string, std::vector<std::pair<double, double>>> series_values() {
  // Collect the handles under the registry lock, read each series under its
  // own lock (points() copies).
  std::vector<std::pair<std::string, Series*>> handles;
  {
    Registry& r = Registry::instance();
    std::lock_guard<std::mutex> lk(r.mu);
    for (const auto& [name, s] : r.series) handles.emplace_back(name, s);
  }
  std::map<std::string, std::vector<std::pair<double, double>>> out;
  for (auto& [name, s] : handles) out.emplace(name, s->points());
  return out;
}

void set_meta(std::string_view key, std::string_view value) {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);
  r.meta[std::string(key)] = std::string(value);
}

std::map<std::string, std::string> meta_values() {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.meta;
}

void set_thread_name(std::string_view name) {
  ThreadBuffer& tb = thread_buffer();
  std::lock_guard<std::mutex> lk(tb.mu);
  tb.name = std::string(name);
}

std::uint64_t now_ns() {
  const auto d = std::chrono::steady_clock::now() - Registry::instance().epoch;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

namespace detail {

RequestCtx& tls_ctx() {
  thread_local RequestCtx ctx;
  return ctx;
}

std::uint64_t new_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void check_static_name(const std::string& cached, std::string_view now) {
  if (cached == now) return;
  std::fprintf(
      stderr,
      "telemetry: a WDM_TEL_* static-handle macro was invoked with a "
      "runtime-varying name (first \"%s\", now \"%.*s\"); every call at this "
      "site folds into the first-seen metric. Use WDM_TEL_COUNT_DYN or the "
      "counter()/gauge()/histogram() functions for dynamic names.\n",
      cached.c_str(), static_cast<int>(now.size()), now.data());
  std::abort();
}

}  // namespace detail

RequestCtx current_ctx() { return detail::tls_ctx(); }

void set_trace_retention(std::size_t last_k, std::size_t worst_k) {
  Retention& rt = Retention::instance();
  std::lock_guard<std::mutex> lk(rt.mu);
  rt.last_k = last_k;
  rt.worst_k = worst_k;
  if (last_k == 0) rt.recent.clear();
  if (worst_k == 0) rt.worst.clear();
  g_retention_active.store(last_k > 0 || worst_k > 0,
                           std::memory_order_relaxed);
}

void record_span(const SpanRecord& s) {
  // Resolve the drop counter before taking tb.mu (counter() locks the
  // registry; flush locks registry-then-buffer, so never nest the other way).
  static Counter& dropped_spans = counter("tel.dropped_spans");
  if (s.trace != 0 && s.parent_id == 0) note_trace_root(s.trace, s.dur_ns);
  ThreadBuffer& tb = thread_buffer();
  std::lock_guard<std::mutex> lk(tb.mu);
  if (tb.spans.size() >= ThreadBuffer::kMaxSpans) {
    // Ring overwrite: keep the most recent spans, count the loss.
    tb.spans[tb.span_head] = s;
    tb.span_head = (tb.span_head + 1) % ThreadBuffer::kMaxSpans;
    ++tb.spans_dropped;
    dropped_spans.add();
    return;
  }
  tb.spans.push_back(s);
}

void record_span(std::uint32_t name_id, std::uint64_t start_ns,
                 std::uint64_t dur_ns) {
  const RequestCtx ctx = detail::tls_ctx();
  record_span({name_id, ctx.trace, detail::new_span_id(), ctx.parent_span,
               start_ns, dur_ns, 0, 0});
}

void record_event(std::uint32_t name_id, double t) {
  static Counter& dropped_events = counter("tel.dropped_events");
  ThreadBuffer& tb = thread_buffer();
  std::lock_guard<std::mutex> lk(tb.mu);
  if (tb.events.size() >= ThreadBuffer::kMaxEvents) {
    tb.events[tb.event_head] = {name_id, t};
    tb.event_head = (tb.event_head + 1) % ThreadBuffer::kMaxEvents;
    ++tb.events_dropped;
    dropped_events.add();
    return;
  }
  tb.events.push_back({name_id, t});
}

void reset() {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);
  for (Counter& c : r.counter_pool) {
    c.v_.store(0, std::memory_order_relaxed);
  }
  for (LatencyHistogram& h : r.histogram_pool) {
    for (auto& b : h.buckets_) b.store(0, std::memory_order_relaxed);
    h.count_.store(0, std::memory_order_relaxed);
    h.sum_.store(0, std::memory_order_relaxed);
    h.min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
    h.max_.store(0, std::memory_order_relaxed);
  }
  for (Gauge& g : r.gauge_pool) {
    g.bits_.store(std::bit_cast<std::uint64_t>(0.0),
                  std::memory_order_relaxed);
  }
  for (Series& s : r.series_pool) {
    std::lock_guard<std::mutex> slk(s.mu_);
    s.pts_.clear();
    s.dropped_ = 0;
  }
  for (auto& tb : r.buffers) {
    std::lock_guard<std::mutex> blk(tb->mu);
    tb->spans.clear();
    tb->span_head = 0;
    tb->events.clear();
    tb->event_head = 0;
    tb->spans_dropped = 0;
    tb->events_dropped = 0;
  }
  {
    Retention& rt = Retention::instance();
    std::lock_guard<std::mutex> rlk(rt.mu);
    rt.recent.clear();
    rt.worst.clear();
    rt.last_k = 0;
    rt.worst_k = 0;
    g_retention_active.store(false, std::memory_order_relaxed);
  }
}

std::vector<SpanSnapshot> span_snapshot() {
  const auto [keep, filter] = retained_traces();
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);
  std::vector<SpanSnapshot> out;
  for (const auto& tb : r.buffers) {
    std::lock_guard<std::mutex> blk(tb->mu);
    for_each_span(*tb, [&](const SpanRecord& s) {
      if (span_retained(s, keep, filter)) out.push_back({s, tb->thread_id});
    });
  }
  return out;
}

void write_json(std::ostream& out) {
  const auto [keep, filter] = retained_traces();
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);
  out.precision(std::numeric_limits<double>::max_digits10);

  // Gather drop totals first: the dump header surfaces them so truncated
  // data is visible without scrolling to the bottom.
  std::uint64_t spans_dropped = 0;
  std::uint64_t events_dropped = 0;
  for (const auto& tb : r.buffers) {
    std::lock_guard<std::mutex> blk(tb->mu);
    spans_dropped += tb->spans_dropped;
    events_dropped += tb->events_dropped;
  }
  std::uint64_t points_dropped = 0;
  for (const Series& s : r.series_pool) points_dropped += s.dropped();

  out << "{\n";
  out << "  \"schema\": \"robustwdm-telemetry-v2\",\n";
  out << "  \"compiled\": " << (compiled_in() ? "true" : "false") << ",\n";
  out << "  \"enabled\": " << (enabled() ? "true" : "false") << ",\n";
  out << "  \"dropped\": { \"spans\": " << spans_dropped
      << ", \"events\": " << events_dropped
      << ", \"points\": " << points_dropped << " },\n";

  out << "  \"meta\": {";
  bool first = true;
  for (const auto& [key, value] : r.meta) {
    out << (first ? "\n" : ",\n") << "    \"";
    json_escape(out, key);
    out << "\": \"";
    json_escape(out, value);
    out << "\"";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"counters\": {";
  first = true;
  for (const auto& [name, c] : r.counters) {
    out << (first ? "\n" : ",\n") << "    \"";
    json_escape(out, name);
    out << "\": " << c->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  // Non-finite gauge values (never produced by the in-tree instrumentation,
  // but set() takes any double) would not be valid JSON — skip them.
  out << "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : r.gauges) {
    const double v = g->value();
    if (!std::isfinite(v)) continue;
    out << (first ? "\n" : ",\n") << "    \"";
    json_escape(out, name);
    out << "\": " << v;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : r.histograms) {
    out << (first ? "\n" : ",\n") << "    \"";
    json_escape(out, name);
    out << "\": { \"unit\": \"ns\", \"count\": " << h->count()
        << ", \"sum\": " << h->sum_ns() << ", \"min\": " << h->min_ns()
        << ", \"max\": " << h->max_ns()
        << ", \"p50\": " << h->percentile_ns(0.50)
        << ", \"p90\": " << h->percentile_ns(0.90)
        << ", \"p99\": " << h->percentile_ns(0.99) << ", \"buckets\": [";
    bool bf = true;
    for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
      const std::uint64_t n = h->bucket_count(b);
      if (n == 0) continue;
      if (!bf) out << ", ";
      out << "{ \"lo\": " << LatencyHistogram::bucket_lo(b)
          << ", \"hi\": " << LatencyHistogram::bucket_hi(b)
          << ", \"count\": " << n << " }";
      bf = false;
    }
    out << "] }";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"series\": {";
  first = true;
  for (const auto& [name, s] : r.series) {
    out << (first ? "\n" : ",\n") << "    \"";
    json_escape(out, name);
    out << "\": { \"dropped\": " << s->dropped() << ", \"points\": [";
    bool pf = true;
    for (const auto& [t, v] : s->points()) {
      if (!pf) out << ", ";
      out << "[" << t << ", " << v << "]";
      pf = false;
    }
    out << "] }";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"spans\": [";
  first = true;
  for (const auto& tb : r.buffers) {
    std::lock_guard<std::mutex> blk(tb->mu);
    for_each_span(*tb, [&](const SpanRecord& s) {
      if (!span_retained(s, keep, filter)) return;
      out << (first ? "\n" : ",\n") << "    { \"name\": \"";
      json_escape(out, r.names[s.name]);
      out << "\", \"thread\": " << tb->thread_id << ", \"trace\": " << s.trace
          << ", \"span\": " << s.span_id << ", \"parent\": " << s.parent_id
          << ", \"flow_in\": " << s.flow_in << ", \"flow_out\": " << s.flow_out
          << ", \"start_ns\": " << s.start_ns << ", \"dur_ns\": " << s.dur_ns
          << " }";
      first = false;
    });
  }
  out << (first ? "" : "\n  ") << "],\n";

  out << "  \"events\": [";
  first = true;
  for (const auto& tb : r.buffers) {
    std::lock_guard<std::mutex> blk(tb->mu);
    for_each_event(*tb, [&](const ThreadBuffer::Event& e) {
      out << (first ? "\n" : ",\n") << "    { \"name\": \"";
      json_escape(out, r.names[e.name]);
      out << "\", \"thread\": " << tb->thread_id << ", \"t\": " << e.t << " }";
      first = false;
    });
  }
  out << (first ? "" : "\n  ") << "]\n";
  out << "}\n";
}

bool write_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  return out.good();
}

namespace {

/// Microsecond timestamp for Chrome trace events (fractional ns preserved).
double to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

}  // namespace

void write_chrome_trace(std::ostream& out) {
  const auto [keep, filter] = retained_traces();
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);
  out.precision(std::numeric_limits<double>::max_digits10);

  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };

  // Process + thread metadata: pid 1 is the wall-clock span timeline, pid 2
  // carries sim-time point events (a different clock; kept on a separate
  // "process" so Perfetto does not conflate the time bases).
  sep();
  out << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"robustwdm\"}}";
  sep();
  out << "{\"ph\": \"M\", \"pid\": 2, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"robustwdm sim-time\"}}";
  for (const auto& tb : r.buffers) {
    std::lock_guard<std::mutex> blk(tb->mu);
    sep();
    out << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << tb->thread_id
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \"";
    if (tb->name.empty()) {
      out << "thread-" << tb->thread_id;
    } else {
      json_escape(out, tb->name);
    }
    out << "\"}}";
  }

  for (const auto& tb : r.buffers) {
    std::lock_guard<std::mutex> blk(tb->mu);
    for_each_span(*tb, [&](const SpanRecord& s) {
      if (!span_retained(s, keep, filter)) return;
      sep();
      out << "{\"name\": \"";
      json_escape(out, r.names[s.name]);
      out << "\", \"cat\": \"span\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
          << tb->thread_id << ", \"ts\": " << to_us(s.start_ns)
          << ", \"dur\": " << to_us(s.dur_ns)
          << ", \"args\": {\"trace\": " << s.trace << ", \"span\": "
          << s.span_id << ", \"parent\": " << s.parent_id << "}}";
      // Flow arrows: the producer's "s" binds at this span's end, the
      // consumer's "f" (binding point "enclosing") at its start — drawn by
      // Perfetto as an arrow across the cross-thread handoff.
      if (s.flow_out != 0) {
        sep();
        out << "{\"name\": \"handoff\", \"cat\": \"flow\", \"ph\": \"s\", "
               "\"id\": "
            << s.flow_out << ", \"pid\": 1, \"tid\": " << tb->thread_id
            << ", \"ts\": " << to_us(s.start_ns + s.dur_ns) << "}";
      }
      if (s.flow_in != 0) {
        sep();
        out << "{\"name\": \"handoff\", \"cat\": \"flow\", \"ph\": \"f\", "
               "\"bp\": \"e\", \"id\": "
            << s.flow_in << ", \"pid\": 1, \"tid\": " << tb->thread_id
            << ", \"ts\": " << to_us(s.start_ns) << "}";
      }
    });
    for_each_event(*tb, [&](const ThreadBuffer::Event& e) {
      sep();
      // Sim time is unitless; export 1 sim-time unit == 1s (1e6 us) so the
      // series reads naturally at Perfetto's default zoom.
      out << "{\"name\": \"";
      json_escape(out, r.names[e.name]);
      out << "\", \"cat\": \"sim\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 2, "
             "\"tid\": "
          << tb->thread_id << ", \"ts\": " << e.t * 1e6 << "}";
    });
  }
  out << "\n]}\n";
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out);
  return out.good();
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.

namespace {

/// "rwa.aux_builder.conv_hits" -> "robustwdm_rwa_aux_builder_conv_hits": the
/// exposition grammar allows [a-zA-Z_:][a-zA-Z0-9_:]* so every other byte
/// folds to '_'.
std::string prom_name(std::string_view name) {
  std::string out = "robustwdm_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

void prom_label_escape(std::ostream& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '\\': out << "\\\\"; break;
      case '"': out << "\\\""; break;
      case '\n': out << "\\n"; break;
      default: out << c;
    }
  }
}

}  // namespace

void write_prometheus(std::ostream& out) {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);
  out.precision(std::numeric_limits<double>::max_digits10);

  // Build metadata as the conventional info-style constant gauge.
  out << "# TYPE robustwdm_build_info gauge\nrobustwdm_build_info{";
  bool first = true;
  for (const auto& [key, value] : r.meta) {
    if (!first) out << ",";
    out << prom_name(key).substr(sizeof("robustwdm_") - 1) << "=\"";
    prom_label_escape(out, value);
    out << "\"";
    first = false;
  }
  out << "} 1\n";

  for (const auto& [name, c] : r.counters) {
    const std::string p = prom_name(name);
    out << "# TYPE " << p << "_total counter\n"
        << p << "_total " << c->value() << "\n";
  }
  for (const auto& [name, g] : r.gauges) {
    const double v = g->value();
    if (!std::isfinite(v)) continue;
    const std::string p = prom_name(name);
    out << "# TYPE " << p << " gauge\n" << p << " " << v << "\n";
  }
  // Histograms keep their native nanosecond unit (suffix _ns, not doubled
  // when the registry name already carries it): buckets are cumulative
  // counts with `le` at the power-of-two upper bounds, plus the mandatory
  // +Inf bucket, _sum, and _count.
  for (const auto& [name, h] : r.histograms) {
    std::string p = prom_name(name);
    if (!p.ends_with("_ns")) p += "_ns";
    out << "# TYPE " << p << " histogram\n";
    std::uint64_t cum = 0;
    for (int b = 0; b < LatencyHistogram::kBuckets - 1; ++b) {
      const std::uint64_t n = h->bucket_count(b);
      if (n == 0) continue;
      cum += n;
      out << p << "_bucket{le=\"" << LatencyHistogram::bucket_hi(b) << "\"} "
          << cum << "\n";
    }
    out << p << "_bucket{le=\"+Inf\"} " << h->count() << "\n"
        << p << "_sum " << h->sum_ns() << "\n"
        << p << "_count " << h->count() << "\n";
  }
}

bool write_prometheus_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_prometheus(out);
  return out.good();
}

// ---------------------------------------------------------------------------
// SnapshotPublisher: the background streaming thread (DESIGN.md §8.5).

namespace {

/// Singleton state for the one allowed stream. `mu` serializes
/// start_stream/stop_stream; the capture thread itself never takes it (it
/// only takes the registry and cv locks), so stop can join under `mu`.
struct Publisher {
  std::mutex mu;
  std::thread th;
  std::FILE* sink = nullptr;
  bool active = false;

  std::mutex cv_mu;
  std::condition_variable cv;
  bool stop_requested = false;

  double interval_s = 1.0;
  std::uint64_t seq = 0;
  std::uint64_t frames_written = 0;
  std::uint64_t frames_dropped = 0;
  // Delta baseline: counter values at the previous frame (seeded at
  // start_stream, so frame 1 covers the first interval, not process
  // history), and per-series cursors into the points vector.
  std::map<std::string, std::uint64_t> prev_counters;
  std::map<std::string, std::size_t> series_cursor;
  // Resolved before the thread launches; add() is lock-free.
  Counter* c_frames = nullptr;
  Counter* c_dropped = nullptr;

  static Publisher& instance() {
    static Publisher* p = new Publisher;
    return *p;
  }
};

/// Serializes one JSONL frame. Interval frames carry counter *deltas*
/// (nonzero only, clamped at 0 so a mid-stream reset() never yields a
/// negative delta), every finite gauge, quantiles of nonempty histograms,
/// and the tail of each series past its cursor. The final frame is shaped so
/// its object is a valid teldiff root: cumulative counters, full histogram
/// stats, meta, and complete series.
std::string build_frame(Publisher& p, bool final_frame) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);

  ++p.seq;
  os << "{\"schema\": \"robustwdm-telemetry-stream-v1\", \"kind\": \""
     << (final_frame ? "final" : "interval") << "\", \"seq\": " << p.seq
     << ", \"t_ns\": " << now_ns();

  if (final_frame) {
    std::uint64_t spans_dropped = 0;
    std::uint64_t events_dropped = 0;
    for (const auto& tb : r.buffers) {
      std::lock_guard<std::mutex> blk(tb->mu);
      spans_dropped += tb->spans_dropped;
      events_dropped += tb->events_dropped;
    }
    std::uint64_t points_dropped = 0;
    for (const Series& s : r.series_pool) points_dropped += s.dropped();
    os << ", \"frames\": " << p.frames_written
       << ", \"dropped_frames\": " << p.frames_dropped
       << ", \"dropped\": {\"spans\": " << spans_dropped
       << ", \"events\": " << events_dropped
       << ", \"points\": " << points_dropped << "}";
    os << ", \"meta\": {";
    bool first = true;
    for (const auto& [key, value] : r.meta) {
      if (!first) os << ", ";
      os << "\"";
      json_escape(os, key);
      os << "\": \"";
      json_escape(os, value);
      os << "\"";
      first = false;
    }
    os << "}";
  }

  os << ", \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : r.counters) {
    const std::uint64_t cur = c->value();
    std::uint64_t emit = cur;
    if (!final_frame) {
      auto [it, inserted] = p.prev_counters.try_emplace(name, 0);
      const std::uint64_t prev = it->second;
      emit = cur >= prev ? cur - prev : 0;  // clamp across a reset()
      it->second = cur;
      if (emit == 0) continue;
    }
    if (!first) os << ", ";
    os << "\"";
    json_escape(os, name);
    os << "\": " << emit;
    first = false;
  }
  os << "}";

  os << ", \"gauges\": {";
  first = true;
  for (const auto& [name, g] : r.gauges) {
    const double v = g->value();
    if (!std::isfinite(v)) continue;
    if (!first) os << ", ";
    os << "\"";
    json_escape(os, name);
    os << "\": " << v;
    first = false;
  }
  os << "}";

  os << ", \"histograms\": {";
  first = true;
  for (const auto& [name, h] : r.histograms) {
    if (h->count() == 0) continue;
    if (!first) os << ", ";
    os << "\"";
    json_escape(os, name);
    os << "\": {";
    if (final_frame) {
      os << "\"unit\": \"ns\", ";
    }
    os << "\"count\": " << h->count();
    if (final_frame) {
      os << ", \"sum\": " << h->sum_ns() << ", \"min\": " << h->min_ns()
         << ", \"max\": " << h->max_ns();
    }
    os << ", \"p50\": " << h->percentile_ns(0.50)
       << ", \"p90\": " << h->percentile_ns(0.90)
       << ", \"p99\": " << h->percentile_ns(0.99) << "}";
    first = false;
  }
  os << "}";

  // Series tails (registry -> series lock order, same as write_json). An
  // interval frame carries at most kMaxTailPoints per series: a bench that
  // samples tens of thousands of points per interval would otherwise make
  // every frame hundreds of KB and the serialization cost alone would blow
  // the E23 overhead bar. Skipped points are not lost — the cursor jumps
  // over them and the final frame re-emits every series in full; live
  // tailers (wdmtop) only render the newest samples anyway.
  constexpr std::size_t kMaxTailPoints = 64;
  std::vector<std::pair<double, double>> tail;
  os << ", \"series\": {";
  first = true;
  for (const auto& [name, s] : r.series) {
    std::size_t& cursor = p.series_cursor[name];
    tail.clear();
    // tail_into treats a cursor past the end (series reset() mid-stream) as
    // 0, matching the reset handling the cursor map needs anyway.
    cursor = s->tail_into(final_frame ? 0 : cursor, tail);
    if (!final_frame && tail.size() > kMaxTailPoints) {
      tail.erase(tail.begin(),
                 tail.end() - static_cast<std::ptrdiff_t>(kMaxTailPoints));
    }
    if (!final_frame && tail.empty()) continue;
    if (!first) os << ", ";
    os << "\"";
    json_escape(os, name);
    os << "\": ";
    if (final_frame) os << "{\"dropped\": " << s->dropped() << ", \"points\": ";
    os << "[";
    for (std::size_t i = 0; i < tail.size(); ++i) {
      if (i != 0) os << ", ";
      os << "[" << tail[i].first << ", " << tail[i].second << "]";
    }
    os << "]";
    if (final_frame) os << "}";
    first = false;
  }
  os << "}}\n";
  return os.str();
}

/// Builds + appends one frame; a failed or short write is a dropped frame
/// (counted, never blocked on or retried).
void publish_frame(Publisher& p, bool final_frame) {
  const std::string line = build_frame(p, final_frame);
  const bool ok =
      std::fwrite(line.data(), 1, line.size(), p.sink) == line.size() &&
      std::fflush(p.sink) == 0;
  if (ok) {
    ++p.frames_written;
    if (p.c_frames != nullptr) p.c_frames->add();
  } else {
    ++p.frames_dropped;
    if (p.c_dropped != nullptr) p.c_dropped->add();
  }
}

void publisher_loop(Publisher* p) {
  set_thread_name("telemetry-stream");
  std::unique_lock<std::mutex> lk(p->cv_mu);
  while (!p->stop_requested) {
    const auto wake = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::duration<double>(p->interval_s));
    p->cv.wait_until(lk, wake, [&] { return p->stop_requested; });
    if (p->stop_requested) break;
    lk.unlock();
    publish_frame(*p, /*final_frame=*/false);
    lk.lock();
  }
}

}  // namespace

bool start_stream(const StreamOptions& opt) {
  if (!compiled_in()) return false;
  if (opt.interval_s <= 0.0) return false;
  if (opt.path.empty() && opt.fd < 0) return false;
  Publisher& p = Publisher::instance();
  std::lock_guard<std::mutex> lk(p.mu);
  if (p.active) return false;

  std::FILE* sink = nullptr;
  if (opt.fd >= 0) {
    // dup() so fclose() at stop never closes the caller's descriptor.
    const int fd = ::dup(opt.fd);
    if (fd >= 0) sink = ::fdopen(fd, "w");
  } else {
    sink = std::fopen(opt.path.c_str(), "w");
  }
  if (sink == nullptr) return false;

  set_enabled(true);  // a stream of zeros helps nobody
  p.sink = sink;
  p.interval_s = opt.interval_s;
  p.seq = 0;
  p.frames_written = 0;
  p.frames_dropped = 0;
  p.c_frames = &counter("tel.stream.frames");
  p.c_dropped = &counter("tel.stream.dropped_frames");
  // Seed the delta baseline so frame 1 covers [start, start+interval), not
  // process history (the final frame is cumulative regardless).
  p.prev_counters = counter_values();
  p.series_cursor.clear();
  for (const auto& [name, pts] : series_values()) {
    p.series_cursor[name] = pts.size();
  }
  p.stop_requested = false;
  p.active = true;
  p.th = std::thread(publisher_loop, &p);
  return true;
}

void stop_stream() {
  Publisher& p = Publisher::instance();
  std::lock_guard<std::mutex> lk(p.mu);
  if (!p.active) return;
  {
    std::lock_guard<std::mutex> clk(p.cv_mu);
    p.stop_requested = true;
  }
  p.cv.notify_all();
  p.th.join();
  publish_frame(p, /*final_frame=*/true);
  std::fclose(p.sink);
  p.sink = nullptr;
  p.prev_counters.clear();
  p.series_cursor.clear();
  p.active = false;
}

bool stream_active() {
  Publisher& p = Publisher::instance();
  std::lock_guard<std::mutex> lk(p.mu);
  return p.active;
}

}  // namespace wdm::support::telemetry
