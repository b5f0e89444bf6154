#include "support/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
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
#include <thread>
#include <vector>

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
    // Build/run metadata baked into every dump (the `meta` section), so
    // tools/teldiff can refuse apples-to-oranges comparisons. App-level keys
    // ("seed", "command") are added by the entry points via set_meta().
    meta["git"] = ROBUSTWDM_GIT_DESCRIBE;
    meta["compiler"] = ROBUSTWDM_COMPILER;
    meta["build_type"] = ROBUSTWDM_BUILD_TYPE;
    meta["cxx_flags"] = ROBUSTWDM_CXX_FLAGS;
    meta["telemetry_compiled"] = std::string(compiled_in() ? "1" : "0");
    meta["hardware_threads"] =
        std::to_string(std::thread::hardware_concurrency());
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

/// The calling thread's open spans: the trace they belong to and the
/// innermost one, which new spans attach to. Only ScopedSpan moves it.
struct SpanChain {
  TraceId trace = 0;
  std::uint64_t parent = 0;
};
thread_local SpanChain t_chain;

/// Process-unique span id (relaxed atomic increment; never 0).
std::uint64_t new_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
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

std::uint64_t now_ns() {
  const auto d = std::chrono::steady_clock::now() - Registry::instance().epoch;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

namespace detail {

void check_static_name(const std::string& cached, std::string_view now) {
  if (cached == now) return;
  std::fprintf(
      stderr,
      "telemetry: a WDM_TEL_* static-handle macro was invoked with a "
      "runtime-varying name (first \"%s\", now \"%.*s\"); every call at this "
      "site folds into the first-seen metric. Use WDM_TEL_COUNT_DYN or the "
      "counter()/histogram() functions for dynamic names.\n",
      cached.c_str(), static_cast<int>(now.size()), now.data());
  std::abort();
}

}  // namespace detail

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
  record_span({name_id, t_chain.trace, new_span_id(), t_chain.parent,
               start_ns, dur_ns});
}

#if ROBUSTWDM_TELEMETRY
void ScopedSpan::open(TraceId trace, bool root) {
  t0_ = now_ns();
  id_ = new_span_id();
  outer_trace_ = t_chain.trace;
  outer_parent_ = t_chain.parent;
  trace_ = root ? trace : t_chain.trace;
  parent_ = root ? 0 : t_chain.parent;
  t_chain = {trace_, id_};
}

void ScopedSpan::close() {
  t_chain = {outer_trace_, outer_parent_};
  record_span({name_, trace_, id_, parent_, t0_, now_ns() - t0_});
}
#endif

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
  out << "  \"schema\": \"robustwdm-telemetry-v3\",\n";
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
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \"thread-"
        << tb->thread_id << "\"}}";
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

}  // namespace wdm::support::telemetry
