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
#include <mutex>
#include <ostream>
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
}

void write_json(std::ostream& out) {
  Registry& r = Registry::instance();
  std::lock_guard<std::mutex> lk(r.mu);
  out.precision(std::numeric_limits<double>::max_digits10);

  // The dump header surfaces the drop total so truncated series are visible
  // without scrolling to the bottom.
  std::uint64_t points_dropped = 0;
  for (const Series& s : r.series_pool) points_dropped += s.dropped();

  out << "{\n";
  out << "  \"schema\": \"robustwdm-telemetry-v4\",\n";
  out << "  \"compiled\": " << (compiled_in() ? "true" : "false") << ",\n";
  out << "  \"enabled\": " << (enabled() ? "true" : "false") << ",\n";
  out << "  \"dropped\": { \"points\": " << points_dropped << " },\n";

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
  out << (first ? "" : "\n  ") << "}\n";
  out << "}\n";
}

bool write_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  return out.good();
}

}  // namespace wdm::support::telemetry
