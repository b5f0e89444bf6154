// telemetry_check — validates a telemetry dump against the documented
// schemas (DESIGN.md §8): "robustwdm-telemetry-v1",
// "robustwdm-telemetry-v2" (tracing + series + metadata),
// "robustwdm-telemetry-v3" (v2 without the span flow keys) and
// "robustwdm-telemetry-v4" (v3 without spans and events), the one the
// library writes. v1-v3 dumps come from older builds and stay readable.
//
//   telemetry_check out.json        # exit 0 iff the file conforms
//
// Uses the shared ~150-line recursive-descent parser (json_mini.hpp) so the
// check has no dependencies and is honest: it parses the actual bytes, not a
// mental model of them. Validated beyond well-formedness:
//   * top-level keys: schema/compiled/enabled/counters/histograms/dropped
//     (+ spans/events up to v3, + meta/series from v2), with the right
//     types; a v4 dump carrying spans or events is refused;
//   * counters: object of non-negative integers;
//   * gauges (optional, older dumps only): object of numbers;
//   * histograms: unit == "ns", count == sum of bucket counts, min <= max
//     when count > 0, buckets have lo < hi and non-negative counts; v2 adds
//     p50 <= p90 <= p99 <= max;
//   * spans: name (string) + thread/start_ns/dur_ns (non-negative numbers);
//     v2 adds trace/span/parent ids, span != 0, and parent links that
//     resolve within the dump (or 0 for roots); v2 also requires the flow
//     ids, which v3 must not carry;
//   * events: name (string) + thread (number) + t (number);
//   * series (v2): objects of {dropped, points: [[t, v], ...]} with
//     non-decreasing t per series;
//   * meta (v2): object of strings, required build-provenance keys present;
//   * dropped: spans/events counts up to v3, points from v2.
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "json_mini.hpp"

namespace {

using wdm::tools::json::Json;
using wdm::tools::json::JsonPtr;
using wdm::tools::json::Parser;

int g_errors = 0;

void problem(const std::string& what) {
  std::fprintf(stderr, "telemetry_check: %s\n", what.c_str());
  ++g_errors;
}

bool is_nonneg_int(const Json& v) {
  return v.is(Json::Type::kNumber) && v.num >= 0.0 &&
         v.num == static_cast<double>(static_cast<std::uint64_t>(v.num));
}

const Json* need(const Json& obj, const char* key, Json::Type type,
                 const char* where) {
  const JsonPtr* p = obj.find(key);
  if (p == nullptr) {
    problem(std::string(where) + ": missing key \"" + key + "\"");
    return nullptr;
  }
  if (!(*p)->is(type)) {
    problem(std::string(where) + ": key \"" + key + "\" has the wrong type");
    return nullptr;
  }
  return p->get();
}

void check_histogram(const std::string& name, const Json& h, bool v2) {
  const std::string where = "histogram \"" + name + "\"";
  const Json* unit = need(h, "unit", Json::Type::kString, where.c_str());
  if (unit != nullptr && unit->str != "ns") problem(where + ": unit != ns");
  const Json* count = need(h, "count", Json::Type::kNumber, where.c_str());
  const Json* sum = need(h, "sum", Json::Type::kNumber, where.c_str());
  const Json* min = need(h, "min", Json::Type::kNumber, where.c_str());
  const Json* max = need(h, "max", Json::Type::kNumber, where.c_str());
  const Json* buckets = need(h, "buckets", Json::Type::kArray, where.c_str());
  for (const Json* v : {count, sum, min, max}) {
    if (v != nullptr && !is_nonneg_int(*v)) {
      problem(where + ": negative or non-integer stat");
    }
  }
  if (count != nullptr && min != nullptr && max != nullptr && count->num > 0 &&
      min->num > max->num) {
    problem(where + ": min > max on a non-empty histogram");
  }
  if (v2) {
    // Quantiles are upper-bound estimates (power-of-two buckets), clamped to
    // the observed max; they must be monotone in q and bounded by max.
    const Json* p50 = need(h, "p50", Json::Type::kNumber, where.c_str());
    const Json* p90 = need(h, "p90", Json::Type::kNumber, where.c_str());
    const Json* p99 = need(h, "p99", Json::Type::kNumber, where.c_str());
    if (p50 != nullptr && p90 != nullptr && p99 != nullptr && max != nullptr &&
        count != nullptr && count->num > 0) {
      if (!(p50->num <= p90->num && p90->num <= p99->num)) {
        problem(where + ": quantiles are not monotone");
      }
      if (p99->num > max->num) problem(where + ": p99 > max");
    }
  }
  if (buckets == nullptr) return;
  double bucket_total = 0.0;
  for (const JsonPtr& bp : buckets->arr) {
    if (!bp->is(Json::Type::kObject)) {
      problem(where + ": bucket is not an object");
      continue;
    }
    const Json* lo = need(*bp, "lo", Json::Type::kNumber, where.c_str());
    const Json* hi = need(*bp, "hi", Json::Type::kNumber, where.c_str());
    const Json* n = need(*bp, "count", Json::Type::kNumber, where.c_str());
    if (lo != nullptr && hi != nullptr && lo->num >= hi->num) {
      problem(where + ": bucket with lo >= hi");
    }
    if (n != nullptr) {
      if (!is_nonneg_int(*n)) problem(where + ": bad bucket count");
      bucket_total += n->num;
    }
  }
  if (count != nullptr && bucket_total != count->num) {
    problem(where + ": bucket counts do not sum to count");
  }
}

void check_series(const std::string& name, const Json& s) {
  const std::string where = "series \"" + name + "\"";
  const Json* dropped = need(s, "dropped", Json::Type::kNumber, where.c_str());
  if (dropped != nullptr && !is_nonneg_int(*dropped)) {
    problem(where + ": dropped is not a count");
  }
  const Json* points = need(s, "points", Json::Type::kArray, where.c_str());
  if (points == nullptr) return;
  double prev_t = -1e300;
  for (const JsonPtr& pp : points->arr) {
    if (!pp->is(Json::Type::kArray) || pp->arr.size() != 2 ||
        !pp->arr[0]->is(Json::Type::kNumber) ||
        !pp->arr[1]->is(Json::Type::kNumber)) {
      problem(where + ": point is not a [t, v] number pair");
      continue;
    }
    const double t = pp->arr[0]->num;
    if (t < prev_t) problem(where + ": sample times go backwards");
    prev_t = t;
  }
}

int check(const Json& root) {
  if (!root.is(Json::Type::kObject)) {
    problem("top level is not an object");
    return g_errors;
  }
  const Json* schema = need(root, "schema", Json::Type::kString, "top level");
  int version = 0;
  for (int v = 1; v <= 4 && schema != nullptr; ++v) {
    if (schema->str == "robustwdm-telemetry-v" + std::to_string(v)) version = v;
  }
  if (schema != nullptr && version == 0) {
    problem("schema is \"" + schema->str +
            "\", expected robustwdm-telemetry-v1, -v2, -v3 or -v4");
  }
  const bool v2 = version >= 2;  // series and metadata (and span ids to v3)
  const bool v3 = version >= 3;  // the span flow keys are gone
  const bool v4 = version >= 4;  // spans and events are gone
  need(root, "compiled", Json::Type::kBool, "top level");
  need(root, "enabled", Json::Type::kBool, "top level");

  const Json* counters =
      need(root, "counters", Json::Type::kObject, "top level");
  if (counters != nullptr) {
    for (const auto& [name, v] : counters->obj) {
      if (!is_nonneg_int(*v)) {
        problem("counter \"" + name + "\" is not a non-negative integer");
      }
    }
  }

  // Gauges appear only in older v2/v3 dumps (the writer no longer emits
  // them), so the section is optional; when present it must be an object of
  // plain numbers.
  const JsonPtr* gauges = root.find("gauges");
  if (gauges != nullptr) {
    if (!(*gauges)->is(Json::Type::kObject)) {
      problem("gauges is not an object");
    } else {
      for (const auto& [name, v] : (*gauges)->obj) {
        if (!v->is(Json::Type::kNumber)) {
          problem("gauge \"" + name + "\" is not a number");
        }
      }
    }
  }

  const Json* hists =
      need(root, "histograms", Json::Type::kObject, "top level");
  if (hists != nullptr) {
    for (const auto& [name, v] : hists->obj) {
      if (!v->is(Json::Type::kObject)) {
        problem("histogram \"" + name + "\" is not an object");
        continue;
      }
      check_histogram(name, *v, v2);
    }
  }

  if (v4) {
    for (const char* k : {"spans", "events"}) {
      if (root.find(k) != nullptr) {
        problem(std::string("v4 dump carries the v3-only section ") + k);
      }
    }
  }
  const Json* spans =
      v4 ? nullptr : need(root, "spans", Json::Type::kArray, "top level");
  if (spans != nullptr) {
    // v2: collect span ids first so parent links can be resolved.
    std::set<std::uint64_t> ids;
    if (v2) {
      for (const JsonPtr& sp : spans->arr) {
        if (!sp->is(Json::Type::kObject)) continue;
        const JsonPtr* id = sp->find("span");
        if (id != nullptr && is_nonneg_int(**id)) {
          ids.insert(static_cast<std::uint64_t>((*id)->num));
        }
      }
    }
    for (const JsonPtr& sp : spans->arr) {
      if (!sp->is(Json::Type::kObject)) {
        problem("span is not an object");
        continue;
      }
      need(*sp, "name", Json::Type::kString, "span");
      for (const char* k : {"thread", "start_ns", "dur_ns"}) {
        const Json* v = need(*sp, k, Json::Type::kNumber, "span");
        if (v != nullptr && !is_nonneg_int(*v)) {
          problem(std::string("span ") + k + " is negative or fractional");
        }
      }
      if (!v2) continue;
      const auto need_id = [&](const char* k) {
        const Json* v = need(*sp, k, Json::Type::kNumber, "span");
        if (v != nullptr && !is_nonneg_int(*v)) {
          problem(std::string("span ") + k + " is negative or fractional");
        }
      };
      for (const char* k : {"trace", "span", "parent"}) need_id(k);
      // The flow-arrow keys are v2 only.
      for (const char* k : {"flow_in", "flow_out"}) {
        if (!v3) {
          need_id(k);
        } else if (sp->find(k) != nullptr) {
          problem(std::string("v3 span carries the v2-only key ") + k);
        }
      }
      const JsonPtr* id = sp->find("span");
      if (id != nullptr && (*id)->num == 0.0) problem("span id is 0");
      const JsonPtr* parent = sp->find("parent");
      if (parent != nullptr && (*parent)->is(Json::Type::kNumber) &&
          (*parent)->num != 0.0 &&
          ids.count(static_cast<std::uint64_t>((*parent)->num)) == 0) {
        // A parent may legitimately be missing when the ring buffer wrapped
        // or retention filtered; only flag when nothing at all was dropped.
        const JsonPtr* dr = root.find("dropped");
        const bool lossy =
            dr != nullptr && (*dr)->is(Json::Type::kObject) &&
            [&] {
              const JsonPtr* ds = (*dr)->find("spans");
              return ds != nullptr && (*ds)->num > 0.0;
            }();
        if (!lossy) problem("span parent id does not resolve in the dump");
      }
    }
  }

  const Json* events =
      v4 ? nullptr : need(root, "events", Json::Type::kArray, "top level");
  if (events != nullptr) {
    for (const JsonPtr& ep : events->arr) {
      if (!ep->is(Json::Type::kObject)) {
        problem("event is not an object");
        continue;
      }
      need(*ep, "name", Json::Type::kString, "event");
      need(*ep, "thread", Json::Type::kNumber, "event");
      need(*ep, "t", Json::Type::kNumber, "event");
    }
  }

  if (v2) {
    const Json* meta = need(root, "meta", Json::Type::kObject, "top level");
    if (meta != nullptr) {
      for (const auto& [key, v] : meta->obj) {
        if (!v->is(Json::Type::kString)) {
          problem("meta \"" + key + "\" is not a string");
        }
      }
      for (const char* k :
           {"git", "compiler", "build_type", "telemetry_compiled",
            "hardware_threads"}) {
        need(*meta, k, Json::Type::kString, "meta");
      }
    }
    const Json* series =
        need(root, "series", Json::Type::kObject, "top level");
    if (series != nullptr) {
      for (const auto& [name, v] : series->obj) {
        if (!v->is(Json::Type::kObject)) {
          problem("series \"" + name + "\" is not an object");
          continue;
        }
        check_series(name, *v);
      }
    }
  }

  const Json* dropped =
      need(root, "dropped", Json::Type::kObject, "top level");
  if (dropped != nullptr) {
    for (const char* k : {"spans", "events"}) {
      const Json* v =
          v4 ? nullptr : need(*dropped, k, Json::Type::kNumber, "dropped");
      if (v != nullptr && !is_nonneg_int(*v)) {
        problem(std::string("dropped.") + k + " is not a count");
      }
    }
    if (v2) {
      const Json* v = need(*dropped, "points", Json::Type::kNumber, "dropped");
      if (v != nullptr && !is_nonneg_int(*v)) {
        problem("dropped.points is not a count");
      }
    }
  }
  return g_errors;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: telemetry_check <telemetry.json>\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "telemetry_check: cannot open %s\n", argv[1]);
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();

  JsonPtr root;
  try {
    root = Parser(doc).parse();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "telemetry_check: %s: %s\n", argv[1], e.what());
    return 1;
  }
  const int errors = check(*root);
  if (errors != 0) {
    std::fprintf(stderr, "telemetry_check: %s: %d schema violation(s)\n",
                 argv[1], errors);
    return 1;
  }
  const JsonPtr* schema = root->find("schema");
  std::printf("telemetry_check: %s conforms to %s\n", argv[1],
              schema != nullptr ? (*schema)->str.c_str() : "?");
  return 0;
}
