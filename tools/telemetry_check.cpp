// telemetry_check — validates a telemetry dump against the one schema the
// library writes, "robustwdm-telemetry-v4" (DESIGN.md §8). Dumps of an older
// schema are refused: re-record them.
//
//   telemetry_check out.json        # exit 0 iff the file conforms
//
// Uses the shared ~150-line recursive-descent parser (json_mini.hpp) so the
// check has no dependencies and is honest: it parses the actual bytes, not a
// mental model of them. Validated beyond well-formedness:
//   * top-level sections: exactly the ones the writer emits
//     (schema/compiled/enabled/dropped/meta/counters/histograms/series),
//     with the right types; any other section is refused;
//   * counters: object of non-negative integers;
//   * histograms: unit == "ns", count == sum of bucket counts, min <= max
//     when count > 0, buckets have lo < hi and non-negative counts,
//     p50 <= p90 <= p99 <= max;
//   * series: objects of {dropped, points: [[t, v], ...]} with
//     non-decreasing t per series;
//   * meta: object of strings, required build-provenance keys present;
//   * dropped: the series points count.
#include <cstdint>
#include <cstdio>
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

void check_histogram(const std::string& name, const Json& h) {
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

// The sections telemetry::write_json emits, every one of them always; a
// dump with any other top-level section (an older schema's spans, events or
// gauges) is refused.
const std::set<std::string> kSections = {
    "schema", "compiled", "enabled",    "dropped",
    "meta",   "counters", "histograms", "series"};

int check(const Json& root) {
  if (!root.is(Json::Type::kObject)) {
    problem("top level is not an object");
    return g_errors;
  }
  for (const auto& [key, v] : root.obj) {
    if (kSections.count(key) == 0) problem("unknown top-level section " + key);
  }
  const Json* schema = need(root, "schema", Json::Type::kString, "top level");
  if (schema != nullptr && schema->str != "robustwdm-telemetry-v4") {
    problem("schema is \"" + schema->str +
            "\", expected robustwdm-telemetry-v4 (re-record older dumps)");
  }
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

  const Json* hists =
      need(root, "histograms", Json::Type::kObject, "top level");
  if (hists != nullptr) {
    for (const auto& [name, v] : hists->obj) {
      if (!v->is(Json::Type::kObject)) {
        problem("histogram \"" + name + "\" is not an object");
        continue;
      }
      check_histogram(name, *v);
    }
  }

  const Json* meta = need(root, "meta", Json::Type::kObject, "top level");
  if (meta != nullptr) {
    for (const auto& [key, v] : meta->obj) {
      if (!v->is(Json::Type::kString)) {
        problem("meta \"" + key + "\" is not a string");
      }
    }
    for (const char* k : {"git", "compiler", "build_type",
                          "telemetry_compiled", "hardware_threads"}) {
      need(*meta, k, Json::Type::kString, "meta");
    }
  }

  const Json* series = need(root, "series", Json::Type::kObject, "top level");
  if (series != nullptr) {
    for (const auto& [name, v] : series->obj) {
      if (!v->is(Json::Type::kObject)) {
        problem("series \"" + name + "\" is not an object");
        continue;
      }
      check_series(name, *v);
    }
  }

  const Json* dropped =
      need(root, "dropped", Json::Type::kObject, "top level");
  if (dropped != nullptr) {
    const Json* v = need(*dropped, "points", Json::Type::kNumber, "dropped");
    if (v != nullptr && !is_nonneg_int(*v)) {
      problem("dropped.points is not a count");
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
