// teldiff — compares two robustwdm-telemetry-v4 dumps and exits nonzero on
// regression, the perf gate CI runs against committed baseline dumps
// (DESIGN.md §8). A baseline holds only the names its gate compares.
//
//   teldiff [options] <baseline.json> <candidate.json>
//
// Options:
//   --rel R           relative threshold for counter deltas (default 0.05)
//   --quantile-rel R  relative threshold for histogram p50/p90/p99
//                     *increases* (default 1.0 — one power-of-two bucket;
//                     shifts within a single bucket are quantization noise)
//                     Both take a finite number >= 0, nothing else.
//   --only PREFIX     compare only names starting with PREFIX (repeatable;
//                     applies to counters and histograms)
//   --ignore PREFIX   skip names starting with PREFIX (repeatable)
//   --ignore-meta     skip the metadata compatibility check (needed when
//                     diffing dumps from different machines, e.g. CI vs. a
//                     committed baseline)
//   -v                also print every compared value, not just violations
//
// Comparison model:
//   * counters fire on relative change in EITHER direction — the counters
//     worth gating on are deterministic work measures (requests routed,
//     cache hits), where any drift means the behavior changed;
//   * histogram quantiles fire only on increases (getting faster is fine),
//     with a default threshold of one bucket because the power-of-two
//     buckets quantize to 2x steps;
//   * metadata must be apples-to-apples: dumps disagreeing on compiler,
//     build type, flags, telemetry compile mode, thread environment, or
//     seed are refused (exit 4) unless --ignore-meta. `git` is exempt —
//     comparing across commits is the whole point.
//
// Exit codes: 0 = within thresholds, 1 = regression, 2 = usage or I/O
// error (a run that compares no value at all is one: a mistyped --only
// must not switch a gate off), 3 = schema error, 4 = metadata mismatch.
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json_mini.hpp"

namespace {

using wdm::tools::json::Json;
using wdm::tools::json::JsonPtr;
using wdm::tools::json::Parser;

struct Options {
  double rel = 0.05;
  double quantile_rel = 1.0;
  std::vector<std::string> only;
  std::vector<std::string> ignore;
  bool ignore_meta = false;
  bool verbose = false;
  std::string baseline;
  std::string candidate;
};

/// A threshold: a finite number >= 0 spelled out in full, or exit 2.
double parse_threshold(const std::string& flag, const char* text) {
  double v = 0.0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0.0) {
    std::fprintf(stderr,
                 "teldiff: %s takes a finite number >= 0, got \"%s\"\n",
                 flag.c_str(), text);
    std::exit(2);
  }
  return v;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool name_selected(const Options& opt, const std::string& name) {
  for (const std::string& p : opt.ignore) {
    if (starts_with(name, p)) return false;
  }
  if (opt.only.empty()) return true;
  for (const std::string& p : opt.only) {
    if (starts_with(name, p)) return true;
  }
  return false;
}

/// The v4 sections teldiff reads: meta, counters and histograms objects,
/// every histogram with a numeric count and quantiles.
bool has_skeleton(const Json& root) {
  for (const char* k : {"meta", "counters", "histograms"}) {
    const JsonPtr* sec = root.find(k);
    if (sec == nullptr || !(*sec)->is(Json::Type::kObject)) return false;
  }
  for (const auto& [name, h] : (*root.find("histograms"))->obj) {
    for (const char* k : {"count", "p50", "p90", "p99"}) {
      const JsonPtr* v = h->find(k);
      if (v == nullptr || !(*v)->is(Json::Type::kNumber)) return false;
    }
  }
  return true;
}

JsonPtr load(const std::string& path, int* exit_code) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "teldiff: cannot open %s\n", path.c_str());
    *exit_code = 2;
    return nullptr;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();
  try {
    JsonPtr root = Parser(doc).parse();
    if (!root->is(Json::Type::kObject)) throw std::runtime_error("not an object");
    const JsonPtr* schema = root->find("schema");
    if (schema == nullptr || (*schema)->str != "robustwdm-telemetry-v4" ||
        !has_skeleton(*root)) {
      std::fprintf(stderr,
                   "teldiff: %s: not a robustwdm-telemetry-v4 dump (re-record "
                   "older dumps)\n",
                   path.c_str());
      *exit_code = 3;
      return nullptr;
    }
    return root;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "teldiff: %s: %s\n", path.c_str(), e.what());
    *exit_code = 3;
    return nullptr;
  }
}

std::map<std::string, double> counters_of(const Json& root) {
  std::map<std::string, double> out;
  for (const auto& [name, v] : (*root.find("counters"))->obj) {
    if (v->is(Json::Type::kNumber)) out.emplace(name, v->num);
  }
  return out;
}

/// name -> (p50, p90, p99) for every non-empty histogram.
std::map<std::string, std::array<double, 3>> quantiles_of(const Json& root) {
  std::map<std::string, std::array<double, 3>> out;
  for (const auto& [name, v] : (*root.find("histograms"))->obj) {
    const auto num = [&](const char* k) { return (*v->find(k))->num; };
    if (num("count") == 0.0) continue;
    out.emplace(name,
                std::array<double, 3>{num("p50"), num("p90"), num("p99")});
  }
  return out;
}

/// Meta keys that must agree for a comparison to be meaningful. `git` is
/// deliberately absent: diffing across commits is the tool's purpose.
constexpr const char* kMetaGate[] = {
    "compiler", "build_type",       "cxx_flags",
    "telemetry_compiled", "seed", "hardware_threads",
};

int check_meta(const Json& base, const Json& cand) {
  const Json& bm = **base.find("meta");
  const Json& cm = **cand.find("meta");
  int mismatches = 0;
  for (const char* key : kMetaGate) {
    const JsonPtr* bv = bm.find(key);
    const JsonPtr* cv = cm.find(key);
    if (bv == nullptr || cv == nullptr) continue;  // absent on a side: pass
    if (!(*bv)->is(Json::Type::kString) || !(*cv)->is(Json::Type::kString)) {
      continue;
    }
    if ((*bv)->str != (*cv)->str) {
      std::fprintf(stderr,
                   "teldiff: meta mismatch on \"%s\": baseline \"%s\" vs "
                   "candidate \"%s\"\n",
                   key, (*bv)->str.c_str(), (*cv)->str.c_str());
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "teldiff: refusing apples-to-oranges comparison (%d meta "
                 "mismatch(es)); pass --ignore-meta to override\n",
                 mismatches);
    return 4;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "teldiff: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--rel") {
      opt.rel = parse_threshold(a, next());
    } else if (a == "--quantile-rel") {
      opt.quantile_rel = parse_threshold(a, next());
    } else if (a == "--only") {
      opt.only.emplace_back(next());
    } else if (a == "--ignore") {
      opt.ignore.emplace_back(next());
    } else if (a == "--ignore-meta") {
      opt.ignore_meta = true;
    } else if (a == "-v" || a == "--verbose") {
      opt.verbose = true;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "teldiff: unknown option %s\n", a.c_str());
      return 2;
    } else {
      positional.push_back(a);
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: teldiff [--rel R] [--quantile-rel R] [--only PREFIX]"
                 " [--ignore PREFIX] [--ignore-meta] [-v]"
                 " <baseline.json> <candidate.json>\n");
    return 2;
  }
  opt.baseline = positional[0];
  opt.candidate = positional[1];

  int exit_code = 0;
  const JsonPtr base = load(opt.baseline, &exit_code);
  if (base == nullptr) return exit_code;
  const JsonPtr cand = load(opt.candidate, &exit_code);
  if (cand == nullptr) return exit_code;

  if (!opt.ignore_meta) {
    const int rc = check_meta(*base, *cand);
    if (rc != 0) return rc;
  }

  int regressions = 0;
  int compared = 0;

  // Counters: relative change in either direction.
  const auto bc = counters_of(*base);
  const auto cc = counters_of(*cand);
  for (const auto& [name, bv] : bc) {
    if (!name_selected(opt, name)) continue;
    const auto it = cc.find(name);
    const double cv = it != cc.end() ? it->second : 0.0;
    if (it == cc.end() && bv == 0.0) continue;
    ++compared;
    const double rel = std::fabs(cv - bv) / std::max(bv, 1.0);
    const bool bad = rel > opt.rel;
    if (bad || opt.verbose) {
      std::printf("%s counter %-44s %14.0f -> %14.0f (%+.2f%%)\n",
                  bad ? "FAIL" : "  ok", name.c_str(), bv, cv, 100.0 * rel);
    }
    if (bad) ++regressions;
  }
  if (opt.verbose) {
    for (const auto& [name, cv] : cc) {
      if (name_selected(opt, name) && bc.find(name) == bc.end()) {
        std::printf(" new counter %-44s %30.0f\n", name.c_str(), cv);
      }
    }
  }

  // Histogram quantiles: increases only.
  const auto bq = quantiles_of(*base);
  const auto cq = quantiles_of(*cand);
  static constexpr const char* kQNames[3] = {"p50", "p90", "p99"};
  for (const auto& [name, bvals] : bq) {
    if (!name_selected(opt, name)) continue;
    const auto it = cq.find(name);
    if (it == cq.end()) continue;  // absent or empty in the candidate
    for (int q = 0; q < 3; ++q) {
      const double bv = bvals[q];
      const double cv = it->second[q];
      ++compared;
      const double rel = (cv - bv) / std::max(bv, 1.0);  // signed: slower > 0
      const bool bad = rel > opt.quantile_rel;
      if (bad || opt.verbose) {
        std::printf("%s %s %-40s %14.0f -> %14.0f ns (%+.2f%%)\n",
                    bad ? "FAIL" : "  ok", kQNames[q], name.c_str(), bv, cv,
                    100.0 * rel);
      }
      if (bad) ++regressions;
    }
  }

  std::printf(
      "teldiff: %d value(s) compared, %d regression(s) (--rel %.3g, "
      "--quantile-rel %.3g)\n",
      compared, regressions, opt.rel, opt.quantile_rel);
  if (compared == 0) {
    std::fprintf(stderr,
                 "teldiff: compared nothing: no baseline value passes the "
                 "--only/--ignore selection\n");
    return 2;
  }
  return regressions > 0 ? 1 : 0;
}
