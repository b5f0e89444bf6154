// Shared scaffolding for the experiment harness: banner printing, the
// --quick flag that shrinks replication for smoke runs, the --out record
// path (record_path) and the opt-in --telemetry dump (TelemetryScope).
#pragma once

#include <cstdio>
#include <cstring>
#include <string>

#include "support/table.hpp"
#include "support/telemetry.hpp"

namespace wdm::bench {

inline bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

/// Where a bench writes its JSON record: the last `--out <path>`, else
/// `full_default` for a full run. A --quick run without --out writes none
/// (empty path), so a smoke run never overwrites a committed full-run
/// record.
inline std::string record_path(int argc, char** argv, bool quick,
                               const char* full_default) {
  std::string path = quick ? "" : full_default;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) path = argv[i + 1];
  }
  return path;
}

/// Opt-in telemetry for benches: `--telemetry out.json` enables the runtime
/// gate for the whole run and dumps the registry on scope exit (end of
/// main). Without the flag — or when compiled out — this is inert.
class TelemetryScope {
 public:
  TelemetryScope(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--telemetry") == 0) path_ = argv[i + 1];
    }
    if (!path_.empty()) {
      support::telemetry::set_enabled(true);
      std::string cmd;
      for (int i = 0; i < argc; ++i) {
        if (i > 0) cmd += ' ';
        cmd += argv[i];
      }
      support::telemetry::set_meta("command", cmd);
    }
  }
  ~TelemetryScope() {
    if (!path_.empty()) {
      if (support::telemetry::write_file(path_)) {
        std::printf("telemetry: wrote %s\n", path_.c_str());
      } else {
        std::fprintf(stderr, "telemetry: failed to write %s\n", path_.c_str());
      }
    }
  }
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  std::string path_;
};

inline void banner(const std::string& experiment, const std::string& claim) {
  std::printf("==== %s ====\n%s\n\n", experiment.c_str(), claim.c_str());
}

inline void print_table(const support::TextTable& t) {
  std::fputs(t.to_string().c_str(), stdout);
  std::fputs("\n", stdout);
}

inline void note(const std::string& s) {
  std::printf("note: %s\n", s.c_str());
}

/// The one definition of provisioning throughput shared by every bench that
/// reports it (E13b, E17): requests *processed* — accepted or dropped, both
/// cost a routing attempt — per wall-clock second.
inline double requests_per_second(long long requests, double elapsed_ms) {
  return elapsed_ms > 0.0
             ? 1000.0 * static_cast<double>(requests) / elapsed_ms
             : 0.0;
}

}  // namespace wdm::bench
