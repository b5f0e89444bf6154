// wdmtool — command-line front end for the robustwdm library.
//
//   wdmtool topologies
//   wdmtool route <topology> <s> <t> [-W n] [-r router] [--occupy p] [--seed k]
//   wdmtool simulate <topology> [-W n] [-r router] [--erlang x]
//            [--duration t] [--failures rate] [--srlg-failures rate]
//            [--reprovision] [--replicas k] [--seed k]
//            [--protect full|srlg|partial:<p>]
//   wdmtool audit <topology>
//   wdmtool dot <topology>
//
// Routers: approx (§3.3, default), minload (§4.1), loadcost (§4.2),
//          node-disjoint, two-step, physical, unprotected, exact.
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "graph/dot.hpp"
#include "rwa/approx_router.hpp"
#include "rwa/baselines.hpp"
#include "rwa/exact_router.hpp"
#include "rwa/loadcost_router.hpp"
#include "rwa/mincog.hpp"
#include "rwa/node_disjoint_router.hpp"
#include "rwa/protectability.hpp"
#include "sim/replicate.hpp"
#include "support/telemetry.hpp"
#include "topology/network_builder.hpp"
#include "wdm/io.hpp"

#include <fstream>

namespace {

using namespace wdm;

/// Full-token integer parse; rejects "", "7x", "1e3", overflow. std::atoi
/// silently returns 0 for all of those, which turns garbage argv into node 0.
bool parse_cli_int(const char* s, int* out) {
  const char* last = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, last, *out);
  return ec == std::errc{} && ptr == last && last != s;
}

/// Full-token finite double parse (rejects "", trailing junk, nan/inf).
bool parse_cli_double(const char* s, double* out) {
  if (*s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end != s + std::strlen(s) || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

bool flag_error(const char* flag, const char* value) {
  std::fprintf(stderr, "bad value for %s: '%s'\n", flag, value);
  return false;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  wdmtool topologies\n"
      "  wdmtool route <topology> <s> <t> [-W n] [-r router] [--occupy p] "
      "[--seed k]\n"
      "           [--protect full|srlg|partial:<p>]\n"
      "  wdmtool simulate <topology> [-W n] [-r router] [--erlang x] "
      "[--duration t]\n"
      "           [--failures rate] [--srlg-failures rate] [--reprovision]\n"
      "           [--replicas k] [--seed k] [--protect full|srlg|partial:<p>]\n"
      "           (--reprovision: a backup lost to a cut is re-provisioned\n"
      "            at once by a Liang-Shen solve)\n"
      "  wdmtool audit <topology>\n"
      "  wdmtool dot <topology>\n"
      "  wdmtool save <topology> [-W n] [--occupy p] > file.wdm\n"
      "  (route/simulate accept --net file.wdm to load a saved state,\n"
      "   --telemetry out.json to dump structured counters/timings,\n"
      "   and --series-interval dt to set the sim-time sampling stride\n"
      "   (0 = auto, negative = off))\n"
      "topologies: nsfnet | arpanet | eon | usnet | ring<n> | grid<r>x<c> | torus<r>x<c>\n"
      "            geo<r>x<c>[@seed] | waxman<n>[@seed]  (random; seeded "
      "draws, default @1)\n"
      "routers: approx minload loadcost node-disjoint two-step physical "
      "unprotected exact\n");
  return 2;
}

bool parse_topology(const std::string& name, topo::Topology* out) {
  // Random families take an optional "@<seed>" suffix (default seed 1) so a
  // drawn instance is reproducible from its name alone, independent of the
  // --seed flag (which keeps governing occupancy and traffic).
  std::string base = name;
  std::uint64_t topo_seed = 1;
  if (const auto at = base.find('@'); at != std::string::npos) {
    int sv = 0;
    if (!parse_cli_int(base.c_str() + at + 1, &sv) || sv < 0) return false;
    topo_seed = static_cast<std::uint64_t>(sv);
    base.resize(at);
  }
  if (base.rfind("waxman", 0) == 0) {
    int n = 0;
    if (!parse_cli_int(base.c_str() + 6, &n) || n < 3) return false;
    support::Rng rng(topo_seed);
    // E22 parameters: continental sparsity (mean degree ~8 at n=250).
    *out = topo::waxman(n, /*alpha=*/0.08, /*beta=*/0.12, rng);
    return true;
  }
  if (base.rfind("geo", 0) == 0) {
    int r = 0, c = 0, used = 0;
    if (std::sscanf(base.c_str() + 3, "%dx%d%n", &r, &c, &used) != 2 ||
        base[3 + static_cast<std::size_t>(used)] != '\0' || r < 2 || c < 2) {
      return false;
    }
    support::Rng rng(topo_seed);
    *out = topo::geo_grid(r, c, /*chord_p=*/0.3, rng);
    return true;
  }
  if (name == "nsfnet") {
    *out = topo::nsfnet();
  } else if (name == "arpanet") {
    *out = topo::arpanet20();
  } else if (name == "eon") {
    *out = topo::eon19();
  } else if (name == "usnet") {
    *out = topo::usnet24();
  } else if (name.rfind("torus", 0) == 0) {
    int r = 0, c = 0, used = 0;
    if (std::sscanf(name.c_str() + 5, "%dx%d%n", &r, &c, &used) != 2 ||
        name[5 + static_cast<std::size_t>(used)] != '\0' || r < 3 || c < 3) {
      return false;
    }
    *out = topo::torus(r, c);
  } else if (name.rfind("ring", 0) == 0) {
    int n = 0;
    if (!parse_cli_int(name.c_str() + 4, &n) || n < 3) return false;
    *out = topo::ring(n);
  } else if (name.rfind("grid", 0) == 0) {
    int r = 0, c = 0, used = 0;
    if (std::sscanf(name.c_str() + 4, "%dx%d%n", &r, &c, &used) != 2 ||
        name[4 + static_cast<std::size_t>(used)] != '\0' || r < 2 || c < 2) {
      return false;
    }
    *out = topo::grid(r, c);
  } else {
    return false;
  }
  return true;
}

rwa::RouterPtr make_router(const std::string& name,
                           net::ProtectPolicy policy) {
  if (name == "approx") {
    return std::make_unique<rwa::ApproxDisjointRouter>(true, policy);
  }
  if (name == "minload") {
    return std::make_unique<rwa::MinLoadRouter>(rwa::MinCogOptions{}, policy);
  }
  if (name == "loadcost") {
    return std::make_unique<rwa::LoadCostRouter>(rwa::MinCogOptions{}, false,
                                                 policy);
  }
  if (name == "node-disjoint") {
    return std::make_unique<rwa::NodeDisjointRouter>(policy);
  }
  // The remaining routers predate protection policies; only the default
  // (full edge-disjoint) request is meaningful for them.
  if (policy.kind != net::ProtectKind::kFull) {
    std::fprintf(stderr, "router '%s' does not support --protect\n",
                 name.c_str());
    return nullptr;
  }
  if (name == "two-step") return std::make_unique<rwa::TwoStepRouter>();
  if (name == "physical") {
    return std::make_unique<rwa::PhysicalFirstFitRouter>();
  }
  if (name == "unprotected") return std::make_unique<rwa::UnprotectedRouter>();
  if (name == "exact") return std::make_unique<rwa::ExactRouter>();
  return nullptr;
}

/// --protect value: "full" | "srlg" | "partial:<p>" with p in [0, 1].
bool parse_protect(const std::string& value, net::ProtectPolicy* out) {
  if (value == "full") {
    *out = net::ProtectPolicy::full();
    return true;
  }
  if (value == "srlg") {
    *out = net::ProtectPolicy::srlg();
    return true;
  }
  if (value.rfind("partial:", 0) == 0) {
    double p = 0.0;
    if (parse_cli_double(value.c_str() + 8, &p) && p >= 0.0 && p <= 1.0) {
      *out = net::ProtectPolicy::partial(p);
      return true;
    }
  }
  return false;
}

struct Flags {
  int W = 8;
  std::string router = "approx";
  net::ProtectPolicy protect = net::ProtectPolicy::full();  // --protect
  std::string net_file;  // --net: load the network state instead of building
  std::string telemetry_file;  // --telemetry: JSON dump path
  double series_interval = 0.0;  // --series-interval (0 auto, <0 off)
  double occupy = 0.0;
  double erlang = 20.0;
  double duration = 100.0;
  double failures = 0.0;
  double srlg_failures = 0.0;  // --srlg-failures: correlated group events
  bool reprovision = false;    // --reprovision: re-protect after a lost backup
  int replicas = 1;
  std::uint64_t seed = 1;
};

bool parse_flags(int argc, char** argv, int first, Flags* f) {
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto next_str = [&](std::string* out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        return false;
      }
      *out = argv[++i];
      return true;
    };
    auto next_double = [&](double* out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        return false;
      }
      ++i;
      return parse_cli_double(argv[i], out) || flag_error(a.c_str(), argv[i]);
    };
    auto next_int = [&](int* out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        return false;
      }
      ++i;
      return parse_cli_int(argv[i], out) || flag_error(a.c_str(), argv[i]);
    };
    int iv = 0;
    if (a == "-W") {
      if (!next_int(&iv) || iv < 1) return flag_error("-W", argv[i]);
      f->W = iv;
    } else if (a == "-r") {
      if (!next_str(&f->router)) return false;
    } else if (a == "--protect") {
      std::string v;
      if (!next_str(&v)) return false;
      if (!parse_protect(v, &f->protect)) {
        return flag_error("--protect", v.c_str());
      }
    } else if (a == "--net") {
      if (!next_str(&f->net_file)) return false;
    } else if (a == "--telemetry") {
      if (!next_str(&f->telemetry_file)) return false;
    } else if (a == "--series-interval") {
      if (!next_double(&f->series_interval)) return false;
    } else if (a == "--occupy") {
      if (!next_double(&f->occupy)) return false;
      if (f->occupy < 0.0 || f->occupy > 1.0) {
        return flag_error("--occupy", argv[i]);
      }
    } else if (a == "--erlang") {
      if (!next_double(&f->erlang) || f->erlang < 0.0) return false;
    } else if (a == "--duration") {
      if (!next_double(&f->duration) || f->duration < 0.0) return false;
    } else if (a == "--failures") {
      if (!next_double(&f->failures) || f->failures < 0.0) return false;
    } else if (a == "--srlg-failures") {
      if (!next_double(&f->srlg_failures) || f->srlg_failures < 0.0) {
        return false;
      }
    } else if (a == "--reprovision") {
      f->reprovision = true;
    } else if (a == "--replicas") {
      if (!next_int(&iv) || iv < 1) return flag_error("--replicas", argv[i]);
      f->replicas = iv;
    } else if (a == "--seed") {
      if (!next_int(&iv) || iv < 0) return flag_error("--seed", argv[i]);
      f->seed = static_cast<std::uint64_t>(iv);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  if (!f->telemetry_file.empty()) {
    wdm::support::telemetry::set_enabled(true);
    // Run metadata for the dump: teldiff gates on "seed"; "command" makes a
    // dump self-describing when it is a CI artifact.
    wdm::support::telemetry::set_meta("seed", std::to_string(f->seed));
    std::string cmd;
    for (int i = 0; i < argc; ++i) {
      if (i > 0) cmd += ' ';
      cmd += argv[i];
    }
    wdm::support::telemetry::set_meta("command", cmd);
  }
  return true;
}

/// Writes the telemetry dump if requested; pass-through of rc.
int finish(const Flags& f, int rc) {
  if (!f.telemetry_file.empty()) {
    if (!support::telemetry::write_file(f.telemetry_file)) {
      std::fprintf(stderr, "cannot write telemetry to %s\n",
                   f.telemetry_file.c_str());
      return rc == 0 ? 2 : rc;
    }
  }
  return rc;
}

net::WdmNetwork make_network(const topo::Topology& t, const Flags& f) {
  if (!f.net_file.empty()) {
    // Throws io::ParseError with "file:line N: ..." context; main() turns
    // that into a clean diagnostic + nonzero exit.
    return io::read_network_file(f.net_file);
  }
  support::Rng rng(f.seed);
  topo::NetworkOptions opt;
  opt.num_wavelengths = f.W;
  net::WdmNetwork n = topo::build_network(t, opt, rng);
  if (f.occupy > 0.0) {
    for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
      n.available(e).for_each([&](net::Wavelength l) {
        if (rng.bernoulli(f.occupy)) n.reserve(e, l);
      });
    }
  }
  return n;
}

void print_path(const net::WdmNetwork& n, const char* label,
                const net::Semilightpath& p) {
  if (!p.found) {
    std::printf("%s: (none)\n", label);
    return;
  }
  std::printf("%s (cost %.3f):", label, p.cost(n));
  for (const net::Hop& h : p.hops) {
    std::printf(" %d->%d:λ%d", n.graph().tail(h.edge), n.graph().head(h.edge),
                h.lambda);
  }
  std::printf("\n");
}

int cmd_route(int argc, char** argv) {
  if (argc < 5) return usage();
  topo::Topology t;
  if (!parse_topology(argv[2], &t)) return usage();
  int s_raw = 0;
  int dst_raw = 0;
  if (!parse_cli_int(argv[3], &s_raw) || !parse_cli_int(argv[4], &dst_raw)) {
    std::fprintf(stderr, "bad node id '%s' or '%s' (expected integers)\n",
                 argv[3], argv[4]);
    return usage();
  }
  const auto s = static_cast<net::NodeId>(s_raw);
  const auto dst = static_cast<net::NodeId>(dst_raw);
  Flags f;
  if (!parse_flags(argc, argv, 5, &f)) return usage();
  const rwa::RouterPtr router = make_router(f.router, f.protect);
  if (!router) return usage();
  const net::WdmNetwork n = make_network(t, f);
  if (!n.graph().valid_node(s) || !n.graph().valid_node(dst) || s == dst) {
    std::fprintf(stderr,
                 "bad endpoints (%d, %d) for %s: need distinct nodes in "
                 "[0, %d)\n",
                 s, dst, t.name.c_str(), n.num_nodes());
    return 2;
  }
  const rwa::RouteResult r = router->route(n, s, dst);
  std::printf("%s on %s (W=%d, occupancy %.0f%%): %s\n",
              router->name().c_str(), t.name.c_str(), f.W, 100 * f.occupy,
              r.found ? "FOUND" : "BLOCKED");
  if (!r.found) {
    std::printf("  blocked by %s\n", rwa::blocked_by_name(r.blocked_by));
    return finish(f, 1);
  }
  print_path(n, "  primary", r.route.primary);
  print_path(n, "  backup ", r.route.backup);
  if (r.route.backup.found) {
    std::printf("  total cost %.3f, current network load ρ=%.3f\n",
                r.total_cost(n), n.network_load());
  }
  return finish(f, 0);
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 3) return usage();
  topo::Topology t;
  if (!parse_topology(argv[2], &t)) return usage();
  Flags f;
  if (!parse_flags(argc, argv, 3, &f)) return usage();
  const rwa::RouterPtr router = make_router(f.router, f.protect);
  if (!router) return usage();
  const net::WdmNetwork base = make_network(t, f);

  sim::SimOptions opt;
  opt.traffic.arrival_rate = f.erlang;
  opt.traffic.mean_holding = 1.0;
  opt.duration = f.duration;
  opt.seed = f.seed;
  opt.series_interval = f.series_interval;
  if (f.failures > 0.0) {
    opt.failures.duplex_failure_rate = f.failures;
    opt.reverse_of = t.reverse_of;
  }
  if (f.srlg_failures > 0.0) {
    if (base.num_srlgs() == 0) {
      std::fprintf(stderr,
                   "--srlg-failures needs a network with srlg blocks "
                   "(load one via --net)\n");
      return 2;
    }
    opt.failures.srlg_failure_rate = f.srlg_failures;
  }
  opt.failures.reprovision_backup = f.reprovision;
  const sim::ReplicationSummary s =
      sim::replicate(base, *router, opt, f.replicas);
  std::printf("%s on %s: W=%d, %.1f Erlang, horizon %.0f, %d replica(s)\n",
              router->name().c_str(), t.name.c_str(), f.W, f.erlang,
              f.duration, f.replicas);
  std::printf("  blocking      %.4f ± %.4f\n", s.blocking.mean,
              s.blocking.ci95);
  // The blocked requests' causes (rwa::BlockedBy), nonzero ones only.
  std::string causes;
  for (int c = 0; c < rwa::kNumBlockedCauses; ++c) {
    const long k = s.blocked_by[static_cast<std::size_t>(c)];
    if (k == 0) continue;
    if (!causes.empty()) causes += ", ";
    causes += rwa::blocked_by_name(static_cast<rwa::BlockedBy>(c));
    causes += ' ';
    causes += std::to_string(k);
  }
  if (!causes.empty()) std::printf("  blocked by    %s\n", causes.c_str());
  std::printf("  mean load ρ   %.4f ± %.4f\n", s.mean_network_load.mean,
              s.mean_network_load.ci95);
  std::printf("  peak load     %.4f\n", s.peak_load.max);
  std::printf("  route cost    %.3f ± %.3f\n", s.route_cost.mean,
              s.route_cost.ci95);
  if (f.failures > 0.0 || f.srlg_failures > 0.0) {
    std::printf("  recovery      %.4f ± %.4f\n", s.recovery_success.mean,
                s.recovery_success.ci95);
    std::printf("  availability  %.4f ± %.4f\n", s.availability.mean,
                s.availability.ci95);
  }
  return finish(f, 0);
}

int cmd_audit(int argc, char** argv) {
  if (argc < 3) return usage();
  topo::Topology t;
  if (!parse_topology(argv[2], &t)) return usage();
  const rwa::ProtectabilityReport r = rwa::audit_protectability(t.g);
  std::printf("%s: %d nodes, %d duplex fibers\n", t.name.c_str(),
              t.num_nodes(), t.num_duplex_links());
  std::printf("  undirected bridges      %d\n", r.undirected_bridges);
  std::printf("  2-edge components       %d\n", r.two_edge_components);
  std::printf("  protectable (s,t) pairs %lld / %lld  (%.1f%%)\n",
              r.protectable_pairs, r.total_pairs, 100.0 * r.fraction());
  return 0;
}

int cmd_dot(int argc, char** argv) {
  if (argc < 3) return usage();
  topo::Topology t;
  if (!parse_topology(argv[2], &t)) return usage();
  graph::DotOptions opt;
  opt.graph_name = t.name;
  std::fputs(graph::to_dot(t.g, opt).c_str(), stdout);
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "topologies") {
    std::printf("nsfnet    14 nodes, 21 duplex fibers (NSFNET T1)\n");
    std::printf("arpanet   20 nodes, 31 duplex fibers\n");
    std::printf("eon       19 nodes, 37 duplex fibers (European Optical)\n");
    std::printf("ring<n>   bidirectional ring\n");
    std::printf("grid<r>x<c> mesh\n");
    std::printf("geo<r>x<c>[@seed]  grid + diagonal chords (E22 family)\n");
    std::printf("waxman<n>[@seed]   geometric random WAN (E22 family)\n");
    return 0;
  }
  if (cmd == "route") return cmd_route(argc, argv);
  if (cmd == "simulate") return cmd_simulate(argc, argv);
  if (cmd == "audit") return cmd_audit(argc, argv);
  if (cmd == "dot") return cmd_dot(argc, argv);
  if (cmd == "save") {
    // wdmtool save <topology> [-W n] [--occupy p] [--seed k]  > file.wdm
    if (argc < 3) return usage();
    topo::Topology t;
    if (!parse_topology(argv[2], &t)) return usage();
    Flags f;
    if (!parse_flags(argc, argv, 3, &f)) return usage();
    std::fputs(io::write_network(make_network(t, f)).c_str(), stdout);
    return finish(f, 0);
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const io::ParseError& err) {
    std::fprintf(stderr, "wdmtool: %s\n", err.what());
    return 2;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "wdmtool: %s\n", err.what());
    return 2;
  }
}
