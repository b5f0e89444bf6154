// Request-level benchmark: Router::route latency inside sim::Simulator.
//
// One process, one thread, one closed loop: the simulator offers a request,
// the router answers it against the live residual network, and the next
// request is offered only after that. Offered load is in Erlangs of
// simulated time, not a wall-clock rate.
//
// Every end-to-end number comes from the calls the simulator itself makes:
// the real router sits behind TimedRouter, a Router decorator that times each
// route() call and checks its output. With --trace 1 the decorator also
// replays each request, against the same const network, through the public
// entry point of every module the router is built from (AuxGraphBuilder,
// graph::suurballe, optimal_semilightpath, find_two_paths_mincog), timing a
// span around each call. Per-layer figures come from that replay.
//
// A run simulates one fixed, seeded horizon again and again until --seconds
// have passed, so every count is a pure function of the seed. Determinism is
// checked by re-simulating a prefix of the horizon: its requests must match
// the full simulation's first requests outcome for outcome. The last line of
// stdout is the result object; see README.md in this directory.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "graph/suurballe.hpp"
#include "rwa/approx_router.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/layered_graph.hpp"
#include "rwa/loadcost_router.hpp"
#include "rwa/mincog.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "topology/network_builder.hpp"
#include "topology/topologies.hpp"

// Every heap allocation in the process, for rwa.route.allocs_per_call.
// libstdc++ routes the array and sized forms through these two.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace wdm;
using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Workloads -------------------------------------------------------------
//
// Horizons are sized so one simulation offers thousands of distinct
// requests: the metrics are means and percentiles over a seed's requests,
// and their seed-to-seed spread shrinks with that count.

enum class Pipeline { kApprox, kLoadCost };

struct Workload {
  const char* name;
  int rows = 0, cols = 0;  // geo_grid size; 0 = NSFNET
  int W = 16;
  topo::ConversionModel conversion = topo::ConversionModel::kFullUniform;
  Pipeline pipeline = Pipeline::kApprox;
  double erlang = 0.0;
  double horizon = 0.0;   // simulated time per simulation (mean holding 1)
  int warmup = 0;         // first route() calls per simulation left untimed
  double cut_rate = 0.0;  // fiber cuts per duplex link per unit time
  double mean_repair = 0.0;
};

const Workload kWorkloads[] = {
    {.name = "nsfnet-w16-limited-churn",
     .W = 16,
     .conversion = topo::ConversionModel::kLimitedRange,
     .erlang = 60.0,
     .horizon = 200.0,
     .warmup = 60,
     .cut_rate = 0.05,
     .mean_repair = 0.2},
    {.name = "geo32-w64-approx",
     .rows = 32,
     .cols = 32,
     .W = 64,
     .erlang = 200.0,
     .horizon = 6.0,
     .warmup = 100},
    {.name = "geo16-w16-loadcost",
     .rows = 16,
     .cols = 16,
     .W = 16,
     .pipeline = Pipeline::kLoadCost,
     .erlang = 100.0,
     .horizon = 13.0,
     .warmup = 100},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// --- Output check ----------------------------------------------------------

/// Eq. (1) recomputed from the network tables, independently of
/// Semilightpath::cost. Requires a well-formed path.
double eq1_cost(const net::WdmNetwork& net, const net::Semilightpath& p) {
  double c = 0.0;
  for (std::size_t i = 0; i < p.hops.size(); ++i) {
    const net::Hop& h = p.hops[i];
    c += net.weight(h.edge, h.lambda);
    if (i > 0) {
      const net::Wavelength prev = p.hops[i - 1].lambda;
      c += net.conversion(net.graph().tail(h.edge)).cost(prev, h.lambda);
    }
  }
  return c;
}

bool close_rel(double a, double b, double tol) {
  return std::fabs(a - b) <= tol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// A found route is valid when primary and backup both exist, are
/// edge-disjoint, both fit the residual network it was routed against, and
/// their Eq. (1) costs recompute to what Semilightpath::cost reports.
bool valid_route(const net::WdmNetwork& net, const rwa::RouteResult& rr,
                 double* cost) {
  const net::Semilightpath& p = rr.route.primary;
  const net::Semilightpath& b = rr.route.backup;
  if (!p.found || !b.found || !net::edge_disjoint(p, b)) return false;
  if (!p.fits_residual(net) || !b.fits_residual(net)) return false;
  const double cp = eq1_cost(net, p);
  const double cb = eq1_cost(net, b);
  if (!close_rel(cp, p.cost(net), 1e-9) || !close_rel(cb, b.cost(net), 1e-9)) {
    return false;
  }
  *cost = cp + cb;
  return true;
}

// --- Per-request recording and the traced replay ---------------------------

struct Span {
  double s = 0.0;
  long calls = 0;
  void add(double dt) {
    s += dt;
    ++calls;
  }
};

/// One route() call as the determinism check compares it.
struct Outcome {
  net::NodeId s = 0, t = 0;
  bool valid = false;
  double cost = 0.0;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

/// Everything one simulation records. The traced-only fields stay zero when
/// tracing is off.
struct RepRecord {
  std::vector<double> lat_us;     // every route() call, in order
  // Wall time of Simulator::run cut at the end of each route() call: the
  // simulator's work since the previous call plus this call. The last entry
  // is the tail after the final call.
  std::vector<double> segment_s;
  Clock::time_point segment_start;
  std::vector<Outcome> outcomes;  // every route() call, in order
  long found = 0, invalid = 0;
  double cost_sum = 0.0;  // recomputed Eq. (1), valid routes only
  double route_s = 0.0;   // inside the real route(), every call
  double hook_s = 0.0;    // inside TimedRouter::route(), every call
  // Traced replay.
  Span aux, suurballe, layered, mincog;
  long no_pair = 0, infeasible = 0, exhausted = 0;
  long mismatches = 0;
  long probes = 0;
  long arcs = 0;             // layered-graph arcs over every LS call
  std::uint64_t allocs = 0;  // operator new calls inside route()
  rwa::AuxGraphBuilder::CacheStats cache{};
  // Simulator outcome.
  sim::SimMetrics metrics;
  double run_s = 0.0;

  long calls() const { return static_cast<long>(outcomes.size()); }
};

/// Replays one request through the module entry points and attributes its
/// outcome. Owns the bench-side builder, so its caches warm over one
/// simulation as a router's would.
class Replay {
 public:
  explicit Replay(Pipeline pipeline) : pipeline_(pipeline) {}

  const rwa::AuxGraphBuilder::CacheStats& cache_stats() const {
    return builder_.stats();
  }

  void run(const net::WdmNetwork& net, net::NodeId s, net::NodeId t,
           const rwa::RouteResult& rr, long ordinal, RepRecord* rec) {
    rwa::AuxGraphOptions aopt;  // default options: G' (§3.3.1)
    bool exhausted = false;
    if (pipeline_ == Pipeline::kLoadCost) {
      const auto t0 = Clock::now();
      const rwa::MinCogResult mc =
          rwa::find_two_paths_mincog(net, s, t, rwa::MinCogOptions{}, &builder_);
      rec->mincog.add(seconds(t0, Clock::now()));
      rec->probes += mc.iterations;
      exhausted = !mc.found;
      aopt.weighting = rwa::AuxWeighting::kCostLoadFiltered;
      aopt.theta = mc.theta;
    } else if (ordinal % kWhatIfStride == 0) {
      // The approx router runs no ϑ search. Time one on a sample of its
      // requests (own builder, outside the decomposition and the shares),
      // so a change to that layer reads here too while route() stays put.
      const auto t0 = Clock::now();
      const rwa::MinCogResult mc = rwa::find_two_paths_mincog(
          net, s, t, rwa::MinCogOptions{}, &what_if_builder_);
      rec->mincog.add(seconds(t0, Clock::now()));
      rec->probes += mc.iterations;
    }

    bool found = false;
    if (exhausted) {
      ++rec->exhausted;
    } else {
      const auto t0 = Clock::now();
      const rwa::AuxGraph& aux = builder_.build(net, s, t, aopt);
      const auto t1 = Clock::now();
      const graph::DisjointPair pair =
          graph::suurballe(aux.g, aux.w, aux.s_prime, aux.t_second);
      const auto t2 = Clock::now();
      rec->aux.add(seconds(t0, t1));
      rec->suurballe.add(seconds(t1, t2));
      if (!pair.found) {
        ++rec->no_pair;
      } else {
        if (!close_rel(pair.total_cost(), rr.aux_cost, 1e-9)) ++rec->mismatches;
        aux.induced_link_mask_into(pair.first, net.num_links(), &mask1_);
        aux.induced_link_mask_into(pair.second, net.num_links(), &mask2_);
        const auto t3 = Clock::now();
        const net::Semilightpath p1 =
            rwa::optimal_semilightpath(net, s, t, mask1_);
        const net::Semilightpath p2 =
            rwa::optimal_semilightpath(net, s, t, mask2_);
        rec->layered.add(seconds(t3, Clock::now()));
        rec->arcs += rwa::LayeredGraph::build(net, s, t, mask1_).g.num_edges();
        rec->arcs += rwa::LayeredGraph::build(net, s, t, mask2_).g.num_edges();
        found = p1.found && p2.found;
        if (!found) ++rec->infeasible;
      }
    }
    if (found != rr.found) ++rec->mismatches;
  }

 private:
  static constexpr long kWhatIfStride = 16;
  Pipeline pipeline_;
  rwa::AuxGraphBuilder builder_;
  rwa::AuxGraphBuilder what_if_builder_;
  std::vector<std::uint8_t> mask1_, mask2_;
};

void spin_for(double us) {
  const auto until =
      Clock::now() + std::chrono::duration<double, std::micro>(us);
  while (Clock::now() < until) {
  }
}

/// The timing decorator the simulator routes through.
class TimedRouter final : public rwa::Router {
 public:
  TimedRouter(const rwa::Router& inner, double plant_spin_us, Replay* replay,
              RepRecord* rec)
      : inner_(inner), plant_spin_us_(plant_spin_us), replay_(replay),
        rec_(rec) {}

  rwa::RouteResult route(const net::WdmNetwork& net, net::NodeId s,
                         net::NodeId t) const override {
    const auto t0 = Clock::now();
    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    rwa::RouteResult rr = inner_.route(net, s, t);
    if (plant_spin_us_ > 0.0) spin_for(plant_spin_us_);
    const auto t1 = Clock::now();
    const std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);
    const double dt = seconds(t0, t1);
    rec_->route_s += dt;
    rec_->lat_us.push_back(dt * 1e6);
    Outcome o{s, t, false, 0.0};
    if (rr.found) {
      ++rec_->found;
      o.valid = valid_route(net, rr, &o.cost);
      if (o.valid) {
        rec_->cost_sum += o.cost;
      } else {
        ++rec_->invalid;
      }
    }
    const long ordinal = rec_->calls();
    rec_->outcomes.push_back(o);
    if (replay_ != nullptr) {
      rec_->allocs += allocs1 - allocs0;
      replay_->run(net, s, t, rr, ordinal, rec_);
    }
    const auto end = Clock::now();
    rec_->hook_s += seconds(t0, end);
    rec_->segment_s.push_back(seconds(rec_->segment_start, end));
    rec_->segment_start = end;
    return rr;
  }

  std::string name() const override { return inner_.name(); }

 private:
  const rwa::Router& inner_;
  double plant_spin_us_;
  Replay* replay_;
  RepRecord* rec_;
};

// --- One simulation --------------------------------------------------------

struct Seeds {
  std::uint64_t topology, network, traffic;
};

Seeds derive_seeds(std::uint64_t seed) {
  std::uint64_t state = seed;
  Seeds s{};
  s.topology = support::splitmix64(state);
  s.network = support::splitmix64(state);
  s.traffic = support::splitmix64(state);
  return s;
}

/// A set-up simulation, ready to run.
struct Instance {
  topo::Topology topology;
  std::unique_ptr<rwa::Router> router;
  std::unique_ptr<TimedRouter> timed;
  std::unique_ptr<sim::Simulator> sim;
  double topology_s = 0.0;  // topology generation + build_network
  double setup_s = 0.0;     // ... + router + simulator + first request
};

std::unique_ptr<Instance> set_up(const Workload& w, double horizon,
                                 const Seeds& seeds, double plant_spin_us,
                                 Replay* replay, RepRecord* rec) {
  auto in = std::make_unique<Instance>();
  const auto t0 = Clock::now();
  support::Rng topo_rng(seeds.topology);
  in->topology = w.rows > 0 ? topo::geo_grid(w.rows, w.cols, 0.3, topo_rng)
                            : topo::nsfnet();
  topo::NetworkOptions nopt;
  nopt.num_wavelengths = w.W;
  nopt.conversion_model = w.conversion;
  support::Rng net_rng(seeds.network);
  net::WdmNetwork net = topo::build_network(in->topology, nopt, net_rng);
  in->topology_s = seconds(t0, Clock::now());

  if (w.pipeline == Pipeline::kLoadCost) {
    in->router = std::make_unique<rwa::LoadCostRouter>();
  } else {
    in->router = std::make_unique<rwa::ApproxDisjointRouter>(/*refine=*/true);
  }
  in->timed =
      std::make_unique<TimedRouter>(*in->router, plant_spin_us, replay, rec);
  sim::SimOptions opt;
  opt.traffic.arrival_rate = w.erlang;
  opt.traffic.mean_holding = 1.0;
  opt.duration = horizon;
  opt.seed = seeds.traffic;
  opt.series_interval = -1.0;
  opt.restoration = sim::RestorationMode::kActive;
  if (w.cut_rate > 0.0) {
    opt.failures.duplex_failure_rate = w.cut_rate;
    opt.failures.mean_repair = w.mean_repair;
    opt.failures.reprovision_backup = true;
    opt.reverse_of = in->topology.reverse_of;
  }
  in->sim = std::make_unique<sim::Simulator>(std::move(net), *in->timed, opt);
  // The first request builds the router's per-network arena. Users pay that
  // once per network, so it is set-up, not part of the timed loop.
  const net::WdmNetwork& live = in->sim->network();
  (void)in->router->route(live, 0, live.num_nodes() - 1);
  in->setup_s = seconds(t0, Clock::now());
  return in;
}

void run_simulation(Instance& in, RepRecord* rec) {
  const auto t0 = Clock::now();
  rec->segment_start = t0;
  rec->metrics = in.sim->run();
  const auto t1 = Clock::now();
  rec->run_s = seconds(t0, t1);
  rec->segment_s.push_back(seconds(rec->segment_start, t1));
}

/// Sets up and runs one simulation outside the measured loop.
RepRecord run_once(const Workload& w, double horizon, const Seeds& seeds) {
  RepRecord rec;
  auto in = set_up(w, horizon, seeds, 0.0, nullptr, &rec);
  run_simulation(*in, &rec);
  return rec;
}

/// The simulator's own bookkeeping must agree with the decorator's: every
/// valid route accepted, every other request blocked, and the recorded cost
/// equal to the Eq. (1) cost recomputed here.
bool books_agree(const RepRecord& r) {
  const sim::SimMetrics& m = r.metrics;
  return r.calls() == m.offered && r.found - r.invalid == m.accepted &&
         close_rel(r.cost_sum, m.route_cost.sum(), 1e-9);
}

// --- Statistics and output --------------------------------------------------

/// Nearest-rank percentile.
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  return xs[rank - 1];
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mean(const std::vector<double>& xs) {
  return ratio(std::accumulate(xs.begin(), xs.end(), 0.0),
               static_cast<double>(xs.size()));
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used: Linux carries it across execve, so it would report the
/// launching process's peak when that was larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double plant_spin_us = 0.0;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
      continue;
    }
    if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a->trace = std::strtol(v, &end, 10) != 0;
    } else if (k == "--plant-spin-us") {
      a->plant_spin_us = std::strtod(v, &end);
    } else {
      return false;
    }
    if (end == v || *end != '\0') return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0;
}

/// The per-layer figures of the traced simulations.
std::vector<Metric> per_layer_metrics(const Workload& wl,
                                      const std::vector<RepRecord>& reps,
                                      const RepRecord& reference,
                                      const std::vector<double>& topology_s) {
  RepRecord t;  // traced simulations, summed
  double run_s = 0.0;
  std::vector<double> lat_traced;
  const auto prefix = static_cast<std::size_t>(reference.calls());
  for (const RepRecord& r : reps) {
    run_s += r.run_s;
    t.route_s += r.route_s;
    t.hook_s += r.hook_s;
    const auto add = [](Span& sum, const Span& part) {
      sum.s += part.s;
      sum.calls += part.calls;
    };
    add(t.aux, r.aux);
    add(t.suurballe, r.suurballe);
    add(t.layered, r.layered);
    add(t.mincog, r.mincog);
    t.no_pair += r.no_pair;
    t.infeasible += r.infeasible;
    t.exhausted += r.exhausted;
    t.mismatches += r.mismatches;
    t.probes += r.probes;
    t.arcs += r.arcs;
    t.allocs += r.allocs;
    t.cache.builds += r.cache.builds;
    t.cache.conv_hits += r.cache.conv_hits;
    t.cache.conv_misses += r.cache.conv_misses;
    t.cache.link_hits += r.cache.link_hits;
    t.cache.link_misses += r.cache.link_misses;
    // The untraced reference simulated the same first requests.
    lat_traced.insert(lat_traced.end(),
                      r.lat_us.begin() + std::min<std::size_t>(wl.warmup, prefix),
                      r.lat_us.begin() + std::min(prefix, r.lat_us.size()));
  }
  const std::vector<double> lat_reference(
      reference.lat_us.begin() + std::min<std::size_t>(wl.warmup, prefix),
      reference.lat_us.end());
  const auto n_reps = static_cast<double>(reps.size());
  const double calls = static_cast<double>(reps.front().calls()) * n_reps;
  const auto per_sim = [&](long n) { return static_cast<double>(n) / n_reps; };
  const auto us_mean = [](const Span& sp) {
    return ratio(sp.s, static_cast<double>(sp.calls)) * 1e6;
  };
  const auto hit_rate = [](std::uint64_t hits, std::uint64_t misses) {
    return ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
  };
  const bool loadcost = wl.pipeline == Pipeline::kLoadCost;
  const double route_s = t.route_s;
  const double self_s = run_s - t.hook_s;
  const double layers_s =
      t.aux.s + t.suurballe.s + t.layered.s + (loadcost ? t.mincog.s : 0.0);
  const sim::SimMetrics& m = reps.front().metrics;
  return {
      // Simulator self time against self + route time: the share an
      // untraced run spends outside route().
      {"sim.self_share", ratio(self_s, self_s + route_s), "ratio"},
      {"sim.recoveries", static_cast<double>(m.recoveries_succeeded), "count"},
      {"sim.blocking_prob", m.blocking_probability(), "ratio"},
      {"rwa.route.calls", static_cast<double>(reps.front().calls()), "count"},
      {"rwa.route.us_mean", ratio(route_s, calls) * 1e6, "us"},
      {"rwa.route.allocs_per_call",
       ratio(static_cast<double>(t.allocs), calls), "count"},
      {"rwa.route.trace_overhead", ratio(mean(lat_traced), mean(lat_reference)) - 1.0,
       "ratio"},
      {"rwa.aux_graph.us_mean", us_mean(t.aux), "us"},
      {"rwa.aux_graph.share", ratio(t.aux.s, route_s), "ratio"},
      {"rwa.aux_graph.builds_per_route",
       ratio(static_cast<double>(t.cache.builds), calls), "count"},
      {"rwa.aux_graph.conv_hit_rate",
       hit_rate(t.cache.conv_hits, t.cache.conv_misses), "ratio"},
      {"rwa.aux_graph.link_hit_rate",
       hit_rate(t.cache.link_hits, t.cache.link_misses), "ratio"},
      {"graph.suurballe.us_mean", us_mean(t.suurballe), "us"},
      {"graph.suurballe.share", ratio(t.suurballe.s, route_s), "ratio"},
      {"graph.suurballe.no_pair", per_sim(t.no_pair), "count"},
      {"rwa.layered_graph.us_mean", us_mean(t.layered), "us"},
      {"rwa.layered_graph.share", ratio(t.layered.s, route_s), "ratio"},
      {"rwa.layered_graph.arcs_per_call",
       ratio(static_cast<double>(t.arcs), 2.0 * static_cast<double>(t.layered.calls)),
       "count"},
      {"rwa.layered_graph.infeasible", per_sim(t.infeasible), "count"},
      {"rwa.mincog.us_mean", us_mean(t.mincog), "us"},
      {"rwa.mincog.share", loadcost ? ratio(t.mincog.s, route_s) : 0.0, "ratio"},
      {"rwa.mincog.probes_per_call",
       ratio(static_cast<double>(t.probes), static_cast<double>(t.mincog.calls)),
       "count"},
      {"rwa.mincog.exhausted", per_sim(t.exhausted), "count"},
      {"topology.build_s", median(topology_s), "s"},
      {"replay.mismatches", per_sim(t.mismatches), "count"},
      {"replay.gap_share", 1.0 - ratio(layers_s, route_s), "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: route_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--plant-spin-us <us>]\n");
    return 2;
  }
  const Workload* wl = find_workload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  support::telemetry::set_enabled(false);
  const Seeds seeds = derive_seeds(args.seed);
  const auto start = Clock::now();
  bool errors = false;

  // The measured loop: the same seeded simulation until time is up, and at
  // least kMinSims times untraced. Every simulation makes the same requests
  // against the same network states, so request i has one latency sample
  // per simulation. The host is shared and other load only ever adds time:
  // a request's latency is the least of its samples.
  constexpr std::size_t kMinSims = 3;
  const std::size_t min_sims = args.trace ? 1 : kMinSims;

  // Set-up is timed in batches: one before the first simulation and one
  // after each. The first set-ups of a batch run with caches cold from the
  // simulation and are not kept. Within a batch the host is steady, while
  // batches of one run differ by up to 2x; as for route(), the figure is
  // that of the least disturbed batch: its median set-up.
  constexpr int kSetupBatch = 12, kSetupColdDrop = 4;
  std::vector<double> setup_batch_medians, topology_s;
  const auto time_setups = [&] {
    std::vector<double> batch;
    for (int i = 0; i < kSetupBatch; ++i) {
      RepRecord unused;
      auto in = set_up(*wl, wl->horizon, seeds, 0.0, nullptr, &unused);
      if (i < kSetupColdDrop) continue;
      batch.push_back(in->setup_s);
      topology_s.push_back(in->topology_s);
    }
    setup_batch_medians.push_back(median(batch));
  };
  time_setups();

  std::vector<RepRecord> reps;
  double rss_mb = 0.0;
  while (reps.size() < min_sims ||
         seconds(start, Clock::now()) < args.seconds) {
    RepRecord& rec = reps.emplace_back();
    Replay replay(wl->pipeline);
    auto in = set_up(*wl, wl->horizon, seeds, args.plant_spin_us,
                     args.trace ? &replay : nullptr, &rec);
    run_simulation(*in, &rec);
    rec.cache = replay.cache_stats();
    // Peak memory of set-up plus one simulation, before the benchmark's own
    // per-simulation logs pile up.
    if (reps.size() == 1) rss_mb = peak_rss_mb();
    time_setups();
    if (rec.outcomes != reps.front().outcomes) {
      std::fprintf(stderr, "determinism: simulation %zu differs from the first\n",
                   reps.size() - 1);
      errors = true;
    }
  }
  // Determinism: an untraced re-run of the first eighth of the horizon must
  // make exactly the first full simulation's first requests, with the same
  // outcomes and costs. It is also the untraced reference for the traced
  // run's overhead.
  const RepRecord& first = reps.front();
  const RepRecord prefix = run_once(*wl, wl->horizon / 8.0, seeds);
  if (prefix.calls() > first.calls() ||
      !std::equal(prefix.outcomes.begin(), prefix.outcomes.end(),
                  first.outcomes.begin())) {
    std::fprintf(stderr, "determinism: the re-run prefix of seed %llu differs\n",
                 static_cast<unsigned long long>(args.seed));
    errors = true;
  }
  // Smoke-run a second, unmeasured seed through the same checks.
  const RepRecord smoke =
      run_once(*wl, wl->horizon / 8.0, derive_seeds(args.seed ^ 0x5eedULL));

  long attempted = 0, invalid = 0;
  for (const RepRecord* r : {&first, &prefix, &smoke}) {
    if (!books_agree(*r)) {
      std::fprintf(stderr,
                   "check: decorator saw %ld calls / %ld valid routes, "
                   "simulator %ld offered / %ld accepted\n",
                   r->calls(), r->found - r->invalid, r->metrics.offered,
                   r->metrics.accepted);
      errors = true;
    }
  }
  for (const RepRecord* r : {&prefix, &smoke}) {
    attempted += r->calls();
    invalid += r->invalid;
  }
  // Least-disturbed timings, request by request: route latency, and the
  // simulator wall time segment that ends with the request.
  std::vector<double> best(first.lat_us.begin() + std::min<std::size_t>(
                                wl->warmup, first.lat_us.size()),
                            first.lat_us.end());
  std::vector<double> best_segment = first.segment_s;
  std::string per_sim;
  for (const RepRecord& r : reps) {
    attempted += r.calls();
    invalid += r.invalid;
    for (std::size_t i = 0; i < std::min(best_segment.size(), r.segment_s.size());
         ++i) {
      best_segment[i] = std::min(best_segment[i], r.segment_s[i]);
    }
    const std::vector<double> lat(
        r.lat_us.begin() + std::min<std::size_t>(wl->warmup, r.lat_us.size()),
        r.lat_us.end());
    for (std::size_t i = 0; i < std::min(best.size(), lat.size()); ++i) {
      best[i] = std::min(best[i], lat[i]);
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.0f", median(lat));
    per_sim += buf;
  }
  if (invalid > 0) {
    std::fprintf(stderr, "check: %ld routes failed the output check\n", invalid);
  }

  const sim::SimMetrics& m = first.metrics;
  const double p99 = percentile(best, 0.99);
  std::printf("workload %s seed %llu: %zu simulation(s) of %ld requests, "
              "%zu timed (%ld beyond p99), blocked %ld, recoveries %ld; "
              "p50 us per simulation:%s\n",
              wl->name, static_cast<unsigned long long>(args.seed), reps.size(),
              m.offered, best.size(),
              std::count_if(best.begin(), best.end(),
                            [&](double x) { return x > p99; }),
              m.blocked, m.recoveries_succeeded, per_sim.c_str());
  std::printf("meta {\"nproc\": %ld, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\"}\n",
              sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, PERFBENCH_BUILD_TYPE);

  long failed = invalid;
  std::vector<Metric> out;
  if (!args.trace) {
    out = {
        {"route_p50_us", median(best), "us"},
        {"route_p99_us", p99, "us"},
        {"throughput_rps",
         ratio(static_cast<double>(m.offered),
               std::accumulate(best_segment.begin(), best_segment.end(), 0.0)),
         "1/s"},
        {"accept_ratio",
         ratio(static_cast<double>(m.accepted), static_cast<double>(m.offered)),
         "ratio"},
        {"route_cost_mean", m.route_cost.mean(), "cost"},
        {"valid_route_share",
         ratio(static_cast<double>(first.found - first.invalid),
               static_cast<double>(first.found)),
         "ratio"},
        {"setup_s",
         *std::min_element(setup_batch_medians.begin(),
                           setup_batch_medians.end()),
         "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    // Replay fidelity: the replay's blocked requests, attributed to one
    // cause each, must be exactly the router's blocked requests.
    const RepRecord& r = first;
    if (r.no_pair + r.infeasible + r.exhausted != r.calls() - r.found) {
      std::fprintf(stderr, "replay: blocked causes sum to %ld, router blocked %ld\n",
                   r.no_pair + r.infeasible + r.exhausted, r.calls() - r.found);
      errors = true;
    }
    long mismatches = 0;
    for (const RepRecord& x : reps) mismatches += x.mismatches;
    if (mismatches > 0) {
      std::fprintf(stderr, "replay: %ld outcome mismatches\n", mismatches);
    }
    failed += mismatches;
    out = per_layer_metrics(*wl, reps, prefix, topology_s);
    out.push_back({"check.invalid_route_share",
                   ratio(static_cast<double>(invalid),
                         static_cast<double>(attempted)),
                   "ratio"});
    std::printf("%-34s %14s  %s\n", "per-layer metric", "value", "unit");
    for (const Metric& x : out) {
      std::printf("%-34s %14.6g  %s\n", x.name.c_str(), x.value, x.unit);
    }
  }
  const bool correct = !errors && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              json_metrics(out).c_str());
  return 0;
}
