// The shared protection stage (auxiliary graph -> protected route) behind
// the four policy routers: a golden pin of what the routers return inside a
// churning, failing simulation, and the per-router telemetry accounting the
// stage's names tags wire up.
//
// The golden values pin routes, decisions and every result field the stage
// writes, compared as exact doubles. They were recorded on the routers'
// pre-stage implementation and re-recorded four times, when Suurballe's
// round 1 began stopping at t, when Suurballe became goal-directed, when
// the heap began popping equal keys in id order and when the simulator's
// Liang–Shen recovery solves became A*: each time equal-cost pairs and
// equal-cost wavelengths broke ties differently (the first request or
// recovery solve whose path moved kept its cost bit for bit).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rwa/approx_router.hpp"
#include "rwa/loadcost_router.hpp"
#include "rwa/mincog.hpp"
#include "rwa/node_disjoint_router.hpp"
#include "sim/simulator.hpp"
#include "support/telemetry.hpp"
#include "topology/network_builder.hpp"
#include "topology/topologies.hpp"

namespace wdm::rwa {
namespace {

struct Totals {
  long accepted = 0;
  long blocked = 0;
  double route_cost = 0.0;
  double aux_cost = 0.0;
  double theta = 0.0;
  long theta_iterations = 0;
  long srlg_exhaustive = 0;
};

/// Forwards every request to `inner` and folds each RouteResult into Totals.
/// NaN fields (ϑ of the cost routers, aux_cost of a pairless request) are
/// skipped.
class Recorder final : public Router {
 public:
  explicit Recorder(const Router& inner) : inner_(inner) {}

  RouteResult route(const net::WdmNetwork& net, net::NodeId s,
                    net::NodeId t) const override {
    RouteResult r = inner_.route(net, s, t);
    if (r.found) {
      ++totals_.accepted;
      totals_.route_cost += r.total_cost(net);
    } else {
      ++totals_.blocked;
    }
    if (!std::isnan(r.aux_cost)) totals_.aux_cost += r.aux_cost;
    if (!std::isnan(r.theta)) totals_.theta += r.theta;
    totals_.theta_iterations += r.theta_iterations;
    if (r.srlg_exhaustive) ++totals_.srlg_exhaustive;
    return r;
  }

  std::string name() const override { return inner_.name(); }
  const Totals& totals() const { return totals_; }

 private:
  const Router& inner_;
  mutable Totals totals_;
};

std::unique_ptr<Router> make_router(const std::string& name,
                                    net::ProtectPolicy policy) {
  if (name == "approx") {
    return std::make_unique<ApproxDisjointRouter>(true, policy);
  }
  if (name == "node_disjoint") {
    return std::make_unique<NodeDisjointRouter>(policy);
  }
  if (name == "minload") {
    return std::make_unique<MinLoadRouter>(MinCogOptions{}, policy);
  }
  return std::make_unique<LoadCostRouter>(MinCogOptions{}, false, policy);
}

/// NSFNET, W=8, with shared-risk groups over distinct fibers, so the SRLG
/// policy both constrains pairs and fires correlated cuts.
net::WdmNetwork srlg_nsfnet() {
  net::WdmNetwork n = topo::nsfnet_network(8, 0.5);
  n.add_srlg({0, 6, 12}, 0.3);
  n.add_srlg({2, 8}, 0.2);
  n.add_srlg({4, 10, 16, 22}, 0.2);
  n.add_srlg({14, 20}, 0.3);
  return n;
}

sim::SimOptions churn_options() {
  sim::SimOptions opt;
  opt.traffic.arrival_rate = 20.0;
  opt.traffic.mean_holding = 1.0;
  opt.duration = 20.0;
  opt.seed = 17;
  opt.failures.duplex_failure_rate = 0.02;
  opt.failures.srlg_failure_rate = 0.2;
  opt.failures.mean_repair = 1.5;
  opt.failures.reprovision_backup = true;
  opt.reverse_of = topo::nsfnet().reverse_of;
  return opt;
}

Totals run_recorded(const Router& router) {
  Recorder rec(router);
  sim::Simulator sim(srlg_nsfnet(), rec, churn_options());
  (void)sim.run();
  return rec.totals();
}

struct GoldenRow {
  const char* router;
  const char* policy;
  Totals want;
};

// Σ values are exact doubles (%.17g round-trips); the failure message
// prints the measured row in this format.
const GoldenRow kGolden[] = {
    {"approx", "full", {348, 26, 2129.5, 2693.26696995465, 0, 0, 0}},
    {"approx", "srlg", {350, 20, 2241.5, 2854.9841496598656, 0, 0, 324}},
    {"node_disjoint", "full", {367, 21, 2233.5, 2831.2833247118292, 0, 0, 0}},
    {"node_disjoint", "srlg", {355, 45, 2257, 2857.0215374622085, 0, 0, 361}},
    {"minload", "full",
     {369, 26, 2387, 275.15344071298199, 287.984375, 960, 0}},
    {"minload", "srlg",
     {360, 32, 2304, 261.22064142783154, 260.640625, 1002, 333}},
    {"loadcost", "full",
     {324, 17, 2078, 1942.6191071428573, 238.703125, 830, 0}},
    {"loadcost", "srlg",
     {350, 62, 2307, 2122.8937755102033, 276.703125, 1014, 325}},
};

std::string format_row(const std::string& router, const std::string& policy,
                       const Totals& x) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", \"%s\", {%ld, %ld, %.17g, %.17g, %.17g, %ld, %ld}}",
                router.c_str(), policy.c_str(), x.accepted, x.blocked,
                x.route_cost, x.aux_cost, x.theta, x.theta_iterations,
                x.srlg_exhaustive);
  return buf;
}

TEST(ProtectionStageGolden, FourRoutersTwoPoliciesUnderChurnAndCuts) {
  for (const GoldenRow& row : kGolden) {
    const std::string policy_name = row.policy;
    const net::ProtectPolicy policy = policy_name == "srlg"
                                          ? net::ProtectPolicy::srlg()
                                          : net::ProtectPolicy::full();
    const std::unique_ptr<Router> router = make_router(row.router, policy);
    const Totals got = run_recorded(*router);
    SCOPED_TRACE(format_row(row.router, row.policy, got));
    EXPECT_EQ(got.accepted, row.want.accepted);
    EXPECT_EQ(got.blocked, row.want.blocked);
    EXPECT_EQ(got.route_cost, row.want.route_cost);
    EXPECT_EQ(got.aux_cost, row.want.aux_cost);
    EXPECT_EQ(got.theta, row.want.theta);
    EXPECT_EQ(got.theta_iterations, row.want.theta_iterations);
    EXPECT_EQ(got.srlg_exhaustive, row.want.srlg_exhaustive);
  }
}

/// Forwards every request to `inner` and checks, per call, the stage
/// histograms of the router whose telemetry prefix is `prefix` against the
/// call's own route_ns sample, from count/sum deltas taken around the call
/// (the run is serial, so the deltas are this call's alone). The stages a
/// call records are a prefix of (theta_search,) aux_build, suurballe,
/// liang_shen, cut where the request was blocked; they account for no more
/// time than the call's route_ns sample.
class StageProbe final : public Router {
 public:
  StageProbe(const Router& inner, const std::string& prefix, bool theta)
      : inner_(inner),
        route_(support::telemetry::histogram(prefix + "route_ns")) {
    namespace tel = support::telemetry;
    if (theta) stages_.push_back(&tel::histogram(prefix + "theta_search_ns"));
    for (const char* st : {"aux_build_ns", "suurballe_ns", "liang_shen_ns"}) {
      stages_.push_back(&tel::histogram(prefix + st));
    }
  }

  RouteResult route(const net::WdmNetwork& net, net::NodeId s,
                    net::NodeId t) const override {
    std::vector<std::uint64_t> count0;
    std::uint64_t stage_ns0 = 0;
    for (const auto* h : stages_) {
      count0.push_back(h->count());
      stage_ns0 += h->sum_ns();
    }
    const std::uint64_t route_count0 = route_.count();
    const std::uint64_t route_ns0 = route_.sum_ns();
    RouteResult r = inner_.route(net, s, t);

    ++calls_;
    std::size_t have = 0;
    while (have < stages_.size() && stages_[have]->count() > count0[have]) {
      ++have;
    }
    bool prefix = have >= 2;  // the first two stages run on every request
    std::uint64_t stage_ns = 0;
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      if (i >= have && stages_[i]->count() != count0[i]) prefix = false;
      stage_ns += stages_[i]->sum_ns();
    }
    stage_ns -= stage_ns0;
    if (!prefix) note("stages are not a prefix", s, t);
    if (route_.count() != route_count0 + 1) {
      note("route_ns did not record exactly one sample", s, t);
    }
    if (stage_ns > route_.sum_ns() - route_ns0) {
      note("stage ns exceed the call's route_ns", s, t);
    }
    if (r.found && have < stages_.size()) {
      note("found without every stage", s, t);
    }
    return r;
  }

  std::string name() const override { return inner_.name(); }
  long calls() const { return calls_; }
  long violations() const { return violations_; }
  const std::string& first_violation() const { return first_; }

 private:
  void note(const char* what, net::NodeId s, net::NodeId t) const {
    if (violations_++ == 0) {
      first_ = "call " + std::to_string(calls_) + " (" + std::to_string(s) +
               " -> " + std::to_string(t) + "): " + what;
    }
  }

  const Router& inner_;
  std::vector<const support::telemetry::LatencyHistogram*> stages_;
  const support::telemetry::LatencyHistogram& route_;
  mutable long calls_ = 0;
  mutable long violations_ = 0;
  mutable std::string first_;
};

// Every router's telemetry goes through its names tag: attempts split
// exactly into found + blocked, every attempt records one route total, and
// each route() call's stage histograms satisfy StageProbe under that
// router's own prefix. The load-aware routers build their one arena before
// the ϑ search, so every one of their calls records both theta_search and
// aux_build.
TEST(ProtectionStageTelemetry, AttemptsSplitIntoFoundAndBlockedPerRouter) {
  namespace tel = support::telemetry;
  if (!tel::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  for (const std::string r : {"approx", "node_disjoint", "minload", "loadcost"}) {
    for (const bool srlg : {false, true}) {
      SCOPED_TRACE(r + (srlg ? " srlg" : " full"));
      const std::unique_ptr<Router> router = make_router(
          r, srlg ? net::ProtectPolicy::srlg() : net::ProtectPolicy::full());
      const std::string prefix = "rwa." + r + ".";
      const bool theta = r == "minload" || r == "loadcost";
      tel::reset();
      tel::set_enabled(true);
      const StageProbe probe(*router, prefix, theta);
      (void)run_recorded(probe);
      tel::set_enabled(false);

      std::map<std::string, std::uint64_t> counters = tel::counter_values();
      const std::uint64_t attempts = counters[prefix + "attempts"];
      const std::uint64_t found = counters[prefix + "found"];
      EXPECT_GT(attempts, 0u);
      EXPECT_GT(found, 0u);
      EXPECT_EQ(attempts, found + counters[prefix + "blocked"]);
      EXPECT_EQ(tel::histogram(prefix + "route_ns").count(), attempts);
      EXPECT_EQ(static_cast<std::uint64_t>(probe.calls()), attempts);
      EXPECT_EQ(probe.violations(), 0) << probe.first_violation();
      tel::reset();
    }
  }
}

}  // namespace
}  // namespace wdm::rwa
