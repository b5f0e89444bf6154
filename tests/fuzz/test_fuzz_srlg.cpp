// SRLG-aware protection fuzz battery: shared-risk-group annotations,
// SRLG-disjoint routing, partial protection, and their independent oracles.
//
// The headline sweep replays >= 1000 seeded instances (trap, bridge, and
// srlg-trap gadgets included) through the full invariant suite with SRLG
// generation enabled; a smaller sweep keeps the brute-force completeness
// oracle honest. Deterministic gadget tests pin the conflict-set search's
// behavior on the exact structures it exists for.
//
// Budget knobs:
//   WDM_FUZZ_SRLG_ITERATIONS  headline sweep size (default 1000)
#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz/generator.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/invariants.hpp"
#include "rwa/approx_router.hpp"
#include "rwa/aux_graph.hpp"
#include "rwa/layered_graph.hpp"
#include "rwa/srlg.hpp"
#include "support/env.hpp"
#include "wdm/io.hpp"

namespace wdm::fuzz {
namespace {

GenOptions srlg_gen() {
  GenOptions gen;
  gen.srlg_probability = 0.7;
  return gen;
}

/// s=0, a=1, b=2, c=3, t=4: the min-cost disjoint pair rides links 1 and 3,
/// which share a conduit; the only SRLG-disjoint escape detours through c.
net::WdmNetwork shared_conduit_network() {
  net::WdmNetwork n(5, 2);
  for (net::NodeId v = 0; v < 5; ++v) {
    n.set_conversion(v, net::ConversionTable::full(2, 0.0));
  }
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);  // 0: s->a
  n.add_link(1, 4, net::WavelengthSet::all(2), 1.0);  // 1: a->t
  n.add_link(0, 2, net::WavelengthSet::all(2), 1.0);  // 2: s->b
  n.add_link(2, 4, net::WavelengthSet::all(2), 1.0);  // 3: b->t
  n.add_link(0, 3, net::WavelengthSet::all(2), 5.0);  // 4: s->c
  n.add_link(3, 4, net::WavelengthSet::all(2), 5.0);  // 5: c->t
  n.add_srlg({1, 3}, 0.5);
  return n;
}

/// Same trap without the detour: every s->t pair shares the conduit, so no
/// SRLG-disjoint pair exists at all.
net::WdmNetwork shared_conduit_no_escape() {
  net::WdmNetwork n(4, 2);
  for (net::NodeId v = 0; v < 4; ++v) {
    n.set_conversion(v, net::ConversionTable::full(2, 0.0));
  }
  n.add_link(0, 1, net::WavelengthSet::all(2), 1.0);  // 0: s->a
  n.add_link(1, 3, net::WavelengthSet::all(2), 1.0);  // 1: a->t
  n.add_link(0, 2, net::WavelengthSet::all(2), 1.0);  // 2: s->b
  n.add_link(2, 3, net::WavelengthSet::all(2), 1.0);  // 3: b->t
  n.add_srlg({1, 3}, 0.4);
  return n;
}

FuzzInstance as_instance(net::WdmNetwork net, net::NodeId s, net::NodeId t,
                         const char* family) {
  FuzzInstance inst;
  inst.network = std::move(net);
  inst.s = s;
  inst.t = t;
  inst.family = family;
  return inst;
}

TEST(SrlgFuzz, ThousandSeededInstancesSatisfyAllInvariants) {
  HarnessOptions opt;
  opt.num_instances =
      static_cast<int>(support::env_int("WDM_FUZZ_SRLG_ITERATIONS", 1000));
  opt.base_seed = 0x5197c000;
  opt.gen = srlg_gen();
  // The SRLG invariants carry this sweep; the slow edge-disjoint exact and
  // ILP oracles get their budget in the main differential sweep and in
  // CompletenessOracleSweep below.
  opt.check.run_exact = false;
  opt.ilp_every = 0;
  const HarnessReport report = run_fuzz(opt);
  EXPECT_EQ(report.instances_run, opt.num_instances);
  EXPECT_TRUE(report.ok()) << report.summary();
  // The adversarial gadgets must actually show up in the mix.
  for (const char* family : {"srlg-trap", "trap", "bridge"}) {
    const auto it = report.instances_per_family.find(family);
    EXPECT_TRUE(it != report.instances_per_family.end() && it->second > 0)
        << "family " << family << " never generated";
  }
}

TEST(SrlgFuzz, CompletenessOracleSweep) {
  // Full oracle set (including the brute-force SRLG-pair enumeration that
  // cross-examines every exhaustive block) on a denser-but-smaller pass.
  HarnessOptions opt;
  opt.num_instances = std::max(
      50, static_cast<int>(
              support::env_int("WDM_FUZZ_SRLG_ITERATIONS", 1000)) / 5);
  opt.base_seed = 0x5197c777;
  opt.gen = srlg_gen();
  const HarnessReport report = run_fuzz(opt);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(SrlgFuzz, GeneratorDeterministicWithSrlgs) {
  for (std::uint64_t seed : {3ull, 77ull, 0xabcdef01ull}) {
    const FuzzInstance a = generate_instance(seed, srlg_gen());
    const FuzzInstance b = generate_instance(seed, srlg_gen());
    EXPECT_EQ(a.s, b.s);
    EXPECT_EQ(a.t, b.t);
    EXPECT_EQ(a.family, b.family);
    // Byte-identical including the srlg blocks.
    EXPECT_EQ(io::write_network(a.network), io::write_network(b.network));
  }
}

TEST(SrlgFuzz, DefaultOptionsNeverGenerateSrlgs) {
  // srlg_probability == 0 must leave the RNG stream untouched: no instance
  // carries groups, and pre-SRLG seeds reproduce their instances exactly.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const FuzzInstance inst = generate_instance(seed);
    EXPECT_EQ(inst.network.num_srlgs(), 0) << "seed " << seed;
  }
}

TEST(SrlgFuzz, SrlgModeAnnotatesAndCoversTrapFamily) {
  int annotated = 0, traps = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const FuzzInstance inst = generate_instance(seed, srlg_gen());
    if (inst.network.num_srlgs() > 0) ++annotated;
    if (inst.family == "srlg-trap") {
      ++traps;
      EXPECT_GE(inst.network.num_srlgs(), 1);
    }
  }
  // srlg_probability 0.7 plus the always-annotated trap family: well over
  // half the instances must carry groups.
  EXPECT_GT(annotated, 150);
  EXPECT_GT(traps, 10);
}

TEST(SrlgTrap, ConflictSearchEscapesSharedConduit) {
  const net::WdmNetwork net = shared_conduit_network();
  const rwa::ApproxDisjointRouter full(true, net::ProtectPolicy::full());
  const rwa::ApproxDisjointRouter srlg(true, net::ProtectPolicy::srlg());

  const rwa::RouteResult fr = full.route(net, 0, 4);
  ASSERT_TRUE(fr.found);
  EXPECT_DOUBLE_EQ(fr.total_cost(net), 4.0);  // the shared-conduit pair

  const rwa::RouteResult sr = srlg.route(net, 0, 4);
  ASSERT_TRUE(sr.found);
  EXPECT_TRUE(sr.srlg_exhaustive);
  EXPECT_DOUBLE_EQ(sr.total_cost(net), 12.0);  // forced onto the detour

  // The independent oracle agrees: kFull's pair shares SRLG 0, kSrlg's does
  // not.
  const FuzzInstance inst = as_instance(net, 0, 4, "manual");
  std::vector<Violation> v;
  check_srlg_disjoint(inst, fr, "full-on-gadget", v);
  ASSERT_EQ(v.size(), 1u) << "harness failed to flag the shared conduit";
  EXPECT_EQ(v[0].invariant, "srlg-disjoint");
  v.clear();
  check_srlg_disjoint(inst, sr, "srlg-on-gadget", v);
  EXPECT_TRUE(v.empty()) << v[0].to_string();
}

TEST(SrlgTrap, BlocksAndProvesExhaustionWhenNoEscapeExists) {
  const net::WdmNetwork net = shared_conduit_no_escape();
  const rwa::ApproxDisjointRouter full(true, net::ProtectPolicy::full());
  const rwa::ApproxDisjointRouter srlg(true, net::ProtectPolicy::srlg());

  EXPECT_TRUE(full.route(net, 0, 3).found);
  const rwa::RouteResult sr = srlg.route(net, 0, 3);
  EXPECT_FALSE(sr.found);
  EXPECT_TRUE(sr.srlg_exhaustive);

  // The brute-force oracle confirms the block is genuine.
  const auto exists = srlg_pair_exists_bruteforce(net, 0, 3, 8, 24, 4000);
  ASSERT_TRUE(exists.has_value());
  EXPECT_FALSE(*exists);
}

TEST(SrlgTrap, BruteForceFindsTheEscapeWhenItExists) {
  const net::WdmNetwork net = shared_conduit_network();
  const auto exists = srlg_pair_exists_bruteforce(net, 0, 4, 8, 24, 4000);
  ASSERT_TRUE(exists.has_value());
  EXPECT_TRUE(*exists);
}

TEST(SrlgPairSearch, LowLevelResultIsSrlgDisjoint) {
  const net::WdmNetwork net = shared_conduit_network();
  rwa::AuxGraphOptions aopt;
  aopt.weighting = rwa::AuxWeighting::kCost;
  const rwa::AuxGraph aux = rwa::build_aux_graph(net, 0, 4, aopt);
  const rwa::SrlgPairResult sp = rwa::srlg_disjoint_pair(net, aux);
  ASSERT_TRUE(sp.pair.found);
  EXPECT_TRUE(sp.exhaustive);
  // Project both paths and verify no physical link appears twice and links
  // 1 and 3 never co-occur.
  std::vector<graph::EdgeId> a = aux.project(sp.pair.first);
  std::vector<graph::EdgeId> b = aux.project(sp.pair.second);
  for (graph::EdgeId e : a) {
    EXPECT_EQ(std::count(b.begin(), b.end(), e), 0) << "shared link " << e;
  }
  const bool a_conduit =
      std::count(a.begin(), a.end(), 1) || std::count(a.begin(), a.end(), 3);
  const bool b_conduit =
      std::count(b.begin(), b.end(), 1) || std::count(b.begin(), b.end(), 3);
  EXPECT_FALSE(a_conduit && b_conduit);
}

TEST(PartialProtection, CoversOnlyRiskySegments) {
  // s=0 -> 1 -> t=3 is the cheap primary; its second hop (link 1) belongs to
  // a p=0.3 group. Strict threshold: backup must dodge link 1. Permissive
  // threshold: no backup at all.
  net::WdmNetwork net(4, 2);
  for (net::NodeId v = 0; v < 4; ++v) {
    net.set_conversion(v, net::ConversionTable::full(2, 0.0));
  }
  net.add_link(0, 1, net::WavelengthSet::all(2), 1.0);  // 0
  net.add_link(1, 3, net::WavelengthSet::all(2), 1.0);  // 1 (risky)
  net.add_link(0, 2, net::WavelengthSet::all(2), 2.0);  // 2
  net.add_link(2, 3, net::WavelengthSet::all(2), 2.0);  // 3
  net.add_srlg({1}, 0.3);

  const rwa::ApproxDisjointRouter strict(true, net::ProtectPolicy::partial(0.1));
  const rwa::RouteResult sr = strict.route(net, 0, 3);
  ASSERT_TRUE(sr.found);
  ASSERT_TRUE(sr.route.backup.found);
  for (const net::Hop& h : sr.route.backup.hops) {
    EXPECT_NE(h.edge, 1) << "backup rides the risky link";
  }
  EXPECT_TRUE(sr.route.feasible(net));

  const rwa::ApproxDisjointRouter lax(true, net::ProtectPolicy::partial(0.5));
  const rwa::RouteResult lr = lax.route(net, 0, 3);
  ASSERT_TRUE(lr.found);
  EXPECT_FALSE(lr.route.backup.found);  // nothing risky enough to cover
  EXPECT_TRUE(lr.route.feasible(net));

  const FuzzInstance inst = as_instance(net, 0, 3, "manual");
  std::vector<Violation> v;
  check_partial_coverage(inst, sr, 0.1, "strict", v);
  check_partial_coverage(inst, lr, 0.5, "lax", v);
  EXPECT_TRUE(v.empty()) << v[0].to_string();
}

TEST(PartialProtection, BlocksWhenRiskySegmentHasNoCover) {
  // A 3-node chain: the only path rides the risky link, and there is no
  // alternative — partial protection must refuse, like full protection on a
  // bridge.
  net::WdmNetwork net(3, 2);
  for (net::NodeId v = 0; v < 3; ++v) {
    net.set_conversion(v, net::ConversionTable::full(2, 0.0));
  }
  net.add_link(0, 1, net::WavelengthSet::all(2), 1.0);  // 0
  net.add_link(1, 2, net::WavelengthSet::all(2), 1.0);  // 1 (risky)
  net.add_srlg({1}, 0.6);

  const rwa::ApproxDisjointRouter strict(true, net::ProtectPolicy::partial(0.1));
  EXPECT_FALSE(strict.route(net, 0, 2).found);
  // Above the threshold the same request sails through unprotected.
  const rwa::ApproxDisjointRouter lax(true, net::ProtectPolicy::partial(0.9));
  const rwa::RouteResult lr = lax.route(net, 0, 2);
  ASSERT_TRUE(lr.found);
  EXPECT_FALSE(lr.route.backup.found);
}

TEST(SrlgFuzz, HarnessFlagsPartialCoverageViolation) {
  // Mutation sensitivity: a route whose "backup" rides the risky link itself
  // must trip the partial-coverage oracle.
  net::WdmNetwork net(3, 2);
  for (net::NodeId v = 0; v < 3; ++v) {
    net.set_conversion(v, net::ConversionTable::full(2, 0.0));
  }
  net.add_link(0, 1, net::WavelengthSet::all(2), 1.0);
  net.add_link(1, 2, net::WavelengthSet::all(2), 1.0);
  net.add_srlg({1}, 0.6);

  rwa::RouteResult broken;
  broken.found = true;
  broken.route.found = true;
  broken.route.policy = net::ProtectPolicy::partial(0.1);
  broken.route.primary.found = true;
  broken.route.primary.hops = {{0, 0}, {1, 0}};
  broken.route.backup.found = true;
  broken.route.backup.hops = {{0, 1}, {1, 1}};  // rides risky link 1

  const FuzzInstance inst = as_instance(net, 0, 2, "manual");
  std::vector<Violation> v;
  check_partial_coverage(inst, broken, 0.1, "mutant", v);
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].invariant, "partial-coverage");
}

/// The oracle for route_partial: its backup searches a copy of the network
/// with the primary reserved in it, and its conflict set is built pairwise
/// from links_share_srlg.
rwa::RouteResult route_partial_by_copy(const net::WdmNetwork& net,
                                       net::NodeId s, net::NodeId t,
                                       double threshold) {
  rwa::RouteResult result;
  result.route.policy = net::ProtectPolicy::partial(threshold);
  net::Semilightpath primary = rwa::optimal_semilightpath(net, s, t);
  if (!primary.found) {
    result.blocked_by = rwa::BlockedBy::kPartialClosure;
    return result;
  }
  std::vector<graph::EdgeId> risky;
  for (const net::Hop& h : primary.hops) {
    if (net.link_failure_probability(h.edge) > threshold) {
      risky.push_back(h.edge);
    }
  }
  result.found = true;
  result.route.found = true;
  result.route.primary = primary;
  if (risky.empty()) return result;
  std::vector<std::uint8_t> enabled(static_cast<std::size_t>(net.num_links()));
  for (graph::EdgeId f = 0; f < net.num_links(); ++f) {
    const bool conflict = std::any_of(
        risky.begin(), risky.end(),
        [&](graph::EdgeId e) { return e == f || net.links_share_srlg(e, f); });
    enabled[static_cast<std::size_t>(f)] = conflict ? 0 : 1;
    if (conflict) result.route.avoid.push_back(f);
  }
  net::WdmNetwork scratch = net;
  primary.reserve_in(scratch);
  result.route.backup = rwa::optimal_semilightpath(scratch, s, t, enabled);
  if (!result.route.backup.found) {
    result = {};
    result.blocked_by = rwa::BlockedBy::kPartialClosure;
  }
  return result;
}

TEST(PartialProtection, LinkViewBackupMatchesScratchCopyOracle) {
  // Dense preloads make the residual matter; thresholds from "every link in
  // a group is risky" to "few are" vary how many primary links stay open to
  // the backup at other wavelengths.
  GenOptions gen = srlg_gen();
  gen.preload_probability = 0.3;
  int protected_routes = 0;
  int shared_links = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const FuzzInstance inst = generate_instance(0x9a27a1000 + seed, gen);
    for (const double threshold : {0.0, 0.1, 0.3}) {
      const rwa::RouteResult got =
          rwa::route_partial(inst.network, inst.s, inst.t, threshold);
      const rwa::RouteResult want =
          route_partial_by_copy(inst.network, inst.s, inst.t, threshold);
      const std::string where = "seed " + std::to_string(seed) +
                                " threshold " + std::to_string(threshold);
      ASSERT_EQ(got.found, want.found) << where;
      EXPECT_EQ(got.blocked_by, want.blocked_by) << where;
      if (!got.found) continue;
      EXPECT_EQ(got.route.primary.hops, want.route.primary.hops) << where;
      ASSERT_EQ(got.route.backup.found, want.route.backup.found) << where;
      EXPECT_EQ(got.route.backup.hops, want.route.backup.hops) << where;
      EXPECT_EQ(got.route.avoid, want.route.avoid) << where;
      if (!got.route.backup.found) continue;
      ++protected_routes;
      for (const net::Hop& b : got.route.backup.hops) {
        for (const net::Hop& p : got.route.primary.hops) {
          if (b.edge == p.edge) ++shared_links;
        }
      }
    }
  }
  // The sweep must exercise protected routes, and backups that reuse a
  // primary link at another wavelength (what the view's channel removal is
  // for).
  EXPECT_GT(protected_routes, 100);
  EXPECT_GT(shared_links, 0);
}

}  // namespace
}  // namespace wdm::fuzz
