#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"
#include "support/telemetry.hpp"

namespace wdm::sim {

std::vector<double> hotspot_matrix(net::NodeId num_nodes,
                                   const std::vector<net::NodeId>& hotspots,
                                   double hot_factor) {
  WDM_CHECK(hot_factor >= 0.0);
  const auto n = static_cast<std::size_t>(num_nodes);
  std::vector<std::uint8_t> hot(n, 0);
  for (net::NodeId h : hotspots) {
    WDM_CHECK(h >= 0 && h < num_nodes);
    hot[static_cast<std::size_t>(h)] = 1;
  }
  std::vector<double> w(n * n, 1.0);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = 0; t < n; ++t) {
      if (s == t) {
        w[s * n + t] = 0.0;
      } else if (hot[s] || hot[t]) {
        w[s * n + t] = hot_factor;
      }
    }
  }
  return w;
}

std::vector<double> gravity_matrix(const topo::Topology& topology) {
  const auto n = static_cast<std::size_t>(topology.num_nodes());
  std::vector<double> w(n * n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = 0; t < n; ++t) {
      if (s == t) continue;
      const double dx = topology.coords[s].first - topology.coords[t].first;
      const double dy = topology.coords[s].second - topology.coords[t].second;
      w[s * n + t] = 1.0 / (1.0 + dx * dx + dy * dy);
    }
  }
  return w;
}

Simulator::Simulator(net::WdmNetwork network, const rwa::Router& router,
                     SimOptions options)
    : net_(std::move(network)), router_(router), opt_(std::move(options)),
      rng_(opt_.seed) {
  WDM_CHECK(opt_.duration > 0.0);
  WDM_CHECK(opt_.traffic.arrival_rate > 0.0);
  WDM_CHECK(opt_.traffic.mean_holding > 0.0);
  WDM_CHECK(net_.num_nodes() >= 2);
  WDM_CHECK(opt_.reverse_of.empty() ||
            opt_.reverse_of.size() == static_cast<std::size_t>(net_.num_links()));

  // Nonuniform traffic: precompute the pair CDF once.
  if (!opt_.traffic.pair_weight.empty()) {
    const auto n = static_cast<std::size_t>(net_.num_nodes());
    WDM_CHECK_MSG(opt_.traffic.pair_weight.size() == n * n,
                  "pair_weight must be an n x n matrix");
    double total = 0.0;
    pair_cdf_.reserve(n * n);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t t = 0; t < n; ++t) {
        const double w = (s == t) ? 0.0 : opt_.traffic.pair_weight[s * n + t];
        WDM_CHECK_MSG(w >= 0.0, "pair weights must be nonnegative");
        total += w;
        pair_cdf_.push_back(total);
      }
    }
    WDM_CHECK_MSG(total > 0.0, "pair_weight has no positive off-diagonal");
    for (double& c : pair_cdf_) c /= total;
  }

  // Duplex inventory for the failure process. Without reverse pairing each
  // directed edge is its own failure unit.
  if (opt_.reverse_of.empty()) {
    for (graph::EdgeId e = 0; e < net_.num_links(); ++e) {
      duplex_.emplace_back(e, e);
    }
  } else {
    for (graph::EdgeId e = 0; e < net_.num_links(); ++e) {
      const graph::EdgeId r = opt_.reverse_of[static_cast<std::size_t>(e)];
      if (e < r) duplex_.emplace_back(e, r);
    }
  }
  fail_depth_.assign(static_cast<std::size_t>(net_.num_links()), 0);
}

void Simulator::schedule_arrival(double now) {
  const double t = now + rng_.exponential(opt_.traffic.arrival_rate);
  if (t <= opt_.duration) {
    queue_.push(Event{t, EventType::kArrival, 0});
  }
}

bool Simulator::path_uses(const net::Semilightpath& p,
                          std::span<const graph::EdgeId> cut) const {
  return p.found &&
         std::any_of(p.hops.begin(), p.hops.end(), [&](const net::Hop& h) {
           return std::find(cut.begin(), cut.end(), h.edge) != cut.end();
         });
}

void Simulator::fail_link(graph::EdgeId e) {
  if (++fail_depth_[static_cast<std::size_t>(e)] == 1) {
    net_.set_link_failed(e, true);
  }
}

void Simulator::repair_link(graph::EdgeId e) {
  WDM_CHECK_MSG(fail_depth_[static_cast<std::size_t>(e)] > 0,
                "repair of a link that is not failed");
  if (--fail_depth_[static_cast<std::size_t>(e)] == 0) {
    net_.set_link_failed(e, false);
  }
}

void Simulator::finish_connection(const Connection& c, double now,
                                  bool completed) {
  const double requested = c.holding;
  if (requested <= 0.0) return;  // no service was requested (defensive)
  double delivered =
      completed ? requested - c.downtime : (now - c.arrival) - c.downtime;
  delivered = std::clamp(delivered, 0.0, requested);
  metrics_.availability.add(delivered / requested);
  metrics_.service_requested += requested;
  metrics_.service_delivered += delivered;
}

void Simulator::release_connection(Connection& c) {
  c.primary.release_in(net_);
  if (c.has_backup) c.backup.release_in(net_);
  c.has_backup = false;
}

std::pair<net::NodeId, net::NodeId> Simulator::draw_pair() {
  const auto n = static_cast<std::int64_t>(net_.num_nodes());
  if (pair_cdf_.empty()) {
    const auto s = static_cast<net::NodeId>(rng_.uniform_int(0, n - 1));
    net::NodeId t = s;
    while (t == s) t = static_cast<net::NodeId>(rng_.uniform_int(0, n - 1));
    return {s, t};
  }
  while (true) {
    const double u = rng_.uniform();
    auto it = std::lower_bound(pair_cdf_.begin(), pair_cdf_.end(), u);
    if (it == pair_cdf_.end()) --it;  // u at the numeric top edge
    const auto idx =
        static_cast<std::size_t>(std::distance(pair_cdf_.begin(), it));
    const auto s = static_cast<net::NodeId>(idx / static_cast<std::size_t>(n));
    const auto t = static_cast<net::NodeId>(idx % static_cast<std::size_t>(n));
    // u == 0 can land on a zero-mass slot (e.g. the diagonal); redraw.
    if (s != t) return {s, t};
  }
}

void Simulator::sample_load() {
  const double rho = net_.network_load();
  metrics_.network_load.add(rho);
  metrics_.mean_link_load.add(net_.mean_load());
  metrics_.peak_load = std::max(metrics_.peak_load, rho);
}

void Simulator::advance_series(double t) {
  if (series_dt_ <= 0.0) return;
  // Departures can pop after the horizon; the series covers (0, duration]
  // only — exactly duration/series_dt_ samples, the last at end-of-run.
  t = std::min(t, opt_.duration);
  while (next_sample_ <= t) {
    sample_series(next_sample_);
    next_sample_ += series_dt_;
  }
}

void Simulator::sample_series(double t) {
  namespace tel = support::telemetry;
  if (!tel::enabled()) return;
  // `sim.series.*` samples read only committed simulator state at a sim-time
  // boundary, so they are a pure function of the seed (golden values in
  // test_telemetry.cpp). Direct series() calls (not
  // macros) — the handles are cached in statics below.
  static tel::Series& rho = tel::series("sim.series.load_rho");
  static tel::Series& offered = tel::series("sim.series.offered");
  static tel::Series& accepted = tel::series("sim.series.accepted");
  static tel::Series& blocked = tel::series("sim.series.blocked");
  static tel::Series& blocking = tel::series("sim.series.blocking_probability");
  static tel::Series& live = tel::series("sim.series.live_connections");
  static tel::Series& avail = tel::series("sim.series.availability");
  static tel::Series& srlg_fails = tel::series("sim.series.srlg_failures");
  rho.add(t, net_.network_load());
  avail.add(t, metrics_.reliability());
  srlg_fails.add(t, static_cast<double>(metrics_.srlg_failures));
  offered.add(t, static_cast<double>(metrics_.offered));
  accepted.add(t, static_cast<double>(metrics_.accepted));
  blocked.add(t, static_cast<double>(metrics_.blocked));
  blocking.add(t, metrics_.blocking_probability());
  live.add(t, static_cast<double>(live_.size()));
  // `rwa.series.*` samples read cross-cutting RWA-layer state (warm-cache
  // effectiveness) — diagnostics of the router's caches, not part of the
  // sim.* determinism contract. conv_cache_hit_rate is the cumulative share
  // of transit pairs whose stored mean a build kept. Every build counts
  // every transit pair once, so the share rises towards 1 as the run goes
  // on; misses mark pairs whose links or conversion table moved since
  // their mean was last computed.
  static tel::Counter& conv_hits = tel::counter("rwa.aux_builder.conv_hits");
  static tel::Counter& conv_misses =
      tel::counter("rwa.aux_builder.conv_misses");
  static tel::Series& hit_rate = tel::series("rwa.series.conv_cache_hit_rate");
  const double hits = static_cast<double>(conv_hits.value());
  const double lookups = hits + static_cast<double>(conv_misses.value());
  if (lookups > 0.0) hit_rate.add(t, hits / lookups);
}

void Simulator::handle_arrival(double now) {
  ++metrics_.offered;
  WDM_TEL_COUNT("sim.offered");
  schedule_arrival(now);

  const auto [s, t] = draw_pair();
  if (batch_mode()) {
    // Batch mode: park the request until the next provisioning tick. The
    // holding time is drawn now so the RNG stream is independent of the
    // commit outcome.
    pending_.push_back(
        {s, t, rng_.exponential(1.0 / opt_.traffic.mean_holding)});
    return;
  }

  // Route-on-arrival.
  const rwa::RouteResult rr = router_.route(net_, s, t);
  Connection c;
  if (!place(rr, c)) {
    block(rr.found ? rwa::BlockedBy::kNone : rr.blocked_by);
  } else {
    c.id = next_conn_id_++;
    c.s = s;
    c.t = t;
    double cost = c.primary.cost(net_);
    if (c.has_backup) cost += c.backup.cost(net_);
    metrics_.route_cost.add(cost);
    if (rr.theta_iterations > 0) {
      metrics_.theta_iterations.add(rr.theta_iterations);
    }
    const double hold = rng_.exponential(1.0 / opt_.traffic.mean_holding);
    c.arrival = now;
    c.holding = hold;
    queue_.push(Event{now + hold, EventType::kDeparture, c.id});
    ++metrics_.accepted;
    WDM_TEL_COUNT("sim.accepted");
    live_.emplace(c.id, std::move(c));
  }

  sample_load();
  maybe_reconfigure(now);
}

bool Simulator::place(const rwa::RouteResult& rr, Connection& c) {
  if (!rr.found || !rr.route.primary.fits_residual(net_)) return false;
  const bool protect = opt_.restoration == RestorationMode::kActive;
  const bool with_backup = protect && rr.route.backup.found;
  // A protected policy must deliver a usable pair.
  if (with_backup && !rr.route.feasible(net_)) return false;
  c.primary = rr.route.primary;
  c.primary.reserve_in(net_);
  if (with_backup) {
    c.backup = rr.route.backup;
    c.backup.reserve_in(net_);
    c.has_backup = true;
  }
  return true;
}

void Simulator::block(rwa::BlockedBy cause) {
  ++metrics_.blocked;
  ++metrics_.blocked_by[static_cast<std::size_t>(cause)];
  WDM_TEL_COUNT("sim.blocked");
  // One literal per cause: the counter macros cache a handle per call site.
  switch (cause) {
    case rwa::BlockedBy::kNone:
      WDM_TEL_COUNT("sim.blocked_by.none");
      break;
    case rwa::BlockedBy::kNoAuxPair:
      WDM_TEL_COUNT("sim.blocked_by.no_aux_pair");
      break;
    case rwa::BlockedBy::kRefineInfeasible:
      WDM_TEL_COUNT("sim.blocked_by.refine_infeasible");
      break;
    case rwa::BlockedBy::kThetaExhausted:
      WDM_TEL_COUNT("sim.blocked_by.theta_exhausted");
      break;
    case rwa::BlockedBy::kSrlgCandidateCap:
      WDM_TEL_COUNT("sim.blocked_by.srlg_candidate_cap");
      break;
    case rwa::BlockedBy::kPartialClosure:
      WDM_TEL_COUNT("sim.blocked_by.partial_closure");
      break;
  }
}

void Simulator::handle_batch_provision(double now) {
  // Chain the next tick first so a throwing router cannot stall the clock.
  if (now < opt_.duration) {
    queue_.push(Event{std::min(now + opt_.batching.interval, opt_.duration),
                      EventType::kBatchProvision, 0});
  }
  if (pending_.empty()) return;

  std::vector<rwa::BatchRequest> batch;
  batch.reserve(pending_.size());
  for (const PendingRequest& p : pending_) {
    batch.push_back({p.s, p.t, static_cast<long>(batch.size())});
  }
  const rwa::BatchOutcome outcome = rwa::provision_batch(
      net_, router_, batch, opt_.batching.order, &rng_);

  const bool protect = opt_.restoration == RestorationMode::kActive;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (!outcome.routes[i].has_value()) {
      block(rwa::BlockedBy::kNone);
      continue;
    }
    const net::ProtectedRoute& r = *outcome.routes[i];
    Connection c;
    c.id = next_conn_id_++;
    c.s = pending_[i].s;
    c.t = pending_[i].t;
    c.primary = r.primary;
    if (protect) {
      c.backup = r.backup;
      c.has_backup = true;
      metrics_.route_cost.add(c.primary.cost(net_) + c.backup.cost(net_));
    } else {
      // provision_batch reserved the full protected pair (the batch accept
      // criterion); without active restoration the backup is not kept.
      r.backup.release_in(net_);
      metrics_.route_cost.add(c.primary.cost(net_));
    }
    c.arrival = now;
    c.holding = pending_[i].holding;
    queue_.push(Event{now + pending_[i].holding, EventType::kDeparture, c.id});
    ++metrics_.accepted;
    WDM_TEL_COUNT("sim.accepted");
    live_.emplace(c.id, std::move(c));
  }
  pending_.clear();

  sample_load();
  maybe_reconfigure(now);
}

void Simulator::handle_departure(double now, long conn_id) {
  const auto it = live_.find(conn_id);
  if (it == live_.end()) return;  // dropped earlier (failure / reconfig)
  finish_connection(it->second, now, /*completed=*/true);
  release_connection(it->second);
  live_.erase(it);
}

void Simulator::handle_link_fail(double now, long duplex_index) {
  const auto [e1, e2] = duplex_[static_cast<std::size_t>(duplex_index)];
  WDM_TEL_COUNT("sim.link_failures");
  fail_link(e1);
  if (e2 != e1) fail_link(e2);

  // Schedule the repair.
  queue_.push(Event{now + rng_.exponential(1.0 / opt_.failures.mean_repair),
                    EventType::kLinkRepair, duplex_index});

  const graph::EdgeId cut[] = {e1, e2};
  sweep_after_failure(
      now, std::span<const graph::EdgeId>(cut, e2 != e1 ? 2u : 1u));
}

void Simulator::handle_srlg_fail(double now, long group) {
  const net::Srlg& grp = net_.srlg(static_cast<int>(group));
  ++metrics_.srlg_failures;
  WDM_TEL_COUNT("sim.srlg_failures");
  // Atomic correlated failure: every member link is down *before* any
  // connection is inspected, so a backup sharing the group with its primary
  // is already dead by sweep time and can never absorb the switchover.
  for (graph::EdgeId e : grp.links) fail_link(e);

  queue_.push(Event{now + rng_.exponential(1.0 / opt_.failures.mean_repair),
                    EventType::kSrlgRepair, group});

  sweep_after_failure(now, grp.links);
}

void Simulator::handle_srlg_repair(double now, long group) {
  const net::Srlg& grp = net_.srlg(static_cast<int>(group));
  for (graph::EdgeId e : grp.links) repair_link(e);
  const double rate =
      opt_.failures.srlg_failure_rate * grp.failure_probability;
  if (rate > 0.0) {
    const double t = now + rng_.exponential(rate);
    if (t <= opt_.duration) {
      queue_.push(Event{t, EventType::kSrlgFail, group});
    }
  }
}

bool Simulator::reprovision_backup(Connection& c) {
  recovery_mask_.assign(static_cast<std::size_t>(net_.num_links()), 1);
  for (const net::Hop& h : c.primary.hops) {
    recovery_mask_[static_cast<std::size_t>(h.edge)] = 0;
  }
  support::telemetry::SplitTimer tel;
  rwa::optimal_semilightpath_into(net_, c.s, c.t, recovery_mask_,
                                  recovery_ws_, &recovery_path_);
  tel.total(WDM_TEL_HIST("sim.reprovision_ns"));
  WDM_TEL_COUNT("sim.recovery.solves");
  if (!recovery_path_.found) return false;
  recovery_path_.reserve_in(net_);
  c.backup = recovery_path_;
  c.has_backup = true;
  return true;
}

void Simulator::sweep_after_failure(double now,
                                    std::span<const graph::EdgeId> cut) {
  // Sweep live connections. Collect ids first: recovery mutates live_.
  std::vector<long> ids;
  ids.reserve(live_.size());
  for (const auto& [id, c] : live_) ids.push_back(id);

  for (long id : ids) {
    auto it = live_.find(id);
    if (it == live_.end()) continue;
    Connection& c = it->second;

    const bool primary_hit = path_uses(c.primary, cut);
    const bool backup_hit = c.has_backup && path_uses(c.backup, cut);

    if (!primary_hit && backup_hit) {
      // Protection lost but service unaffected.
      ++metrics_.backup_lost;
      c.backup.release_in(net_);
      c.has_backup = false;
      if (opt_.failures.reprovision_backup && reprovision_backup(c)) {
        ++metrics_.backups_reprovisioned;
      }
      continue;
    }
    if (!primary_hit) continue;

    ++metrics_.primary_failures;
    if (opt_.restoration == RestorationMode::kNone) {
      finish_connection(c, now, /*completed=*/false);
      release_connection(c);
      live_.erase(it);
      ++metrics_.dropped_on_failure;
      WDM_TEL_COUNT("sim.dropped_on_failure");
      continue;
    }

    ++metrics_.recoveries_attempted;
    WDM_TEL_COUNT("sim.recovery.attempted");
    if (opt_.restoration == RestorationMode::kActive && c.has_backup &&
        !backup_hit) {
      // Activate approach: instant switchover to the pre-reserved backup.
      c.primary.release_in(net_);
      c.primary = std::move(c.backup);
      c.backup = net::Semilightpath::not_found();
      c.has_backup = false;
      ++metrics_.recoveries_succeeded;
      ++metrics_.switchover_recoveries;
      WDM_TEL_COUNT("sim.recovery.switchover");
      metrics_.recovery_delay.add(opt_.failures.active_switchover_delay);
      c.downtime += opt_.failures.active_switchover_delay;
      if (opt_.record_recovery_delays) {
        metrics_.recovery_delays.push_back(
            opt_.failures.active_switchover_delay);
      }
      if (opt_.failures.reprovision_backup && reprovision_backup(c)) {
        ++metrics_.backups_reprovisioned;
      }
      continue;
    }

    // Passive approach (or active with the backup also gone): release, then
    // try to re-establish over whatever the residual network offers.
    release_connection(c);
    rwa::optimal_semilightpath_into(net_, c.s, c.t, {}, recovery_ws_,
                                    &recovery_path_);
    WDM_TEL_COUNT("sim.recovery.solves");
    if (recovery_path_.found) {
      recovery_path_.reserve_in(net_);
      c.primary = recovery_path_;
      ++metrics_.recoveries_succeeded;
      ++metrics_.recompute_recoveries;
      WDM_TEL_COUNT("sim.recovery.recompute");
      const double delay =
          opt_.failures.passive_base_delay +
          opt_.failures.passive_per_hop_delay *
              static_cast<double>(c.primary.length());
      metrics_.recovery_delay.add(delay);
      c.downtime += delay;
      if (opt_.record_recovery_delays) {
        metrics_.recovery_delays.push_back(delay);
      }
    } else {
      finish_connection(c, now, /*completed=*/false);
      live_.erase(it);
      ++metrics_.dropped_on_failure;
      WDM_TEL_COUNT("sim.dropped_on_failure");
    }
  }
}

void Simulator::handle_link_repair(double now, long duplex_index) {
  const auto [e1, e2] = duplex_[static_cast<std::size_t>(duplex_index)];
  repair_link(e1);
  if (e2 != e1) repair_link(e2);
  // Next cut on this fiber.
  if (opt_.failures.duplex_failure_rate > 0.0) {
    const double t =
        now + rng_.exponential(opt_.failures.duplex_failure_rate);
    if (t <= opt_.duration) {
      queue_.push(Event{t, EventType::kLinkFail, duplex_index});
    }
  }
}

void Simulator::maybe_reconfigure(double now) {
  // ρ ≤ 1, so a trigger above 1 never fires: skip even the load read.
  if (opt_.reconfig.load_trigger > 1.0) return;
  if (net_.network_load() < opt_.reconfig.load_trigger) return;
  if (now - last_reconfig_ < opt_.reconfig.min_interval) return;
  if (live_.empty()) return;
  last_reconfig_ = now;
  ++metrics_.reconfigurations;
  WDM_TEL_COUNT("sim.reconfigurations");

  // Freeze-and-reroute: tear everything down, then re-route in id order.
  for (auto& [id, c] : live_) release_connection(c);
  std::vector<long> drops;
  for (auto& [id, c] : live_) {
    const rwa::RouteResult rr = router_.route(net_, c.s, c.t);
    const std::vector<net::Hop> old_hops = c.primary.hops;
    if (place(rr, c)) {
      if (!(c.primary.hops == old_hops)) ++metrics_.reconfig_reroutes;
    } else if (c.primary.fits_residual(net_)) {
      // Fall back to the old route if it still fits; otherwise drop. The
      // old backup is not restored: protection downgraded.
      c.primary.reserve_in(net_);
    } else {
      drops.push_back(id);
    }
  }
  for (long id : drops) {
    finish_connection(live_.at(id), now, /*completed=*/false);
    live_.erase(id);
    ++metrics_.reconfig_drops;
  }
}

SimMetrics Simulator::run() {
  // Resolve series sampling here (not the constructor): "auto" depends on
  // whether telemetry is enabled at run time. The first sample lands at
  // series_dt_ (not 0): t=0 is all zeros for every configuration.
  if (opt_.series_interval > 0.0) {
    series_dt_ = opt_.series_interval;
  } else if (opt_.series_interval == 0.0 && support::telemetry::enabled()) {
    series_dt_ = opt_.duration / 128.0;
  }
  next_sample_ = series_dt_;

  schedule_arrival(0.0);
  if (batch_mode()) {
    queue_.push(Event{std::min(opt_.batching.interval, opt_.duration),
                      EventType::kBatchProvision, 0});
  }
  if (opt_.failures.duplex_failure_rate > 0.0) {
    for (std::size_t d = 0; d < duplex_.size(); ++d) {
      const double t = rng_.exponential(opt_.failures.duplex_failure_rate);
      if (t <= opt_.duration) {
        queue_.push(Event{t, EventType::kLinkFail, static_cast<long>(d)});
      }
    }
  }
  // Correlated SRLG failures: one Poisson process per declared group,
  // rate-scaled by the group's failure probability. Disabled (or a network
  // without SRLGs) draws nothing, keeping pre-SRLG runs replayable.
  if (opt_.failures.srlg_failure_rate > 0.0) {
    for (int g = 0; g < net_.num_srlgs(); ++g) {
      const double rate =
          opt_.failures.srlg_failure_rate * net_.srlg(g).failure_probability;
      if (rate <= 0.0) continue;
      const double t = rng_.exponential(rate);
      if (t <= opt_.duration) {
        queue_.push(Event{t, EventType::kSrlgFail, static_cast<long>(g)});
      }
    }
  }

  while (!queue_.empty()) {
    const Event ev = queue_.top();
    queue_.pop();
    // Sample boundaries strictly between events: the state a sample reads is
    // the committed state before any event at `ev.time` executes.
    advance_series(ev.time);
    switch (ev.type) {
      case EventType::kArrival: handle_arrival(ev.time); break;
      case EventType::kDeparture: handle_departure(ev.time, ev.id); break;
      case EventType::kLinkFail: handle_link_fail(ev.time, ev.id); break;
      case EventType::kLinkRepair: handle_link_repair(ev.time, ev.id); break;
      case EventType::kSrlgFail: handle_srlg_fail(ev.time, ev.id); break;
      case EventType::kSrlgRepair: handle_srlg_repair(ev.time, ev.id); break;
      case EventType::kBatchProvision:
        handle_batch_provision(ev.time);
        break;
    }
  }

  // Batch mode: an arrival landing exactly at the horizon can pop after the
  // final tick; give stragglers one last provisioning pass.
  if (batch_mode() && !pending_.empty()) {
    handle_batch_provision(opt_.duration);
  }

  // Emit any remaining series points (including the t = duration boundary)
  // before the final drain, so the last sample reflects end-of-run state.
  advance_series(opt_.duration);

  // Drain remaining connections and verify the reservation ledger balances.
  metrics_.live_connections_at_end = static_cast<long>(live_.size());
  for (auto& [id, c] : live_) release_connection(c);
  live_.clear();
  metrics_.final_reserved_wavelength_links = net_.total_usage();
  WDM_CHECK_MSG(metrics_.final_reserved_wavelength_links == 0,
                "wavelength reservation leak at end of simulation");
  return metrics_;
}

}  // namespace wdm::sim
