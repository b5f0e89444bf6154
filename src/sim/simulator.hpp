// Event-driven dynamic-traffic simulator for §2's operating model: user
// connection requests arrive to and depart from the network at random;
// each is routed immediately against the residual network or dropped.
//
// The simulator reproduces the paper's motivating scenario end to end:
//   * Poisson arrivals with exponential holding times between uniformly
//     random (s, t) pairs — offered load in Erlangs = arrival_rate ×
//     mean_holding;
//   * a pluggable rwa::Router decides routes + wavelengths + switch settings;
//   * *active* restoration (the paper's approach) reserves the backup at
//     setup and switches over instantly on a primary-link failure; *passive*
//     restoration recomputes a route only after the failure (§1's taxonomy);
//   * fiber cuts arrive per duplex link as a Poisson process and take both
//     orientations out until repaired;
//   * a reconfiguration model: when the network load ρ crosses a trigger,
//     the network "freezes" and globally re-routes all live connections —
//     the costly event §4's load-aware routing exists to avoid. The count of
//     these events is bench E6's headline metric.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "rwa/batch.hpp"
#include "rwa/layered_graph.hpp"
#include "rwa/router.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "topology/topologies.hpp"

namespace wdm::sim {

enum class RestorationMode {
  kActive,   // backup reserved at setup; instant switchover on failure
  kPassive,  // recompute a route only when the failure hits
  kNone,     // no recovery: failed connections drop
};

struct TrafficOptions {
  double arrival_rate = 5.0;  // requests per unit time
  double mean_holding = 1.0;  // mean connection lifetime
  /// Optional nonuniform demand: row-major n×n weight per (s, t) pair
  /// (diagonal ignored). Empty = uniform over ordered pairs.
  std::vector<double> pair_weight;
};

/// Hotspot demand matrix: pairs touching a hotspot node get `hot_factor`×
/// the base weight — models the metro/exchange concentration of real WANs.
std::vector<double> hotspot_matrix(net::NodeId num_nodes,
                                   const std::vector<net::NodeId>& hotspots,
                                   double hot_factor);

/// Gravity demand: weight(s, t) ∝ 1 / (1 + dist(s, t)²) over the topology
/// coordinates — nearer pairs talk more.
std::vector<double> gravity_matrix(const topo::Topology& topology);

struct FailureOptions {
  double duplex_failure_rate = 0.0;  // fiber cuts per unit time per duplex
  double mean_repair = 1.0;
  /// Restoration latency model: active switchover is a constant (the backup
  /// is lit and reserved); passive restoration pays signaling plus per-hop
  /// setup on the recomputed path.
  double active_switchover_delay = 0.001;
  double passive_base_delay = 0.050;
  double passive_per_hop_delay = 0.010;
  /// Active mode: when the backup itself is lost to a failure, try to
  /// provision a fresh backup immediately.
  bool reprovision_backup = false;
  /// Correlated multi-failure events: SRLG g fires as a Poisson process with
  /// rate srlg_failure_rate × failure_probability(g), taking every member
  /// link down *atomically* (all members are failed before any connection is
  /// swept, so no partial-failure interleaving is observable; in particular
  /// a backup sharing a group with its primary can never absorb the
  /// switchover). Repairs draw from the same mean_repair as fiber cuts.
  /// 0 disables and leaves the RNG stream untouched.
  double srlg_failure_rate = 0.0;
};

struct ReconfigOptions {
  /// Reconfigure when ρ >= trigger (values > 1 disable).
  double load_trigger = 2.0;
  double min_interval = 1.0;
};

/// Opt-in §2 batch operating model: arrivals accumulate and are provisioned
/// together every `interval` time units through rwa::provision_batch, one by
/// one in `order`. The default (interval == 0) keeps the classic
/// route-on-arrival behavior. Batch mode applies the batch accept criterion
/// — a request is accepted iff its full protected pair is feasible against
/// the residual network at its turn — and non-active restoration modes
/// release the backup immediately after commit. Pairs and holding times are
/// drawn at arrival time, so the traffic RNG stream does not depend on which
/// requests a batch accepts.
struct BatchProvisioningOptions {
  double interval = 0.0;  // <= 0 disables batching
  rwa::BatchOrder order = rwa::BatchOrder::kArrival;
};

struct SimOptions {
  TrafficOptions traffic;
  FailureOptions failures;
  ReconfigOptions reconfig;
  BatchProvisioningOptions batching;
  RestorationMode restoration = RestorationMode::kActive;
  double duration = 1000.0;
  std::uint64_t seed = 1;
  /// Duplex pairing (topo::Topology::reverse_of); empty = failures cut a
  /// single directed edge.
  std::vector<graph::EdgeId> reverse_of;
  /// Record every individual recovery delay in SimMetrics::recovery_delays
  /// (needed for percentiles). Off by default: the aggregate
  /// SimMetrics::recovery_delay stats are always maintained and keep memory
  /// O(1) over arbitrarily long failure-heavy runs.
  bool record_recovery_delays = false;
  /// Telemetry time-series sampling stride, in *simulation* time: every
  /// `series_interval` units the simulator snapshots blocking/load/cache
  /// state into telemetry series (dump `series` section). 0 = auto
  /// (duration / 128 when telemetry is enabled), negative = off. Samples are
  /// taken at sim-time boundaries between events, so the `sim.series.*`
  /// values are a pure function of the seed; `rwa.series.*` samples read
  /// router cache state and carry no such guarantee.
  double series_interval = 0.0;
};

struct SimMetrics {
  long offered = 0;
  long accepted = 0;
  long blocked = 0;
  /// Blocked requests per cause, indexed by rwa::BlockedBy; sums to
  /// `blocked`. kNone counts the requests whose router attributed no cause
  /// (baselines, exact solvers, batch provisioning) and found routes the
  /// simulator refused.
  std::array<long, rwa::kNumBlockedCauses> blocked_by{};
  double blocking_probability() const {
    return offered ? static_cast<double>(blocked) / static_cast<double>(offered)
                   : 0.0;
  }

  long primary_failures = 0;       // live primaries hit by a fiber cut
  long recoveries_attempted = 0;
  long recoveries_succeeded = 0;
  long switchover_recoveries = 0;  // served by the pre-reserved backup
  long recompute_recoveries = 0;   // served by a path found after the cut
  long backups_reprovisioned = 0;
  long backup_lost = 0;            // reserved backups hit by a fiber cut
  long dropped_on_failure = 0;
  /// Aggregate delay of every successful recovery (always maintained).
  support::RunningStats recovery_delay;
  /// Raw per-recovery delays; populated only when
  /// SimOptions::record_recovery_delays is set.
  std::vector<double> recovery_delays;

  long srlg_failures = 0;          // correlated SRLG failure events

  /// Reliability: per-connection availability = delivered service time /
  /// requested service time, recorded when the connection ends (normal
  /// departure, drop on failure, or reconfiguration drop). Recovery delays
  /// count as downtime; a dropped connection forfeits its remaining holding
  /// time.
  support::RunningStats availability;
  double service_requested = 0.0;
  double service_delivered = 0.0;
  /// Aggregate delivered/requested ratio (1.0 before any connection ends).
  double reliability() const {
    return service_requested > 0.0 ? service_delivered / service_requested
                                   : 1.0;
  }

  long reconfigurations = 0;
  long reconfig_reroutes = 0;  // connections moved by reconfiguration
  long reconfig_drops = 0;     // connections lost during reconfiguration

  support::RunningStats network_load;   // ρ sampled at arrivals
  support::RunningStats mean_link_load;
  support::RunningStats route_cost;     // accepted primary+backup cost
  support::RunningStats theta_iterations;
  double peak_load = 0.0;

  /// End-of-run invariant: live reservations must balance (checked by the
  /// simulator; exposed for tests).
  long long final_reserved_wavelength_links = 0;
  long live_connections_at_end = 0;
};

class Simulator {
 public:
  /// The simulator owns a copy of the network (it mutates usage and failure
  /// state); the router is borrowed and must outlive run().
  Simulator(net::WdmNetwork network, const rwa::Router& router,
            SimOptions options);

  /// Runs the full horizon and returns the metrics. Call once.
  SimMetrics run();

  /// The (mutated) network — for post-run inspection in tests.
  const net::WdmNetwork& network() const { return net_; }

 private:
  struct Connection {
    long id = 0;
    net::NodeId s = 0, t = 0;
    net::Semilightpath primary;
    net::Semilightpath backup;  // reserved iff has_backup
    bool has_backup = false;
    double arrival = 0.0;   // service start (provisioning time)
    double holding = 0.0;   // requested service time
    double downtime = 0.0;  // accrued recovery delays
  };

  enum class EventType {
    kArrival,
    kDeparture,
    kLinkFail,
    kLinkRepair,
    kSrlgFail,
    kSrlgRepair,
    kBatchProvision,
  };
  struct Event {
    double time;
    EventType type;
    long id;  // connection id, duplex link index, or SRLG id
    bool operator<(const Event& o) const { return time > o.time; }
  };

  /// An arrival waiting for the next provisioning tick. The holding time is
  /// drawn at arrival (not at commit) so the RNG stream does not depend on
  /// which requests the batch accepts.
  struct PendingRequest {
    net::NodeId s = 0, t = 0;
    double holding = 0.0;
  };

  void schedule_arrival(double now);
  std::pair<net::NodeId, net::NodeId> draw_pair();
  void handle_arrival(double now);
  /// The accept rule of one route call: placed iff the router found a
  /// route whose primary fits the residual and, under active restoration,
  /// whose found backup fits beside it. Placing reserves the primary into
  /// `c`, and the backup too under active restoration. Returns false with
  /// `c` and the network untouched when the route cannot be placed.
  bool place(const rwa::RouteResult& rr, Connection& c);
  /// Counts a blocked request under `cause` (sim.blocked,
  /// sim.blocked_by.<cause>).
  void block(rwa::BlockedBy cause);
  bool batch_mode() const { return opt_.batching.interval > 0.0; }
  void handle_batch_provision(double now);
  void sample_load();
  /// Emits telemetry series points for every sampling boundary <= t.
  void advance_series(double t);
  void sample_series(double t);
  void handle_departure(double now, long conn_id);
  void handle_link_fail(double now, long duplex_index);
  void handle_link_repair(double now, long duplex_index);
  void handle_srlg_fail(double now, long group);
  void handle_srlg_repair(double now, long group);
  void maybe_reconfigure(double now);
  void release_connection(Connection& c);
  /// Reference-counted failure state: a link stays failed until *every*
  /// overlapping failure event (duplex cut, SRLG firings of every group it
  /// belongs to) has been repaired.
  void fail_link(graph::EdgeId e);
  void repair_link(graph::EdgeId e);
  /// Sweeps live connections after `cut` went down atomically (switchover /
  /// recompute / drop per the restoration mode).
  void sweep_after_failure(double now, std::span<const graph::EdgeId> cut);
  /// Records the ended connection's availability sample.
  void finish_connection(const Connection& c, double now, bool completed);
  bool path_uses(const net::Semilightpath& p,
                 std::span<const graph::EdgeId> cut) const;
  /// Re-protects `c` with a Liang–Shen backup disjoint from its primary and
  /// reserves it. Returns false (c unchanged) when none exists.
  bool reprovision_backup(Connection& c);

  net::WdmNetwork net_;
  const rwa::Router& router_;
  SimOptions opt_;
  support::Rng rng_;
  std::priority_queue<Event> queue_;
  /// Batch mode only: arrivals awaiting the next tick.
  std::vector<PendingRequest> pending_;
  std::map<long, Connection> live_;
  long next_conn_id_ = 0;
  double last_reconfig_ = -1e18;
  /// Telemetry series sampling state (resolved in run()).
  double series_dt_ = 0.0;
  double next_sample_ = 0.0;
  SimMetrics metrics_;
  /// Duplex index -> the two directed edges.
  std::vector<std::pair<graph::EdgeId, graph::EdgeId>> duplex_;
  /// Per-link failure depth (see fail_link/repair_link).
  std::vector<int> fail_depth_;
  /// Cumulative distribution over ordered pairs (empty = uniform).
  std::vector<double> pair_cdf_;
  /// Recovery solves (backup re-provisioning, passive recompute) reuse one
  /// Liang–Shen workspace, link mask and result path.
  rwa::SemilightpathWorkspace recovery_ws_;
  std::vector<std::uint8_t> recovery_mask_;
  net::Semilightpath recovery_path_;
};

}  // namespace wdm::sim
