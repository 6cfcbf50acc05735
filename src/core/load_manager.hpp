#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "asu/network.hpp"
#include "core/routing.hpp"
#include "obs/json.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace lmas::core {

/// One utilization sample across the cluster.
struct LoadSample {
  double time = 0;
  double period = 0;                 // sampling window this sample covers
  std::vector<double> host_backlog;  // queued CPU seconds per host
  std::vector<double> asu_backlog;
  /// CPU service-seconds *accepted* during the sampling window (the delta
  /// of Resource::total_service between ticks). Instantaneous backlog
  /// alone under-observes bursty stages: a sort charge of a few hundred
  /// microseconds is almost never in flight at a sample instant, so a
  /// heavily skewed host can read as idle at every tick. The offered-work
  /// delta integrates over the whole window and cannot miss bursts.
  std::vector<double> host_offered;
  std::vector<double> asu_offered;

  /// The decision signal: queued work plus work accepted this window, in
  /// wall-seconds per node. Offered entries are optional (hand-built
  /// samples in tests may carry backlogs only).
  [[nodiscard]] std::vector<double> host_load() const {
    return combine(host_backlog, host_offered);
  }
  [[nodiscard]] std::vector<double> asu_load() const {
    return combine(asu_backlog, asu_offered);
  }

  [[nodiscard]] double host_imbalance() const { return imbalance(host_load()); }
  [[nodiscard]] double asu_imbalance() const { return imbalance(asu_load()); }

  /// Aggregate load per rack under `topo`'s block partition: each rack's
  /// entry is the summed host + ASU load of the nodes it holds. This is
  /// the tier the hierarchical balance story is about — per-node balance
  /// can look fine while one rack's spine uplink carries all the traffic.
  [[nodiscard]] std::vector<double> rack_load(
      const asu::TopologySpec& topo) const {
    std::vector<double> v(topo.racks, 0.0);
    const auto hosts = host_load();
    const auto asus = asu_load();
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      v[topo.rack_of_host(unsigned(h))] += hosts[h];
    }
    for (std::size_t a = 0; a < asus.size(); ++a) {
      v[topo.rack_of_asu(unsigned(a))] += asus[a];
    }
    return v;
  }
  [[nodiscard]] double rack_imbalance(const asu::TopologySpec& topo) const {
    return imbalance(rack_load(topo));
  }

  static std::vector<double> combine(const std::vector<double>& backlog,
                                     const std::vector<double>& offered) {
    std::vector<double> v = backlog;
    for (std::size_t i = 0; i < v.size() && i < offered.size(); ++i) {
      v[i] += offered[i];
    }
    return v;
  }

  static double imbalance(const std::vector<double>& v) {
    if (v.size() < 2) return 0;
    const double mx = *std::max_element(v.begin(), v.end());
    const double sum = std::accumulate(v.begin(), v.end(), 0.0);
    if (sum <= 0) return 0;
    // 0 = perfectly even, 1 = all load on one node.
    const double even = sum / double(v.size());
    return (mx - even) / (sum - even + 1e-30);
  }
};

/// The monitoring half of the load manager: a simulated process that, on
/// a fixed period, samples every node's queued CPU backlog plus the
/// service it accepted during the window. Dynamic policies
/// (LeastLoadedRouter, migration callbacks, adaptive reconfiguration)
/// consume exactly this kind of information; the monitor makes it
/// observable and testable on its own.
class LoadMonitor {
 public:
  LoadMonitor(asu::Cluster& cluster, double period_seconds = 0.05)
      : cluster_(&cluster), period_(period_seconds) {}

  /// Sampling budget: the process exits after this many ticks whatever
  /// the workload is doing. Long open-arrival runs with a short period
  /// can reach it (perfbench's tenancy-open does, late in its first
  /// seed's run); the rest of such a run is neither sampled nor managed.
  static constexpr std::size_t kMaxSamples = 10000;

  /// Spawn the sampling process. By default it also stops by itself once
  /// the workload has drained (two consecutive all-idle samples after
  /// any work), so it never keeps the event queue alive on its own.
  ///
  /// `stop_when_idle = false` disables that auto-stop for open-arrival
  /// workloads, where quiescent gaps between job arrivals are normal and
  /// stopping inside one would blind the manager to every later job.
  /// Such a monitor keeps the event queue alive, so its owner MUST call
  /// request_stop() once the workload is known to be complete (the
  /// multi-tenant scheduler does this after the last job).
  void start(bool stop_when_idle = true) {
    stop_when_idle_ = stop_when_idle;
    cluster_->engine().spawn(run(), "load-monitor");
  }

  /// Ask the sampling process to exit at its next tick (open-arrival
  /// mode; see start()). Safe to call multiple times or before start.
  void request_stop() noexcept { stop_requested_ = true; }

  /// Deliver every sample, as it is taken, to one downstream consumer —
  /// the LoadManager's decision loop plugs in here. Called after the
  /// sample is published to metrics/traces, so the observer sees exactly
  /// what the instruments recorded.
  void set_observer(std::function<void(const LoadSample&)> observer) {
    observer_ = std::move(observer);
  }

  /// Peak observed host imbalance (0 = always even). A max statistic
  /// saturates easily — one window where a single host drains the last
  /// run while the others sit idle reads as imbalance 1.0 — so pair it
  /// with mean_host_imbalance when comparing runs.
  [[nodiscard]] double peak_host_imbalance() const noexcept {
    return peak_imbalance_;
  }

  /// Mean host imbalance over *actionable* windows: samples where the
  /// busiest host's load is at least kActionableLoad of the sampling
  /// window (the manager's default floor — imbalance ratios over a
  /// near-idle cluster are noise). This is the figure of merit for
  /// managed-vs-unmanaged comparisons: the manager cannot avoid the
  /// short hot streaks that *trigger* its actions (so the peak stays
  /// high in both runs), but it shrinks how long they last.
  [[nodiscard]] double mean_host_imbalance() const noexcept {
    return actionable_windows_ == 0
               ? 0
               : actionable_imbalance_sum_ / double(actionable_windows_);
  }

  /// Load floor of mean_host_imbalance's actionable windows, in
  /// utilization units (LoadManagerConfig::min_actionable_load's
  /// default).
  static constexpr double kActionableLoad = 0.05;

 private:
  sim::Task<> run() {
    // Publish every sample into the engine's registry (and, when tracing,
    // as Chrome counter events) so routing decisions and bench artifacts
    // see the same backlog signal the manager acts on.
    sim::Engine& eng = cluster_->engine();
    std::vector<lmas::obs::Gauge*> host_gauges, asu_gauges;
    std::vector<lmas::obs::Gauge*> host_pressure, asu_pressure;
    for (unsigned h = 0; h < cluster_->num_hosts(); ++h) {
      host_gauges.push_back(
          &eng.metrics().gauge("host.backlog." + std::to_string(h)));
      host_pressure.push_back(
          &eng.metrics().gauge("pressure.host." + std::to_string(h)));
    }
    for (unsigned a = 0; a < cluster_->num_asus(); ++a) {
      asu_gauges.push_back(
          &eng.metrics().gauge("asu.backlog." + std::to_string(a)));
      asu_pressure.push_back(
          &eng.metrics().gauge("pressure.asu." + std::to_string(a)));
    }
    lmas::obs::Gauge& imbalance_gauge =
        eng.metrics().gauge("load.host_imbalance");
    // Rack-tier gauges exist only on hierarchical topologies: a flat
    // cluster must keep the exact metric fingerprint it had before
    // TopologySpec (the pinned goldens enumerate metric names).
    const asu::TopologySpec& topo = cluster_->topology();
    std::vector<lmas::obs::Gauge*> rack_gauges;
    lmas::obs::Gauge* rack_imbalance_gauge = nullptr;
    if (topo.hierarchical()) {
      for (unsigned r = 0; r < topo.racks; ++r) {
        rack_gauges.push_back(
            &eng.metrics().gauge("rack.load." + std::to_string(r)));
      }
      rack_imbalance_gauge = &eng.metrics().gauge("load.rack_imbalance");
    }
    const std::uint32_t track = eng.tracer().track("load-monitor");

    // Offered-work baselines: total_service at the start of the current
    // window, per node. The first window's baseline is taken at spawn.
    std::vector<double> host_service_base, asu_service_base;
    for (unsigned h = 0; h < cluster_->num_hosts(); ++h) {
      host_service_base.push_back(cluster_->host(h).cpu().total_service());
    }
    for (unsigned a = 0; a < cluster_->num_asus(); ++a) {
      asu_service_base.push_back(cluster_->asu(a).cpu().total_service());
    }

    for (std::size_t i = 0; i < kMaxSamples; ++i) {
      co_await eng.sleep(period_);
      if (stop_requested_) break;
      LoadSample s;
      s.time = eng.now();
      s.period = period_;
      // Pressure = (queued backlog + work accepted this window) per
      // window second: the dimensionless utilization-like signal the
      // placer's economy ranks nodes by (DESIGN.md §16).
      const double win = period_ > 0 ? period_ : 1.0;
      for (unsigned h = 0; h < cluster_->num_hosts(); ++h) {
        const asu::Node& n = cluster_->host(h);
        const double b = n.cpu().backlog();
        const double total = n.cpu().total_service();
        const double offered = total - host_service_base[h];
        s.host_backlog.push_back(b);
        s.host_offered.push_back(offered);
        host_service_base[h] = total;
        host_gauges[h]->set(b);
        host_pressure[h]->set((b + offered) / win);
      }
      for (unsigned a = 0; a < cluster_->num_asus(); ++a) {
        const asu::Node& n = cluster_->asu(a);
        const double b = n.cpu().backlog();
        const double total = n.cpu().total_service();
        const double offered = total - asu_service_base[a];
        s.asu_backlog.push_back(b);
        s.asu_offered.push_back(offered);
        asu_service_base[a] = total;
        asu_gauges[a]->set(b);
        asu_pressure[a]->set((b + offered) / win);
      }
      const auto host_load = s.host_load();
      const double imbalance = LoadSample::imbalance(host_load);
      imbalance_gauge.set(imbalance);
      peak_imbalance_ = std::max(peak_imbalance_, imbalance);
      if (!host_load.empty() &&
          *std::max_element(host_load.begin(), host_load.end()) / win >=
              kActionableLoad) {
        actionable_imbalance_sum_ += imbalance;
        ++actionable_windows_;
      }
      if (rack_imbalance_gauge != nullptr) {
        const auto racks = s.rack_load(topo);
        for (unsigned r = 0; r < topo.racks; ++r) {
          rack_gauges[r]->set(racks[r]);
        }
        rack_imbalance_gauge->set(LoadSample::imbalance(racks));
      }
      if (eng.tracer().enabled()) {
        for (unsigned h = 0; h < cluster_->num_hosts(); ++h) {
          eng.tracer().counter(track, "host.backlog." + std::to_string(h),
                               s.time, s.host_backlog[h]);
        }
        for (unsigned a = 0; a < cluster_->num_asus(); ++a) {
          eng.tracer().counter(track, "asu.backlog." + std::to_string(a),
                               s.time, s.asu_backlog[a]);
        }
      }
      // Idle = no queued work AND nothing accepted this whole window;
      // checking backlog alone would call a bursty-but-busy cluster idle.
      const auto idle = [](const std::vector<double>& v) {
        return std::all_of(v.begin(), v.end(),
                           [](double x) { return x <= 0; });
      };
      const bool all_idle = idle(host_load) && idle(s.asu_load());
      if (observer_) observer_(s);
      // Two consecutive all-idle samples after any work: the workload has
      // drained; stop so the monitor does not keep the event queue alive
      // forever. A single idle sample is not enough — DSM-Sort-style
      // programs have quiescent gaps between phases longer than one
      // period, and stopping inside one would miss all later load.
      if (all_idle && saw_work_ && stop_when_idle_) {
        if (++idle_streak_ >= 2) break;
      } else {
        idle_streak_ = 0;
      }
      if (!all_idle) saw_work_ = true;
    }
  }

  asu::Cluster* cluster_;
  double period_;
  std::function<void(const LoadSample&)> observer_;
  double peak_imbalance_ = 0;
  double actionable_imbalance_sum_ = 0;
  std::size_t actionable_windows_ = 0;
  bool saw_work_ = false;
  bool stop_when_idle_ = true;
  bool stop_requested_ = false;
  std::size_t idle_streak_ = 0;
};

/// How aggressively the online manager acts. Off is the digest-neutral
/// default: no monitor process, no manager, no extra metrics — byte-for-
/// byte the unmanaged execution. Monitor samples (for peak-imbalance
/// reporting) but never acts; Manage acts.
enum class LoadManagerMode { Off, Monitor, Manage };

/// How a planned move ships the instance's state (the economy's cost
/// model, DESIGN.md §16). StopCopy freezes the instance for the whole
/// working-set transfer; PreCopy ships the bulk in the background while
/// the instance keeps consuming, then stalls only for the fixed control
/// overhead plus the dirty delta that accumulated meanwhile.
enum class MigrationMode { StopCopy, PreCopy };

inline const char* migration_mode_name(MigrationMode m) noexcept {
  return m == MigrationMode::PreCopy ? "pre-copy" : "stop-copy";
}

/// Fixed control/context cost of any functor move, on top of its declared
/// working set: control messages plus the execution context that moves
/// with the functor (Section 3.3). Shipped stalled in either transfer
/// mode.
inline constexpr std::size_t kMigrationOverheadBytes = 4096;

/// Declared migration economics of one functor instance (ROADMAP item 5:
/// every migratable instance carries a declared working-set size and
/// migration cost). The working set is a callback, not a number, because
/// the placer must price the move at planning time with the *live*
/// staged size — a sort functor's state grows and shrinks with every
/// packet. All fields are optional: a default declaration prices the
/// move at the fixed overhead only and always stop-copies, which is
/// exactly the pre-economy behavior.
struct MigrationDeclaration {
  /// Live working-set size in bytes (staged records the move must ship).
  /// Unset = 0: the instance declares no bulk state.
  std::function<std::size_t()> working_set_bytes{};

  /// Fixed control/context cost of any move.
  std::size_t overhead_bytes = kMigrationOverheadBytes;

  /// Declared wire cost of the move's path, seconds per byte. 0 (unset)
  /// disables stall estimation: the placer prices every move at zero
  /// stall and never chooses pre-copy.
  double wire_seconds_per_byte = 0;

  /// Fraction of the working set expected to be re-dirtied during a
  /// background bulk copy (the pre-copy delta the instance still stalls
  /// for).
  double dirty_fraction = 0.125;

  /// Total bytes a move of this instance ships while stalled under
  /// stop-copy — the quantity the placer's byte budget meters.
  [[nodiscard]] std::size_t declared_bytes() const {
    return (working_set_bytes ? working_set_bytes() : 0) + overhead_bytes;
  }
};

/// One planned move, priced by the placer from the instance's
/// declaration. The stage-side consult point reads the mode to decide
/// how to pay: stop-copy = one stalled transfer of the whole state;
/// pre-copy = background bulk + a short stalled transfer of
/// overhead + dirty delta.
struct MigrationPlan {
  asu::Node* to = nullptr;
  MigrationMode mode = MigrationMode::StopCopy;
  std::size_t bytes = 0;       ///< declared total at planning time
  double est_stall = 0;        ///< seconds the instance is expected frozen
  double gain = 0;             ///< load-here − load-there at planning time
};

/// One structured placer decision (the economy's journal, serialized
/// into bench artifacts as the `placer` block). Every *planned* move is
/// recorded here at planning time; confirmation still flows through
/// migration_performed() and the lm.* counters.
struct PlacerDecision {
  double time = 0;
  std::string client;          ///< client label ("" for an unlabeled client)
  std::size_t instance = 0;
  std::string from;
  std::string to;
  MigrationMode mode = MigrationMode::StopCopy;
  std::size_t bytes = 0;
  double est_stall = 0;
  double gain = 0;
};

/// Tuning for the control loop. The defaults follow the hysteresis /
/// cooldown discipline of Section 3.3's reconfiguration discussion: act
/// only on a *sustained* signal, then hold still long enough for the last
/// action's effect to show up in the signal before acting again.
struct LoadManagerConfig {
  LoadManagerMode mode = LoadManagerMode::Off;

  /// Monitor sampling period (simulated seconds).
  double period = 0.05;

  /// Router hot-swap thresholds on host imbalance (0 = even, 1 = all on
  /// one node). Promote static -> dynamic when imbalance holds at or
  /// above `promote_imbalance` for `promote_hysteresis` consecutive
  /// samples; demote back when it holds at or below `demote_imbalance`.
  /// The gap between the two watermarks prevents threshold chatter.
  double promote_imbalance = 0.25;
  double demote_imbalance = 0.10;
  std::size_t promote_hysteresis = 2;
  std::size_t demote_hysteresis = 4;

  /// Ignore imbalance while the busiest host's load (queued + offered
  /// this window) is under this fraction of the sampling window: ratios
  /// over near-zero loads are noise (a drained cluster with one 1ms
  /// straggler reads as imbalance 1.0). Expressed in utilization units so
  /// one floor works across sampling periods.
  double min_actionable_load = 0.05;

  /// Functor migration: move an instance only when its node's projected
  /// drain time exceeds the best candidate's post-move drain time by
  /// `migrate_factor`, sustained for `migrate_hysteresis` samples. The
  /// factor absorbs both the migration overhead and estimation error —
  /// near-even moves never pay for themselves.
  double migrate_factor = 2.0;
  std::size_t migrate_hysteresis = 2;

  /// After any action: samples to hold still before the next action.
  std::size_t cooldown_samples = 4;
  /// Per-instance lockout after its own migration (anti-ping-pong).
  std::size_t dwell_samples = 8;

  /// Migration budget, metered per manager tick across ALL clients. The
  /// defaults (one move, unlimited bytes) reproduce the pre-economy
  /// one-move-per-tick arbiter exactly. Raising budget_moves_per_tick
  /// lets the placer admit several moves in one gate opening (greedy by
  /// gain, with a virtual-rebalance update between admissions so it
  /// never piles two moves onto the same cold node); lowering
  /// budget_bytes_per_tick makes state-heavy instances inadmissible
  /// until they drain.
  std::size_t budget_moves_per_tick = 1;
  std::size_t budget_bytes_per_tick = std::size_t(-1);

  /// Pre-copy selection threshold: when an admitted move's stop-copy
  /// stall estimate (declared bytes × declared wire cost) exceeds this
  /// fraction of the sampling window, the placer orders pre-copy
  /// instead — the bulk ships in the background and only
  /// overhead + dirty-delta bytes ship stalled. Declarations without a
  /// wire cost always stop-copy (stall estimate 0).
  double precopy_stall_fraction = 0.25;
};

/// One journaled control decision (also emitted as a trace instant on the
/// `load-manager` track when tracing is on).
struct LoadManagerEvent {
  double time = 0;
  std::string what;
};

/// The acting half of the load manager: a control process consuming the
/// LoadMonitor's load signal and steering the computation two ways —
/// hot-swapping a stage's router between its static baseline and a
/// dynamic policy (SwitchableRouter), and re-pinning replicated functor
/// instances onto less-loaded nodes (the paper's functor migration,
/// Section 3.3).
///
/// Clients: the manager holds a registry of *clients*, one per program it
/// steers (a standalone DSM-Sort, or each tenant job of a multi-tenant
/// run). Every program registers with add_client(label) and addresses
/// its router, instances and plans by the returned id. Every action
/// charges the aggregate `lm.migrations` / `lm.router_switches`
/// counters; a non-empty label additionally charges the per-label
/// `lm.<label>.migrations` / `lm.<label>.router_switches` counters, and
/// its journal lines carry the label. Decisions are arbitrated
/// globally: one shared cooldown and one migration *budget* per tick
/// across ALL clients' instances (moves and bytes,
/// LoadManagerConfig::budget_*), chosen against aggregate per-node load
/// read directly off the candidate nodes and priced from each
/// instance's MigrationDeclaration.
///
/// Division of labor for migration: the manager only *plans* a move (it
/// runs off the sampling tick and cannot touch functor state); the stage
/// coroutine that owns the instance consults migration_plan() between
/// packets, pays the state transfer itself, re-pins the instance's inbox
/// via StageOutput::set_target_node, and then confirms with
/// migration_performed(). Until confirmation the plan stays pending and
/// no further plan is issued for that instance.
class LoadManager {
 public:
  LoadManager(sim::Engine& eng, LoadManagerConfig cfg)
      : eng_(&eng),
        cfg_(cfg),
        migrations_counter_(&eng.metrics().counter("lm.migrations")),
        switches_counter_(&eng.metrics().counter("lm.router_switches")),
        track_(eng.tracer().track("load-manager")) {}

  /// Register a client (one per managed program); returns its id for
  /// the per-client API below.
  std::size_t add_client(const std::string& label) {
    Client cl;
    cl.label = label;
    cl.counters = counters(label);
    clients_.push_back(std::move(cl));
    return clients_.size() - 1;
  }

  /// Detach a finished client: its router is no longer swapped and its
  /// instances no longer migrate. Ids are never reused.
  void remove_client(std::size_t c) {
    Client& cl = clients_.at(c);
    if (!cl.active) return;
    cl.active = false;
    cl.router = nullptr;
    cl.placement.clear();
    cl.pending.clear();
    cl.declarations.clear();
    cl.dwell_left.clear();
    if (!cl.label.empty()) journal(eng_->now(), cl.label + ": detached");
  }

  /// Attach the stage router to hot-swap (may be wrapped in an
  /// InstrumentedRouter — pass the inner SwitchableRouter; nullptr =
  /// nothing to swap).
  void client_router(std::size_t c, SwitchableRouter* router) {
    clients_.at(c).router = router;
  }

  /// Attach the replicated instances eligible for migration: their
  /// current placement (indexed like the stage's instances) and the
  /// candidate node set moves may target.
  void client_instances(std::size_t c, std::vector<asu::Node*> placement,
                        std::vector<asu::Node*> candidates) {
    Client& cl = clients_.at(c);
    cl.placement = std::move(placement);
    cl.candidates = std::move(candidates);
    cl.pending.assign(cl.placement.size(), MigrationPlan{});
    cl.dwell_left.assign(cl.placement.size(), 0);
    cl.declarations.assign(cl.placement.size(), MigrationDeclaration{});
    cl.cand_service.clear();
    for (const asu::Node* n : cl.candidates) {
      cl.cand_service.push_back(n->cpu().total_service());
    }
  }

  /// Declare instance `i`'s migration economics (working set, wire cost,
  /// dirty fraction). Call after client_instances — that call resets
  /// declarations to the default (overhead-only, stop-copy) declaration.
  void declare_instance(std::size_t c, std::size_t i,
                        MigrationDeclaration decl) {
    clients_.at(c).declarations.at(i) = std::move(decl);
  }

  /// The decision tick; plug into LoadMonitor::set_observer.
  void on_sample(const LoadSample& s) {
    if (cooldown_left_ > 0) --cooldown_left_;
    for (auto& cl : clients_) {
      for (auto& d : cl.dwell_left) {
        if (d > 0) --d;
      }
    }
    for (auto& cl : clients_) maybe_switch_router(cl, s);
    maybe_plan_migration(s);
  }

  /// Stage-side consult point: the pending plan for instance `i` of
  /// client `c` (mode, priced bytes, stall estimate); `to == nullptr`
  /// means no plan. The plan stays up until migration_performed()
  /// confirms it (the stage may be blocked in recv and pick it up late).
  [[nodiscard]] const MigrationPlan& migration_plan(std::size_t c,
                                                    std::size_t i) const {
    static const MigrationPlan none{};
    const Client& cl = clients_.at(c);
    return i < cl.pending.size() ? cl.pending[i] : none;
  }

  /// Confirm that instance `i` of client `c` now runs on `to` (the stage
  /// already paid the transfer and re-pinned its inbox).
  void migration_performed(std::size_t c, std::size_t i, asu::Node& to) {
    Client& cl = clients_.at(c);
    cl.placement.at(i) = &to;
    cl.pending.at(i) = MigrationPlan{};
    cl.dwell_left.at(i) = cfg_.dwell_samples;
    charge(cl.counters.migrations, migrations_counter_);
    journal(eng_->now(),
            tag(cl) + "migrated i" + std::to_string(i) + " -> " + to.name());
  }

  /// Aggregate action counts, over every client.
  [[nodiscard]] std::uint64_t migrations() const noexcept {
    return migrations_counter_->value();
  }
  [[nodiscard]] std::uint64_t router_switches() const noexcept {
    return switches_counter_->value();
  }

  /// Action counts charged to `label`'s clients. The `lm.<label>.*`
  /// counters are registered at zero on first use, so a caller that
  /// names its labels up front (register_label) gets a stable artifact
  /// shape whether or not those clients ever act. The empty label names
  /// the aggregate counters.
  void register_label(const std::string& label) { counters(label); }
  [[nodiscard]] std::uint64_t migrations(const std::string& label) {
    return counters(label).migrations->value();
  }
  [[nodiscard]] std::uint64_t router_switches(const std::string& label) {
    return counters(label).switches->value();
  }

  [[nodiscard]] const std::vector<LoadManagerEvent>& events() const noexcept {
    return journal_;
  }
  /// Structured placer journal: one entry per planned move, in planning
  /// order (serialized into bench artifacts as the `placer` block).
  [[nodiscard]] const std::vector<PlacerDecision>& decisions() const noexcept {
    return decisions_;
  }

 private:
  /// A label's action counters (the aggregate pair for the empty label).
  struct Counters {
    obs::Counter* migrations = nullptr;
    obs::Counter* switches = nullptr;
  };

  /// Per-program decision state. Streaks are per client (each router has
  /// its own sustained-signal history); cooldown and the one-move-per-
  /// tick migration plan are global — the whole point of cross-job
  /// arbitration is that tenants do not act simultaneously on the same
  /// overload signal.
  struct Client {
    std::string label;
    bool active = true;
    SwitchableRouter* router = nullptr;
    std::vector<asu::Node*> placement;
    std::vector<asu::Node*> candidates;
    std::vector<MigrationPlan> pending;
    std::vector<MigrationDeclaration> declarations;
    std::vector<std::size_t> dwell_left;
    std::vector<double> cand_service;  // offered-work baselines
    std::size_t promote_streak = 0;
    std::size_t demote_streak = 0;
    Counters counters;
  };

  /// The one place `lm.<label>.*` names are spelled.
  Counters counters(const std::string& label) {
    if (label.empty()) return {migrations_counter_, switches_counter_};
    return {&eng_->metrics().counter("lm." + label + ".migrations"),
            &eng_->metrics().counter("lm." + label + ".router_switches")};
  }

  /// Charge one action to a client's counter and, when that is a
  /// per-label counter, to the aggregate as well.
  static void charge(obs::Counter* mine, obs::Counter* aggregate) {
    mine->inc();
    if (mine != aggregate) aggregate->inc();
  }

  [[nodiscard]] static std::string tag(const Client& cl) {
    return cl.label.empty() ? std::string() : cl.label + ": ";
  }

  void maybe_switch_router(Client& cl, const LoadSample& s) {
    if (!cl.active || cl.router == nullptr) return;
    const auto load = s.host_load();
    const double imb = LoadSample::imbalance(load);
    const double peak_util =
        load.empty()
            ? 0
            : *std::max_element(load.begin(), load.end()) / window(s);
    if (!cl.router->dynamic_active()) {
      const bool hot = imb >= cfg_.promote_imbalance &&
                       peak_util >= cfg_.min_actionable_load;
      cl.promote_streak = hot ? cl.promote_streak + 1 : 0;
      if (cl.promote_streak >= cfg_.promote_hysteresis &&
          cooldown_left_ == 0) {
        cl.router->promote();
        charge(cl.counters.switches, switches_counter_);
        cooldown_left_ = cfg_.cooldown_samples;
        cl.promote_streak = cl.demote_streak = 0;
        journal(s.time, tag(cl) + "promote router -> dynamic (imbalance " +
                            std::to_string(imb) + ")");
      }
    } else {
      // No backlog floor on the way down: an idle cluster is even.
      cl.demote_streak =
          imb <= cfg_.demote_imbalance ? cl.demote_streak + 1 : 0;
      if (cl.demote_streak >= cfg_.demote_hysteresis && cooldown_left_ == 0) {
        cl.router->demote();
        charge(cl.counters.switches, switches_counter_);
        cooldown_left_ = cfg_.cooldown_samples;
        cl.promote_streak = cl.demote_streak = 0;
        journal(s.time, tag(cl) + "demote router -> baseline (imbalance " +
                            std::to_string(imb) + ")");
      }
    }
  }

  /// One candidate move the placer considers this tick, priced from the
  /// instance's declaration (`plan.to == nullptr`: no move).
  struct Move {
    std::size_t c = 0;       // client index
    std::size_t i = 0;       // instance index within the client
    std::size_t from_j = 0;  // indices into the client's candidate set
    std::size_t to_j = 0;
    MigrationPlan plan;
  };

  /// Plan at most one move per tick ACROSS ALL CLIENTS: the instance
  /// whose projected gain is largest, and only when the gain is
  /// sustained. Per-node load is read directly off the candidate nodes
  /// at the sampling tick: queued backlog plus the service accepted
  /// since the previous tick, both in wall-seconds on that node's own
  /// CPU (speed ratio and fault degradation already folded in, so no
  /// rate division). Because the backlog is the node's — every tenant's
  /// queued work combined — this is aggregate cross-job load, which is
  /// exactly what a shared-substrate arbiter must balance. Work already
  /// queued at a node does NOT move with the functor (the CPU queue is
  /// the node's, not the instance's); what moves is the instance's
  /// future arrivals, which will wait behind the destination's current
  /// queue. Hence the comparison is load-here vs load-there, and the
  /// factor + dwell absorb the transient where the old node is still
  /// draining work the instance left behind.
  void maybe_plan_migration(const LoadSample& s) {
    // Refresh every client's candidate load vector once per tick (queued
    // backlog + offered-work delta since the previous tick, in
    // wall-seconds on each node's own CPU). Baselines advance every tick
    // whether or not the gate opens, exactly as before the economy.
    std::vector<std::vector<double>> loads(clients_.size());
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      Client& cl = clients_[c];
      if (!cl.active || cl.placement.empty()) continue;
      loads[c].assign(cl.candidates.size(), 0);
      for (std::size_t j = 0; j < cl.candidates.size(); ++j) {
        const double total = cl.candidates[j]->cpu().total_service();
        loads[c][j] =
            cl.candidates[j]->cpu().backlog() + (total - cl.cand_service[j]);
        cl.cand_service[j] = total;
      }
    }

    const auto best_move = [&](std::size_t bytes_left) {
      Move best;
      for (std::size_t c = 0; c < clients_.size(); ++c) {
        Client& cl = clients_[c];
        if (!cl.active || cl.placement.empty()) continue;
        const auto& load = loads[c];
        for (std::size_t i = 0; i < cl.placement.size(); ++i) {
          if (cl.dwell_left[i] > 0 || cl.pending[i].to != nullptr) continue;
          asu::Node* from = cl.placement[i];
          const auto from_it =
              std::find(cl.candidates.begin(), cl.candidates.end(), from);
          if (from_it == cl.candidates.end()) continue;
          const std::size_t fj = std::size_t(from_it - cl.candidates.begin());
          const double load_here = load[fj];
          if (load_here / window(s) < cfg_.min_actionable_load) continue;
          const std::size_t bytes = cl.declarations[i].declared_bytes();
          if (bytes > bytes_left) continue;  // over the byte budget: wait
          for (std::size_t j = 0; j < cl.candidates.size(); ++j) {
            asu::Node* to = cl.candidates[j];
            if (to == from || !to->running()) continue;
            if (load_here >= cfg_.migrate_factor * load[j] &&
                load_here - load[j] > best.plan.gain) {
              best.c = c;
              best.i = i;
              best.from_j = fj;
              best.to_j = j;
              best.plan = price(cl.declarations[i], to, bytes,
                                load_here - load[j], window(s));
            }
          }
        }
      }
      return best;
    };

    // The hysteresis streak counts ticks where at least one admissible
    // move exists (gain, factor, actionability, AND byte budget — a move
    // too fat for the per-tick budget cannot sustain the streak).
    const bool any = best_move(cfg_.budget_bytes_per_tick).plan.to != nullptr;
    migrate_streak_ = any ? migrate_streak_ + 1 : 0;
    if (!any || migrate_streak_ < cfg_.migrate_hysteresis ||
        cooldown_left_ != 0) {
      return;
    }

    // Gate open: greedily admit moves by descending gain until either
    // budget is exhausted. After each admission the admitted pair's
    // loads are virtually rebalanced to their mean so a second move in
    // the same tick never dog-piles the node the first move just chose
    // (the classic budgeted-placer failure mode).
    std::size_t moves_left = cfg_.budget_moves_per_tick;
    std::size_t bytes_left = cfg_.budget_bytes_per_tick;
    std::size_t planned = 0;
    while (moves_left > 0) {
      const Move m = best_move(bytes_left);
      if (m.plan.to == nullptr) break;
      Client& cl = clients_[m.c];
      cl.pending[m.i] = m.plan;
      --moves_left;
      bytes_left -= m.plan.bytes;
      ++planned;
      auto& load = loads[m.c];
      const double mean = (load[m.from_j] + load[m.to_j]) / 2.0;
      load[m.from_j] = load[m.to_j] = mean;
      journal(eng_->now(),
              tag(cl) + "plan migrate i" + std::to_string(m.i) + " " +
                  cl.placement[m.i]->name() + " -> " + m.plan.to->name() +
                  " (" + migration_mode_name(m.plan.mode) + ", " +
                  std::to_string(m.plan.bytes) + " B)");
      decisions_.push_back({eng_->now(), cl.label, m.i,
                            cl.placement[m.i]->name(), m.plan.to->name(),
                            m.plan.mode, m.plan.bytes, m.plan.est_stall,
                            m.plan.gain});
    }
    if (planned > 0) {
      cooldown_left_ = cfg_.cooldown_samples;
      migrate_streak_ = 0;
    }
  }

  /// Price a move from the instance's declaration: stop-copy stalls for
  /// the whole declared state; pre-copy is chosen when that stall would
  /// exceed `precopy_stall_fraction` of the sampling window AND the
  /// declaration carries both a wire cost and bulk state worth shipping
  /// in the background.
  [[nodiscard]] MigrationPlan price(const MigrationDeclaration& decl,
                                    asu::Node* to, std::size_t bytes,
                                    double gain, double win) const {
    MigrationPlan p;
    p.to = to;
    p.bytes = bytes;
    p.gain = gain;
    const std::size_t ws = bytes - decl.overhead_bytes;
    const double stop_stall = double(bytes) * decl.wire_seconds_per_byte;
    if (decl.wire_seconds_per_byte > 0 && ws > 0 &&
        stop_stall > cfg_.precopy_stall_fraction * win) {
      p.mode = MigrationMode::PreCopy;
      p.est_stall =
          (double(decl.overhead_bytes) + decl.dirty_fraction * double(ws)) *
          decl.wire_seconds_per_byte;
    } else {
      p.mode = MigrationMode::StopCopy;
      p.est_stall = stop_stall;
    }
    return p;
  }

  /// Normalizing window for the actionability floor: the sample's own
  /// period when it carries one, the configured period otherwise
  /// (hand-built samples in unit tests).
  [[nodiscard]] double window(const LoadSample& s) const {
    const double w = s.period > 0 ? s.period : cfg_.period;
    return w > 0 ? w : 1.0;
  }

  void journal(double t, std::string what) {
    if (eng_->tracer().enabled()) {
      eng_->tracer().instant(track_, what, t);
    }
    journal_.push_back({t, std::move(what)});
  }

  sim::Engine* eng_;
  LoadManagerConfig cfg_;
  std::vector<Client> clients_;
  std::size_t migrate_streak_ = 0;
  std::size_t cooldown_left_ = 0;
  std::vector<LoadManagerEvent> journal_;
  std::vector<PlacerDecision> decisions_;
  obs::Counter* migrations_counter_;
  obs::Counter* switches_counter_;
  std::uint32_t track_;
};

/// The load-management layer of one run: a monitor and, under Manage,
/// the manager it feeds. Both members are null under Off.
struct LoadManagement {
  std::unique_ptr<LoadMonitor> monitor;
  std::unique_ptr<LoadManager> manager;
};

/// The one wiring of the load-management layer, shared by every
/// workload: build what `cfg.mode` asks for and spawn the monitor (Off
/// builds and spawns nothing, so an unmanaged run schedules no sampling
/// events and registers no lm metrics). Programs then register with the
/// manager as clients. `stop_when_idle` as in LoadMonitor::start.
inline LoadManagement start_load_management(asu::Cluster& cluster,
                                            const LoadManagerConfig& cfg,
                                            bool stop_when_idle) {
  LoadManagement lm;
  if (cfg.mode == LoadManagerMode::Off) return lm;
  lm.monitor = std::make_unique<LoadMonitor>(cluster, cfg.period);
  if (cfg.mode == LoadManagerMode::Manage) {
    lm.manager = std::make_unique<LoadManager>(cluster.engine(), cfg);
    lm.monitor->set_observer(
        [m = lm.manager.get()](const LoadSample& s) { m->on_sample(s); });
  }
  lm.monitor->start(stop_when_idle);
  return lm;
}

/// Serialize a run's decision journals into a bench artifact entry:
/// `lm_events` always, and the `placer` block iff the run constructed a
/// manager (`managed` is config-driven, so serial and parallel sweeps
/// emit identically shaped artifacts).
inline void lm_journal_to_json(obs::Json& j,
                               const std::vector<LoadManagerEvent>& events,
                               bool managed,
                               const std::vector<PlacerDecision>& decisions) {
  obs::Json lm_events = obs::Json::array();
  for (const auto& e : events) {
    obs::Json entry = obs::Json::object();
    entry["time"] = e.time;
    entry["what"] = e.what;
    lm_events.push_back(std::move(entry));
  }
  j["lm_events"] = std::move(lm_events);
  if (!managed) return;
  obs::Json placer = obs::Json::array();
  for (const auto& d : decisions) {
    obs::Json entry = obs::Json::object();
    entry["time"] = d.time;
    entry["client"] = d.client;
    entry["instance"] = d.instance;
    entry["from"] = d.from;
    entry["to"] = d.to;
    entry["mode"] = std::string(migration_mode_name(d.mode));
    entry["bytes"] = d.bytes;
    entry["est_stall_seconds"] = d.est_stall;
    entry["gain_seconds"] = d.gain;
    placer.push_back(std::move(entry));
  }
  j["placer"] = std::move(placer);
}

}  // namespace lmas::core
