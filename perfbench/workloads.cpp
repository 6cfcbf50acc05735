#include "workloads.hpp"

#include <algorithm>
#include <chrono>

#include "asu/asu.hpp"
#include "core/core.hpp"
#include "sim/sim.hpp"
#include "tenant/tenant.hpp"

namespace perfbench {

namespace core = lmas::core;
namespace asu = lmas::asu;
namespace sim = lmas::sim;
namespace tenant = lmas::tenant;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Packet size DSM-Sort derives from the ASU memory bound when the
/// configuration leaves it at 0.
std::size_t packet_records_for(const asu::MachineParams& mp, unsigned alpha) {
  const std::size_t by_memory =
      mp.asu_memory / (std::size_t(alpha) * mp.record_bytes);
  return std::clamp<std::size_t>(by_memory, 64, 4096);
}

void fail(Rep& r, std::string why) {
  ++r.failed;
  if (r.failure.empty()) r.failure = std::move(why);
}

void take_lm(Rep& r, const core::DsmSortReport& rep) {
  r.lm_decisions = rep.lm_decisions.size();
  r.lm_migrations = rep.lm_migrations;
  r.lm_router_switches = rep.lm_router_switches;
  r.host_imbalance_mean = rep.mean_host_imbalance;
}

/// One-job outcome: the single job's arrival-to-done time is the makespan.
void closed_job_sim(SimOutcome& s, const core::DsmSortReport& rep) {
  s.pass1_s = rep.pass1_seconds;
  s.makespan_s = rep.makespan;
  s.job_p50_s = rep.makespan;
  s.job_p99_s = rep.makespan;
  s.goodput = rep.makespan > 0 ? 1.0 / rep.makespan : 0;
}

void validate_dsm(Rep& r, const core::DsmSortReport& rep, bool merge_pass) {
  r.attempted = 1;
  if (!rep.ok()) fail(r, "DsmSortReport::ok() is false");
  if (rep.records_in != r.records) fail(r, "records_in differs from input");
  if (merge_pass && (rep.pass2_seconds <= 0 || !rep.final_sorted_ok ||
                     rep.records_final != rep.records_in)) {
    fail(r, "pass 2 output not globally sorted or incomplete");
  }
}

// ---------------------------------------------------------------------------
// fig9-fanout: Fig. 9's corner where the single host saturates and a
// wide distribute fan-out (alpha = 256) wins. One closed batch sort.

class Fig9Fanout final : public Workload {
 public:
  explicit Fig9Fanout(Size size)
      : records_(size == Size::Full ? std::size_t(1) << 22
                                    : std::size_t(1) << 16) {}

  asu::MachineParams machine() const override {
    asu::MachineParams mp;
    mp.num_hosts = 1;
    mp.num_asus = 64;
    mp.c = 8.0;
    return mp;
  }

  Rep run(std::uint64_t seed, Variant v, SpanRecorder* spans,
          std::size_t parent) const override {
    core::DsmSortConfig cfg = config(seed);
    if (v == Variant::HistogramsOn) cfg.telemetry.histograms = true;
    Rep r;
    r.records = records_;
    std::unique_ptr<sim::Engine> eng;
    std::unique_ptr<asu::Cluster> cluster;
    std::unique_ptr<core::DsmSortJob> job;
    const double t0 = now_s();
    {
      ScopedSpan s(spans, "setup", parent);
      eng = std::make_unique<sim::Engine>();
      cluster = std::make_unique<asu::Cluster>(*eng, machine());
      job = std::make_unique<core::DsmSortJob>(*eng, *cluster, cfg);
    }
    const double t1 = now_s();
    {
      ScopedSpan s(spans, "run", parent);
      eng->spawn(job->body(), "fig9-fanout");
      eng->run();
      if (!job->finished() || eng->unfinished_tasks() != 0) {
        fail(r, "job did not finish");
      } else {
        const core::DsmSortReport& rep = job->report();
        closed_job_sim(r.sim, rep);
        validate_dsm(r, rep, false);
      }
      r.attempted = 1;
      r.sim.events = eng->events_processed();
      r.sim.digest = eng->digest();
      r.metrics = eng->metrics().snapshot();
      if (cfg.telemetry.histograms) {
        r.histograms = eng->metrics().latency_summaries();
      }
      job.reset();
      cluster.reset();
      eng.reset();
    }
    r.setup_s = t1 - t0;
    r.wall_s = now_s() - t1;
    return r;
  }

  std::vector<DsmInputs> dsm_inputs(std::uint64_t seed) const override {
    const core::DsmSortConfig cfg = config(seed);
    DsmInputs in;
    in.records = cfg.total_records;
    in.asus = machine().num_asus;
    in.alpha = cfg.alpha;
    in.run_length = cfg.host_run_length();
    in.packet_records = packet_records_for(machine(), cfg.alpha);
    in.dist = cfg.key_dist;
    in.seed = seed;
    return {in};
  }

  bool telemetry() const override { return false; }
  bool stage_histograms() const override { return true; }
  bool builds_jobs_in_run() const override { return false; }
  bool managed_router() const override { return false; }
  // 64 distribute + 1 sort + 64 store instances.
  unsigned live_processes() const override { return 129; }

 private:
  core::DsmSortConfig config(std::uint64_t seed) const {
    core::DsmSortConfig cfg;
    cfg.total_records = records_;
    cfg.alpha = 256;
    cfg.log2_alpha_beta = 18;
    cfg.key_dist = core::KeyDist::Uniform;
    cfg.splitters = core::DsmSortConfig::Splitters::Range;
    cfg.sort_router = core::RouterKind::Static;
    cfg.seed = seed;
    return cfg;
  }

  std::size_t records_;
};

// ---------------------------------------------------------------------------
// skew-managed: the Fig. 10 machine under online load management, with
// sampled splitters, a mild fault plan, telemetry on and both passes.

/// fig10_adapt's horizon: the unmanaged static pass-1 time of its
/// reference run. Held as a constant so the manager period and the fault
/// window stay put when the model changes.
constexpr double kFig10Horizon = 0.887;

class SkewManaged final : public Workload {
 public:
  explicit SkewManaged(Size size)
      : records_(size == Size::Full ? std::size_t(1) << 23
                                    : std::size_t(1) << 16) {}

  asu::MachineParams machine() const override {
    asu::MachineParams mp;
    mp.num_hosts = 2;
    mp.num_asus = 16;
    mp.c = 8.0;
    mp.util_bin = 0.05;
    mp.asu_background_load = 0.10;  // fig10_adapt's "mild" intensity
    return mp;
  }

  Rep run(std::uint64_t seed, Variant v, SpanRecorder* spans,
          std::size_t parent) const override {
    core::DsmSortConfig cfg = config(seed);
    if (v == Variant::TelemetryOff) cfg.telemetry = {};
    Rep r;
    r.records = records_;
    // run_dsm_sort builds and runs in one call, so set-up is timed by
    // building the same pipeline through the public DsmSortJob
    // constructor (pass 2 is built only after pass 1 ends) and taken
    // out of the call's time.
    double t0 = 0, t1 = 0;
    {
      ScopedSpan s(spans, "setup", parent);
      core::DsmSortConfig build = cfg;
      build.run_merge_pass = false;
      t0 = now_s();
      sim::Engine eng;
      asu::Cluster cluster(eng, machine());
      core::DsmSortJob job(eng, cluster, build);
      t1 = now_s();
    }
    ScopedSpan s(spans, "run", parent);
    const double t2 = now_s();
    const core::DsmSortReport rep = core::run_dsm_sort(machine(), cfg);
    const double t3 = now_s();
    r.setup_s = t1 - t0;
    r.wall_s = (t3 - t2) - r.setup_s;
    closed_job_sim(r.sim, rep);
    r.sim.events = rep.sim_events;
    r.sim.digest = rep.digest;
    validate_dsm(r, rep, true);
    r.metrics = rep.metrics;
    r.histograms = rep.histograms;
    take_lm(r, rep);
    return r;
  }

  std::vector<DsmInputs> dsm_inputs(std::uint64_t seed) const override {
    const core::DsmSortConfig cfg = config(seed);
    DsmInputs in;
    in.records = cfg.total_records;
    in.asus = machine().num_asus;
    in.alpha = cfg.alpha;
    in.run_length = cfg.host_run_length();
    in.packet_records = packet_records_for(machine(), cfg.alpha);
    in.dist = cfg.key_dist;
    in.sampled_splitters = true;
    in.merge_pass = true;
    in.seed = seed;
    return {in};
  }

  bool telemetry() const override { return true; }
  bool stage_histograms() const override { return true; }
  bool builds_jobs_in_run() const override { return false; }
  bool managed_router() const override { return true; }
  // 16 distribute + 2 sort + 16 store instances.
  unsigned live_processes() const override { return 34; }
  // The manager's choices, and so pass-1 time, vary with the key draw
  // (~11% between seeds); report the median of 5 streams.
  unsigned seed_streams() const override { return 5; }

 private:
  core::DsmSortConfig config(std::uint64_t seed) const {
    const double h = kFig10Horizon;
    core::DsmSortConfig cfg;
    cfg.total_records = records_;
    cfg.alpha = 16;
    cfg.log2_alpha_beta = 18;
    cfg.key_dist = core::KeyDist::HalfUniformHalfExp;
    cfg.splitters = core::DsmSortConfig::Splitters::Sampled;
    cfg.sort_router = core::RouterKind::Static;
    cfg.run_merge_pass = true;
    cfg.seed = seed;
    // fig10_adapt's managed cell: ~64 samples per horizon, act after 2
    // hot samples, two moves per tick.
    cfg.load_manager.mode = core::LoadManagerMode::Manage;
    cfg.load_manager.period = h / 64.0;
    cfg.load_manager.promote_hysteresis = 2;
    cfg.load_manager.demote_hysteresis = 4;
    cfg.load_manager.cooldown_samples = 4;
    cfg.load_manager.migrate_hysteresis = 2;
    cfg.load_manager.dwell_samples = 8;
    cfg.load_manager.budget_moves_per_tick = 2;
    // fig10_adapt's mild plan: host 0 at half speed for a fifth of H.
    cfg.faults.slowdown(/*on_asu=*/false, 0, 0.40 * h, 0.20 * h, 2.0);
    cfg.faults.normalize();
    cfg.telemetry.histograms = true;
    cfg.telemetry.sampler = true;
    cfg.telemetry.sample_period = h / 64.0;
    return cfg;
  }

  std::size_t records_;
};

// ---------------------------------------------------------------------------
// tenancy-open: three tenants on one cluster, open arrivals in simulated
// time, manager on. The rate is 0.1x fig_tenancy's scale: at 0.2x the
// completion p99 still grows with run length (0.06 -> 0.24 sim-s from 480
// to 2400 jobs), at 0.1x it holds near 0.045 sim-s. fig_tenancy's host-0
// slowdown window is left out: with it, p99 swings 0.08..0.42 sim-s
// between seeds even at 0.1x, so no bound could hold.

/// fig_tenancy's reference single-job time J (one alice sort alone on
/// the cluster); its offered rates are multiples of max_in_flight / J.
constexpr double kTenancyJobTime = 0.0044;
constexpr double kTenancyLoad = 0.1;
constexpr std::size_t kMaxInFlight = 4;

class TenancyOpen final : public Workload {
 public:
  explicit TenancyOpen(Size size) : jobs_(size == Size::Full ? 480 : 24) {}

  asu::MachineParams machine() const override {
    asu::MachineParams mp;
    mp.num_hosts = 2;
    mp.num_asus = 8;
    mp.c = 4.0;
    return mp;
  }

  Rep run(std::uint64_t seed, Variant v, SpanRecorder* spans,
          std::size_t parent) const override {
    tenant::TenancyConfig cfg = config(seed);
    if (v == Variant::TelemetryOff) cfg.telemetry_histograms = false;
    Rep r;
    // run_tenancy builds and runs in one call: set-up is timed by
    // building the same engine, cluster and arrival schedule through
    // their public constructors, and taken out of the call's time.
    double t0 = 0, t1 = 0;
    {
      ScopedSpan s(spans, "setup", parent);
      t0 = now_s();
      sim::Engine eng;
      asu::Cluster cluster(eng, machine());
      const double ta = now_s();
      {
        ScopedSpan a(spans, "tenant.arrivals", s.id());
        const tenant::ArrivalProcess arrivals(cfg);
      }
      t1 = now_s();
      r.arrivals_build_s = t1 - ta;
    }
    ScopedSpan s(spans, "run", parent);
    const double t2 = now_s();
    const tenant::TenancyReport rep = tenant::run_tenancy(machine(), cfg);
    const double t3 = now_s();
    r.setup_s = t1 - t0;
    r.wall_s = (t3 - t2) - r.setup_s;

    r.sim.pass1_s = rep.makespan;  // one pass: every job ends in pass 1
    r.sim.makespan_s = rep.makespan;
    r.sim.job_p50_s = rep.p50_job_seconds;
    r.sim.job_p99_s = rep.p99_job_seconds;
    r.sim.goodput = rep.goodput_jobs_per_sec;
    r.sim.events = rep.sim_events;
    r.sim.digest = rep.digest;

    r.attempted = cfg.total_jobs;
    for (const auto& t : rep.tenants) {
      r.records += t.records_in;
      if (!t.conservation_ok) {
        r.failed += t.jobs_completed;
        if (r.failure.empty()) r.failure = t.name + ": records not conserved";
      }
    }
    if (rep.jobs_submitted != cfg.total_jobs ||
        rep.jobs_completed != rep.jobs_submitted) {
      r.failed += cfg.total_jobs - std::min(cfg.total_jobs,
                                            rep.jobs_completed);
      if (r.failure.empty()) r.failure = "not every submitted job completed";
    }
    r.metrics = rep.metrics;
    r.histograms = rep.histograms;
    r.admission_waits = rep.admission_waits;
    r.lm_decisions = rep.lm_decisions.size();
    r.lm_migrations = rep.lm_migrations;
    r.lm_router_switches = rep.lm_router_switches;
    return r;
  }

  std::vector<DsmInputs> dsm_inputs(std::uint64_t seed) const override {
    const tenant::TenancyConfig cfg = config(seed);
    const tenant::ArrivalProcess arrivals(cfg);
    std::vector<DsmInputs> out;
    for (const auto& ev : arrivals.events()) {
      if (ev.kind != tenant::JobKind::DsmSort) continue;
      DsmInputs in;
      in.records = ev.records;
      in.asus = machine().num_asus;
      in.alpha = cfg.job_alpha;
      in.run_length = (std::size_t(1) << cfg.job_log2_alpha_beta) /
                      cfg.job_alpha;
      in.packet_records = packet_records_for(machine(), cfg.job_alpha);
      in.dist = core::KeyDist::HalfUniformHalfExp;  // the scheduler's choice
      in.seed = ev.job_seed;
      out.push_back(in);
    }
    return out;
  }

  std::vector<std::size_t> rtree_loads(std::uint64_t seed) const override {
    const tenant::ArrivalProcess arrivals(config(seed));
    std::vector<std::size_t> out;
    for (const auto& ev : arrivals.events()) {
      if (ev.kind == tenant::JobKind::RTreeBulkLoad) {
        out.push_back(ev.records);
      }
    }
    return out;
  }

  bool telemetry() const override { return true; }
  bool stage_histograms() const override { return false; }
  bool builds_jobs_in_run() const override { return true; }
  bool managed_router() const override { return true; }
  // Up to 4 jobs in flight, each 8 distribute + 2 sort + 8 store.
  unsigned live_processes() const override { return 72; }
  // Per-stream completion quantiles swing with the arrival draw (p50 by
  // ~18% between seeds at 480 jobs); the median of 20 streams holds.
  unsigned seed_streams() const override { return 20; }

 private:
  tenant::TenancyConfig config(std::uint64_t seed) const {
    const double j = kTenancyJobTime;
    tenant::TenancyConfig cfg;
    // fig_tenancy's population: alice submits skewed sorts of two sizes,
    // bob active scans, carol R-tree bulk loads.
    tenant::TenantSpec alice;
    alice.name = "alice";
    alice.fair_share_weight = 2.0;
    alice.arrival_weight = 2.0;
    alice.mix = {{tenant::JobKind::DsmSort, 1.0, std::size_t(1) << 15},
                 {tenant::JobKind::DsmSort, 1.0, std::size_t(1) << 14}};
    tenant::TenantSpec bob;
    bob.name = "bob";
    bob.mix = {{tenant::JobKind::ActiveScan, 1.0, std::size_t(1) << 16}};
    tenant::TenantSpec carol;
    carol.name = "carol";
    carol.mix = {
        {tenant::JobKind::RTreeBulkLoad, 1.0, std::size_t(1) << 15}};
    cfg.tenants = {alice, bob, carol};
    cfg.total_jobs = jobs_;
    cfg.seed = seed;
    cfg.max_in_flight = kMaxInFlight;
    cfg.job_alpha = 8;
    cfg.job_log2_alpha_beta = 10;
    cfg.offered_rate = kTenancyLoad * double(kMaxInFlight) / j;
    cfg.pressure_limit = 8.0 * j;
    cfg.load_manager.mode = core::LoadManagerMode::Manage;
    cfg.load_manager.period = j / 8.0;
    cfg.load_manager.promote_hysteresis = 2;
    cfg.load_manager.demote_hysteresis = 4;
    cfg.load_manager.cooldown_samples = 2;
    cfg.load_manager.migrate_hysteresis = 2;
    cfg.load_manager.dwell_samples = 4;
    return cfg;
  }

  std::size_t jobs_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, Size size) {
  if (name == "fig9-fanout") return std::make_unique<Fig9Fanout>(size);
  if (name == "skew-managed") return std::make_unique<SkewManaged>(size);
  if (name == "tenancy-open") return std::make_unique<TenancyOpen>(size);
  return nullptr;
}

}  // namespace perfbench
