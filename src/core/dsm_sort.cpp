#include "core/dsm_sort.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "asu/asu.hpp"
#include "core/pipeline.hpp"
#include "fault/fault.hpp"
#include "obs/report.hpp"
#include "obs/sampler.hpp"
#include "core/splitters.hpp"
#include "extmem/distribute.hpp"
#include "extmem/merge.hpp"
#include "extmem/radix_sort.hpp"
#include "extmem/record.hpp"
#include "sim/sim.hpp"

namespace lmas::core {

namespace {

namespace sim = lmas::sim;
namespace asu_ns = lmas::asu;
namespace em = lmas::em;

constexpr std::uint32_t kSubsetDoneMarker = 0xffffffffu;

/// Fraction of a sort instance's staged records assumed re-dirtied while
/// a pre-copy bulk transfer runs in the background (the stalled delta on
/// top of kMigrationOverheadBytes). Declared to the placer and honored by
/// the consult point, so the priced stall and the paid stall agree.
constexpr double kPrecopyDirtyFraction = 0.125;

/// Wall-clock seconds on the emulation host (the paper's fine-grained
/// processor cycle counter, in portable form).
double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out.empty() ? "<none>" : out;
}

}  // namespace

/// A stored (sorted) run reassembled on an ASU, tagged with its subset.
/// External linkage because DsmSortSim (whose definition is TU-local but
/// whose name is exported for DsmSortJob's pimpl) holds vectors of it.
struct StoredRun {
  std::uint32_t subset = 0;
  std::vector<em::KeyRecord> records;
};

/// Whole-program state for one emulated DSM-Sort execution. Instance
/// bodies are member coroutines; the object outlives the engine run.
///
/// Two ownership modes share this definition. Standalone (run_dsm_sort):
/// the sim owns a private engine + cluster, runs the event loop itself,
/// and may construct the fault/management layers. Embedded (DsmSortJob):
/// the sim borrows a scheduler's engine + cluster, contributes only its
/// own pipeline coroutines (wrapped so the job can detect completion),
/// and leaves injection/monitoring/sampling to the scheduler. Every
/// instrument, track, and spawn name is routed through pfx(), so an
/// empty cfg.label reproduces the legacy names byte-for-byte and the
/// pinned golden digests are untouched.
class DsmSortSim {
 public:
  /// Standalone mode: private engine and cluster, full report.
  DsmSortSim(const asu_ns::MachineParams& machine, const DsmSortConfig& cfg)
      : DsmSortSim(machine, cfg, nullptr, nullptr) {}

  /// Embedded mode: one job on a shared engine/cluster (see DsmSortJob).
  DsmSortSim(sim::Engine& eng, asu_ns::Cluster& cluster,
             const DsmSortConfig& cfg)
      : DsmSortSim(cluster.params(), cfg, &eng, &cluster) {}

  DsmSortReport run() {
    if (!cfg_.trace_file.empty()) eng_.tracer().enable();
    dsm_track_ = eng_.tracer().track(pfx("dsm-sort"));
    run_pass1();
    DsmSortReport rep;
    rep.pass1_seconds = pass1_end_;
    eng_.tracer().complete(dsm_track_, "pass1", 0.0, pass1_end_);
    eng_.metrics().gauge(pfx("dsm.pass1_seconds")).set(pass1_end_);
    if (phase_hist_ != nullptr) phase_hist_->observe(pass1_end_);
    validate_pass1(rep);
    if (cfg_.run_merge_pass) {
      run_pass2(rep);
      eng_.tracer().complete(dsm_track_, "pass2", pass1_end_,
                             pass1_end_ + rep.pass2_seconds);
      eng_.metrics().gauge(pfx("dsm.pass2_seconds")).set(rep.pass2_seconds);
      if (phase_hist_ != nullptr) phase_hist_->observe(rep.pass2_seconds);
    }
    rep.makespan = eng_.now();
    if (job_hist_ != nullptr) job_hist_->observe(rep.makespan);
    if (lm_.monitor) {
      rep.peak_host_imbalance = lm_.monitor->peak_host_imbalance();
      rep.mean_host_imbalance = lm_.monitor->mean_host_imbalance();
    }
    if (manager_ != nullptr) {
      rep.lm_managed = true;
      rep.lm_migrations = manager_->migrations();
      rep.lm_router_switches = manager_->router_switches();
      rep.lm_events = manager_->events();
      rep.lm_decisions = manager_->decisions();
    }
    collect_utilization(rep);
    rep.metrics = eng_.metrics().snapshot();
    if (cfg_.telemetry.histograms) {
      rep.histograms = eng_.metrics().latency_summaries();
    }
    if (sampler_ != nullptr) rep.time_series = sampler_->to_json();
    rep.sim_events = eng_.events_processed();
    rep.digest = eng_.digest();
    if (!cfg_.trace_file.empty()) {
      eng_.tracer().write_chrome_trace(cfg_.trace_file);
    }
    return rep;
  }

  // ------------------------- embedded (job) mode ----------------------

  /// Build the pipeline against the shared cluster without spawning
  /// anything; DsmSortJob's constructor calls this once.
  void build_embedded() {
    if (cfg_.run_merge_pass) {
      throw std::invalid_argument(
          "DsmSortJob: run_merge_pass is not supported in embedded mode "
          "(pass 2 re-runs the engine, which a shared engine forbids)");
    }
    embedded_ = true;
    build_pass1();
  }

  /// Root coroutine of the embedded job: stamp the start time, launch
  /// the instances, wait until every one of them drains, then assemble
  /// the job-relative report. Completion is condition-driven — on a
  /// shared engine, "the event loop returned" is everyone's signal, not
  /// this job's.
  sim::Task<> job_body() {
    t0_ = eng_.now();
    total_instances_ = std::size_t(d_) + h_ + d_;
    spawn_pass1();
    while (finished_instances_ < total_instances_) {
      co_await job_done_.wait();
    }
    pass1_end_ = *std::max_element(store_end_.begin(), store_end_.end());
    rep_ = DsmSortReport{};
    rep_.pass1_seconds = pass1_end_ - t0_;
    validate_pass1(rep_);
    rep_.makespan = eng_.now() - t0_;
    finished_flag_ = true;
  }

  [[nodiscard]] bool job_finished() const noexcept { return finished_flag_; }
  [[nodiscard]] const DsmSortReport& job_report() const { return rep_; }

  /// Register this program with `manager` as one client labeled `label`:
  /// its switchable sort router (if built), its sort instances (one per
  /// host; any host is a candidate destination) and each instance's
  /// migration economics (live staged records and wire cost, so the
  /// placer can price moves and pick pre-copy vs stop-copy). The
  /// migration consult points then follow this client's plans.
  std::size_t attach_manager(LoadManager& manager, const std::string& label) {
    manager_ = &manager;
    client_ = manager.add_client(label);
    manager.client_router(client_, switch_router_);
    manager.client_instances(client_, host_nodes_vec(), host_nodes_vec());
    for (unsigned hh = 0; hh < h_; ++hh) {
      manager.declare_instance(client_, hh, sort_declaration(hh));
    }
    return client_;
  }

 private:
  /// Delegation target for both modes: null externals means standalone
  /// (own the engine/cluster), non-null means embedded (borrow them; the
  /// machine shape comes from the shared cluster, so jobs cannot
  /// disagree with the substrate they run on).
  DsmSortSim(const asu_ns::MachineParams& machine, const DsmSortConfig& cfg,
             sim::Engine* ext_eng, asu_ns::Cluster* ext_cluster)
      : mp_(machine),
        cfg_(cfg),
        owned_eng_(ext_eng != nullptr ? nullptr
                                      : std::make_unique<sim::Engine>()),
        owned_cluster_(ext_cluster != nullptr
                           ? nullptr
                           : std::make_unique<asu_ns::Cluster>(*owned_eng_,
                                                               machine)),
        eng_(ext_eng != nullptr ? *ext_eng : *owned_eng_),
        cluster_(ext_cluster != nullptr ? *ext_cluster : *owned_cluster_),
        d_(machine.num_asus),
        h_(machine.num_hosts),
        alpha_(cfg.distribute_on_asus ? cfg.alpha : 1),
        packet_records_(derive_packet_records()),
        block_records_(std::max<std::size_t>(
            1, std::size_t(64 * 1024) / machine.record_bytes)),
        classifier_(make_classifier()),
        checksum_in_(d_, 0),
        count_in_(d_, 0) {
    if (!(cfg.fair_share_weight > 0)) {
      throw std::invalid_argument(
          "DsmSortConfig.fair_share_weight must be > 0 (got " +
          std::to_string(cfg.fair_share_weight) + ")");
    }
    charge_scale_ = 1.0 / cfg.fair_share_weight;
  }

  /// Prefix an instrument/track/spawn name with the job label. Empty
  /// label returns the legacy name unchanged (golden compatibility).
  [[nodiscard]] std::string pfx(const char* s) const {
    return cfg_.label.empty() ? std::string(s) : cfg_.label + "." + s;
  }

  /// Fair-share scaling for CPU charges. The ==1.0 fast path is not an
  /// optimization: it guarantees default-weight charges are the very
  /// same doubles as before this knob existed.
  [[nodiscard]] double scaled(double x) const {
    return charge_scale_ == 1.0 ? x : x * charge_scale_;
  }

  // ----------------------------- pass 1 -------------------------------

  void run_pass1() {
    build_pass1();
    attach_management();
    spawn_pass1();
    eng_.run();
    if (eng_.unfinished_tasks() != 0) {
      throw std::logic_error("DSM-Sort pass 1 deadlocked; unfinished: " +
                             join_names(eng_.unfinished_task_names()));
    }
    pass1_end_ = *std::max_element(store_end_.begin(), store_end_.end());
  }

  /// Build the pass-1 pipeline: inboxes, routers, stage outputs,
  /// histograms, validation state, and (standalone only) the fault
  /// injector. No coroutines are spawned yet.
  void build_pass1() {
    // The host-side inbox may buffer generously: hosts have large
    // memories (the model's asymmetry), and smooth pipelining requires
    // roughly K = alpha*beta records of slack to absorb the synchronized
    // beta-block fill waves across subsets. ASU-side inboxes stay small
    // (bounded ASU memory).
    const std::size_t host_inbox_packets = std::max<std::size_t>(
        64, mp_.host_memory / mp_.record_bytes / 2 /
                std::max<std::size_t>(1, packet_records_) / h_);
    sort_in_ = std::make_unique<StageInboxes>(eng_, h_, host_inbox_packets);
    store_in_ = std::make_unique<StageInboxes>(eng_, d_, 64);

    std::vector<asu_ns::Node*> host_nodes, asu_nodes;
    for (unsigned i = 0; i < h_; ++i) host_nodes.push_back(&cluster_.host(i));
    for (unsigned i = 0; i < d_; ++i) asu_nodes.push_back(&cluster_.asu(i));

    // Passive baseline has no subsets, so spread packets round-robin; the
    // active configurations route per the configured policy. Under the
    // load manager the baseline policy sits inside a SwitchableRouter
    // whose dynamic alternative is SR — not least-loaded: SR keeps every
    // instance fed, so the recv-side migration consult points keep
    // firing even on the host being drained. The decorator order is
    // Instrumented(Switchable(...)): route counters then attribute picks
    // to whichever regime made them.
    const RouterKind sort_kind =
        cfg_.distribute_on_asus ? cfg_.sort_router : RouterKind::RoundRobin;
    auto sort_stream = sim::Rng(cfg_.seed).stream(sim::stream_id("routing.sort"));
    std::unique_ptr<RoutingPolicy> sort_router;
    if (cfg_.load_manager.mode == LoadManagerMode::Manage &&
        cfg_.distribute_on_asus) {
      auto switchable = std::make_unique<SwitchableRouter>(
          make_router({.kind = sort_kind,
                       .rng = sort_stream,
                       .total_subsets = alpha_}),
          std::make_unique<SimpleRandomizationRouter>(
              sim::Rng(cfg_.seed)
                  .stream(sim::stream_id("routing.sort.dynamic"))));
      switch_router_ = switchable.get();
      sort_router = std::make_unique<InstrumentedRouter>(
          std::move(switchable), eng_, "sort");
    } else {
      sort_router = make_router({.kind = sort_kind,
                                 .rng = sort_stream,
                                 .total_subsets = alpha_,
                                 .instrument = &eng_,
                                 .label = "sort"});
    }
    to_sort_ = std::make_unique<StageOutput>(
        eng_, cluster_.network(),
        StageSpec{.record_bytes = mp_.record_bytes,
                  .endpoints = sort_in_->endpoints(host_nodes),
                  .router = std::move(sort_router),
                  .producers = d_,
                  .name = pfx("to_sort"),
                  .charge_scale = charge_scale_,
                  .telemetry = cfg_.telemetry.histograms});
    // Runs are striped across ASUs at packet granularity (Section 4.3:
    // merged/sorted runs are stored striped across the ASUs). On a
    // hierarchical topology the striping prefers the producing sort
    // instance's own rack (run_id encodes the producer: hh * 0x100000,
    // so run_id >> 20 recovers it; sort_rack_ tracks migrations), which
    // keeps run chunks off the oversubscribed spine. Flat topologies
    // build the exact pre-existing RoundRobinRouter — byte-identical.
    std::unique_ptr<RoutingPolicy> store_router;
    const asu_ns::TopologySpec& topo = cluster_.topology();
    if (cfg_.rack_affinity_store && topo.hierarchical()) {
      sort_rack_.assign(h_, 0);
      for (unsigned hh = 0; hh < h_; ++hh) {
        sort_rack_[hh] = topo.rack_of_host(hh);
      }
      store_router = std::make_unique<RackAffinityRouter>(
          [this](const Packet& p) {
            return sort_rack_[std::size_t(p.run_id >> 20) % h_];
          },
          [this](const asu_ns::Node* n) {
            return cluster_.topology().rack_of_asu(unsigned(n->id()));
          });
    } else {
      store_router = std::make_unique<RoundRobinRouter>();
    }
    to_store_ = std::make_unique<StageOutput>(
        eng_, cluster_.network(),
        StageSpec{.record_bytes = mp_.record_bytes,
                  .endpoints = store_in_->endpoints(asu_nodes),
                  .router = std::move(store_router),
                  .producers = h_,
                  .name = pfx("to_store"),
                  .charge_scale = charge_scale_,
                  .telemetry = cfg_.telemetry.histograms});

    // Functor-level latency histograms (the per-packet delivery and
    // queue-wait instruments live inside the StageOutputs above). All
    // push-model: registered only on opt-in, fed from control flow that
    // runs anyway, so the digest and — when off — the metrics
    // fingerprint are untouched.
    if (cfg_.telemetry.histograms) {
      auto& reg = eng_.metrics();
      sort_hist_ = &reg.latency(pfx("sort.packet_seconds"));
      store_hist_ = &reg.latency(pfx("store.packet_seconds"));
      phase_hist_ = &reg.latency(pfx("dsm.phase_seconds"));
      job_hist_ = &reg.latency(pfx("dsm.job_seconds"));
      if (cfg_.load_manager.mode == LoadManagerMode::Manage) {
        migration_hist_ = &reg.latency(pfx("lm.migration_seconds"));
      }
    }

    stored_.assign(d_, {});
    records_sorted_per_host_.assign(h_, 0);
    sort_staged_records_.assign(h_, 0);
    store_end_.assign(d_, 0.0);

    // Fault layer: spawned only for a non-empty plan so fault-free runs
    // make no extra RNG draws, schedule no extra events, and register no
    // extra metrics — the pinned golden digests stay bit-for-bit intact.
    if (!cfg_.faults.empty()) {
      to_sort_->set_fault_retry(cfg_.faults.retry_timeout,
                                cfg_.faults.max_retries);
      to_store_->set_fault_retry(cfg_.faults.retry_timeout,
                                 cfg_.faults.max_retries);
      // Embedded jobs configure the retry contract but never inject: the
      // cluster's fault timeline belongs to the tenant scheduler (one
      // injector for everyone, not one per job).
      if (!embedded_) {
        injector_ = std::make_unique<fault::FaultInjector>(
            cluster_, cfg_.faults,
            sim::Rng(cfg_.seed).stream(sim::stream_id("faults")));
        eng_.spawn(injector_->run(), "fault-injector");
      }
    }
  }

  /// Standalone only: the load-management layer and the passive
  /// sampler. Embedded jobs skip this whole layer — the scheduler runs
  /// one shared monitor + cross-job manager for the cluster.
  void attach_management() {
    lm_ = start_load_management(cluster_, cfg_.load_manager,
                                /*stop_when_idle=*/true);
    if (lm_.manager) attach_manager(*lm_.manager, "");

    // Sim-time series: a passive sampler driven from the engine's run
    // loop (see Engine::set_sampler), NOT a scheduled process — a
    // sampling coroutine would add events and move the digest. Probe
    // order is fixed by configuration, so serial and parallel sweeps
    // emit identical time_series blocks.
    if (cfg_.telemetry.sampler) {
      const double period = cfg_.telemetry.sample_period > 0
                                ? cfg_.telemetry.sample_period
                                : mp_.util_bin;
      sampler_ = std::make_unique<obs::Sampler>(
          period, cfg_.telemetry.sample_capacity);
      for (unsigned i = 0; i < h_; ++i) {
        sampler_->add_probe(
            "host.load." + std::to_string(i),
            [n = &cluster_.host(i)] { return n->cpu().backlog(); });
      }
      for (unsigned a = 0; a < d_; ++a) {
        sampler_->add_probe(
            "asu.backlog." + std::to_string(a),
            [n = &cluster_.asu(a)] { return n->cpu().backlog(); });
      }
      if (injector_ != nullptr) {
        sampler_->add_probe("fault.nodes_impaired", [this] {
          double n = 0;
          for (unsigned i = 0; i < h_; ++i) {
            if (cluster_.host(i).health() != asu_ns::NodeHealth::Healthy) {
              ++n;
            }
          }
          for (unsigned a = 0; a < d_; ++a) {
            if (cluster_.asu(a).health() != asu_ns::NodeHealth::Healthy) {
              ++n;
            }
          }
          return n;
        });
      }
      if (manager_ != nullptr) {
        sampler_->add_probe("lm.migrations", [this] {
          return double(manager_->migrations());
        });
        sampler_->add_probe("lm.router_switches", [this] {
          return double(manager_->router_switches());
        });
        if (switch_router_ != nullptr) {
          sampler_->add_probe("lm.router_dynamic", [this] {
            return switch_router_->dynamic_active() ? 1.0 : 0.0;
          });
        }
      }
      eng_.set_sampler(sampler_.get());
    }
  }

  /// Launch the pass-1 instance coroutines. Standalone spawns them bare
  /// (names and order identical to the pre-refactor code, so the pinned
  /// digests — which fold spawn names — are untouched); embedded wraps
  /// each in tracked() so job_body() can detect drain on a shared
  /// engine, where Engine::run() returning is not this job's signal.
  void spawn_pass1() {
    for (unsigned a = 0; a < d_; ++a) {
      spawn_instance(distribute_instance(a),
                     pfx("distribute") + std::to_string(a));
    }
    for (unsigned hh = 0; hh < h_; ++hh) {
      spawn_instance(sort_instance(hh), pfx("sort") + std::to_string(hh));
    }
    for (unsigned a = 0; a < d_; ++a) {
      spawn_instance(store_instance(a), pfx("store") + std::to_string(a));
    }
  }

  void spawn_instance(sim::Task<> body, std::string name) {
    if (embedded_) {
      eng_.spawn(tracked(std::move(body)), std::move(name));
    } else {
      eng_.spawn(std::move(body), std::move(name));
    }
  }

  /// Completion envelope for embedded instances: run the instance, then
  /// count it done and wake the job body when the last one drains.
  sim::Task<> tracked(sim::Task<> inner) {
    co_await std::move(inner);
    if (++finished_instances_ == total_instances_) {
      job_done_.notify_all();
    }
  }

  [[nodiscard]] std::vector<asu_ns::Node*> host_nodes_vec() {
    std::vector<asu_ns::Node*> nodes;
    nodes.reserve(h_);
    for (unsigned i = 0; i < h_; ++i) nodes.push_back(&cluster_.host(i));
    return nodes;
  }

  /// The migration economics of sort instance `hh`: its working set is
  /// the records currently staged toward incomplete runs (exactly the
  /// bytes the consult point ships), the fixed overhead is the control/
  /// context cost every move pays, and the wire cost is the declared
  /// host-to-host path (serialize out of one NIC, across a link, into
  /// the other NIC) — an estimate for *pricing*; the actual transfer is
  /// charged by the network model when the move executes.
  [[nodiscard]] MigrationDeclaration sort_declaration(unsigned hh) {
    MigrationDeclaration decl;
    decl.working_set_bytes = [this, hh] {
      return sort_staged_records_[hh] * mp_.record_bytes;
    };
    decl.wire_seconds_per_byte =
        2.0 / mp_.host_nic_bandwidth + 1.0 / mp_.link_bandwidth;
    decl.dirty_fraction = kPrecopyDirtyFraction;
    return decl;
  }

  /// Per-ASU workload stream: the splitter pre-pass must regenerate the
  /// exact key sequence each distribute instance will see, so both draw
  /// from the same named stream. Independent of the routing stream by
  /// construction (distinct stream ids), not by seed arithmetic.
  [[nodiscard]] sim::Rng workload_stream(unsigned a) const {
    return sim::Rng(cfg_.seed).stream(sim::stream_id("workload", a));
  }

  [[nodiscard]] std::size_t local_share(unsigned a) const {
    const std::size_t base = cfg_.total_records / d_;
    const std::size_t extra = a < cfg_.total_records % d_ ? 1 : 0;
    return base + extra;
  }

  sim::Task<> distribute_instance(unsigned a) {
    asu_ns::Node& node = cluster_.asu(a);
    obs::Counter& records_done =
        eng_.metrics().counter(pfx("functor.distribute") +
                               std::to_string(a) + ".records");
    const std::size_t n_local = local_share(a);
    if (n_local == 0) {
      to_sort_->producer_done();
      co_return;
    }
    KeyGenerator gen(cfg_.key_dist, n_local, workload_stream(a));
    asu_ns::Disk::ReadStream rs(node.disk(),
                                block_records_ * mp_.record_bytes);

    std::vector<Packet> staging(alpha_);
    std::vector<std::uint32_t> seq(alpha_, 0);
    for (unsigned s = 0; s < alpha_; ++s) {
      staging[s].subset = s;
      staging[s].records = to_sort_->pool().acquire(packet_records_);
    }

    const double per_record_cpu =
        cfg_.distribute_on_asus
            ? mp_.cost.distribute_per_record(cfg_.alpha, /*on_asu=*/true)
            : 0.0;  // conventional storage: no integrated processing

    // The staged-record budget is the ASU memory bound; when staging
    // grows past it, the fullest subset buffer is flushed as a (possibly
    // partial) packet. This keeps ASU state bounded while records flow
    // downstream continuously instead of bursting at end-of-input.
    const std::size_t budget_records = std::max<std::size_t>(
        packet_records_, mp_.asu_memory / mp_.record_bytes / 2);
    std::size_t staged_records = 0;

    std::uint32_t next_id = a * 0x1000000u;
    std::size_t remaining = n_local;
    std::vector<Packet> ready;
    while (remaining > 0) {
      // Degraded modes: a crashed ASU stops reading/classifying until it
      // recovers (one branch on the healthy path, no engine work).
      while (!node.running()) co_await node.health_wait();
      const std::size_t blk = std::min(block_records_, remaining);
      remaining -= blk;
      co_await rs.next_block(/*last=*/remaining == 0);

      // Execute the real classification for this block; flushes are
      // collected and emitted after the (possibly measured) CPU charge.
      ready.clear();
      const double w0 = wall_seconds();
      std::uint64_t block_checksum = 0;
      for (std::size_t i = 0; i < blk; ++i) {
        const std::uint32_t key = gen.next();
        block_checksum += key;
        const std::uint32_t s = cfg_.distribute_on_asus ? classifier_(key) : 0u;
        staging[s].records.push_back({key, next_id++});
        ++staged_records;
        if (staging[s].records.size() >= packet_records_) {
          staged_records -= staging[s].records.size();
          stage_ready(staging[s], seq[s], ready, to_sort_->pool(),
                      packet_records_);
        } else if (staged_records >= budget_records) {
          std::size_t fullest = 0;
          for (unsigned t = 1; t < alpha_; ++t) {
            if (staging[t].records.size() >
                staging[fullest].records.size()) {
              fullest = t;
            }
          }
          staged_records -= staging[fullest].records.size();
          stage_ready(staging[fullest], seq[fullest], ready,
                      to_sort_->pool(), packet_records_);
        }
      }
      const double wall = wall_seconds() - w0;
      checksum_in_[a] += block_checksum;
      count_in_[a] += blk;
      records_done.inc(blk);

      if (cfg_.distribute_on_asus) {
        // Measured mode times the real classification kernel; the
        // per-record I/O-path handling is not executed by the emulation
        // (disk and NIC are models), so it stays a declared charge.
        const double charge =
            mp_.measured_timing
                ? wall * mp_.measured_scale +
                      double(blk) * mp_.cost.asu_handling
                : double(blk) * per_record_cpu;
        if (charge > 0) co_await node.compute(scaled(charge));
      }
      for (auto& pkt : ready) {
        co_await to_sort_->emit(node, std::move(pkt));
      }
    }
    ready.clear();
    for (unsigned s = 0; s < alpha_; ++s) {
      if (!staging[s].records.empty()) {
        stage_ready(staging[s], seq[s], ready, to_sort_->pool(),
                    packet_records_);
      }
    }
    for (auto& pkt : ready) {
      co_await to_sort_->emit(node, std::move(pkt));
    }
    to_sort_->producer_done();
  }

  /// Flush one staging slot into `ready`, refilling the slot with a
  /// recycled buffer so the next fill starts at full capacity without a
  /// fresh allocation.
  static void stage_ready(Packet& slot, std::uint32_t& seq,
                          std::vector<Packet>& ready, PacketPool& pool,
                          std::size_t capacity) {
    Packet out;
    out.subset = slot.subset;
    out.seq = seq++;
    out.records = std::move(slot.records);
    slot.records = pool.acquire(capacity);
    ready.push_back(std::move(out));
  }

  sim::Task<> sort_instance(unsigned hh) {
    // The instance's location is mutable state: the load manager may
    // re-pin it to another host mid-stream (functor migration).
    asu_ns::Node* node = &cluster_.host(hh);
    auto& in = sort_in_->inbox(hh);
    const std::uint32_t track =
        eng_.tracer().track(pfx("sort") + std::to_string(hh));
    const std::size_t run_len = cfg_.host_run_length();
    std::unordered_map<std::uint32_t, std::vector<em::KeyRecord>> staging;
    std::uint32_t next_run_id = hh * 0x100000u;

    while (true) {
      auto p = co_await in.recv();
      if (!p) break;
      to_sort_->consumed(*p, track);
      const double t_take = eng_.now();
      // Accepted packets stay queued across a crash window; processing
      // pauses here and resumes on recovery (nothing is lost).
      while (!node->running()) co_await node->health_wait();
      // Migration consult point: between packets, the functor's state is
      // exactly its staged records, so that is what the move ships (plus
      // the fixed control/context overhead). Packets already in flight
      // complete against the old location's accounting.
      if (manager_ != nullptr) {
        const MigrationPlan& plan = manager_->migration_plan(client_, hh);
        asu_ns::Node* target = plan.to;
        if (target != nullptr && target != node) {
          std::size_t staged = 0;
          for (const auto& [s, buf] : staging) staged += buf.size();
          const std::size_t state_bytes = staged * mp_.record_bytes;
          const double t_move = eng_.now();
          if (plan.mode == MigrationMode::PreCopy && state_bytes > 0) {
            // Pre-copy: the bulk state ships in the background (its
            // wire charges are real, but the instance does not wait on
            // them); the stalled transfer is only the fixed overhead
            // plus the dirty delta assumed re-staged meanwhile.
            eng_.spawn(precopy_bulk(*node, *target, state_bytes),
                       pfx("sort") + std::to_string(hh) + ".precopy");
            const std::size_t dirty = std::size_t(
                double(state_bytes) * kPrecopyDirtyFraction);
            co_await cluster_.network().transfer(
                *node, *target, dirty + kMigrationOverheadBytes);
          } else {
            // Stop-copy: freeze for the whole working set + overhead.
            co_await cluster_.network().transfer(
                *node, *target, state_bytes + kMigrationOverheadBytes);
          }
          if (migration_hist_ != nullptr) {
            migration_hist_->observe(eng_.now() - t_move);
          }
          if (p->trace_id != 0 && eng_.tracer().enabled()) {
            // The re-pin shows up in the packet's flow lane: the packet
            // that triggered the consult carries the move.
            eng_.tracer().flow_step(track,
                                    "migrate->" + target->cpu().name(),
                                    eng_.now(), p->trace_id);
          }
          node = target;
          if (!sort_rack_.empty()) {
            sort_rack_[hh] =
                cluster_.topology().rack_of_host(unsigned(target->id()));
          }
          to_sort_->set_target_node(hh, *target);
          manager_->migration_performed(client_, hh, *target);
        }
      }
      const std::uint64_t parent_flow = p->trace_id;
      auto& buf = staging[p->subset];
      buf.insert(buf.end(), p->records.begin(), p->records.end());
      sort_staged_records_[hh] += p->records.size();
      to_sort_->pool().release(std::move(p->records));
      while (buf.size() >= run_len) {
        std::vector<em::KeyRecord> block;
        if (buf.size() == run_len) {
          // The staged buffer is exactly one run: hand it over whole and
          // restart staging in a buffer sized for the next one.
          block = std::exchange(buf, {});
          buf.reserve(run_len);
        } else {
          block.assign(buf.begin(), buf.begin() + std::ptrdiff_t(run_len));
          buf.erase(buf.begin(), buf.begin() + std::ptrdiff_t(run_len));
        }
        sort_staged_records_[hh] -= run_len;
        co_await emit_run(*node, hh, p->subset, std::move(block),
                          next_run_id++, parent_flow);
      }
      if (sort_hist_ != nullptr) sort_hist_->observe(eng_.now() - t_take);
    }
    // Input closed: flush partial blocks as short runs.
    for (auto& [subset, buf] : staging) {
      if (!buf.empty()) {
        sort_staged_records_[hh] -= buf.size();
        co_await emit_run(*node, hh, subset, std::move(buf), next_run_id++,
                          /*parent_flow=*/0);
      }
    }
    to_store_->producer_done();
  }

  /// Background half of a pre-copy move: ship the bulk working set
  /// without the instance waiting on it. The wire charges are real —
  /// pre-copy trades stall time for total bytes (the dirty delta ships
  /// twice), exactly the tradeoff the placer priced.
  sim::Task<> precopy_bulk(asu_ns::Node& from, asu_ns::Node& to,
                           std::size_t bytes) {
    co_await cluster_.network().transfer(from, to, bytes);
  }

  sim::Task<> emit_run(asu_ns::Node& node, unsigned hh, std::uint32_t subset,
                       std::vector<em::KeyRecord> block,
                       std::uint32_t run_id, std::uint64_t parent_flow) {
    // Run formation is a stable radix sort: equal keys keep their arrival
    // order. It completes before the first co_await, so every instance
    // can share the one scratch buffer.
    const double w0 = wall_seconds();
    em::radix_sort_by_key(block, sort_scratch_);
    const double wall = wall_seconds() - w0;
    const double charge =
        mp_.measured_timing
            ? wall * mp_.measured_scale +
                  double(block.size()) * mp_.cost.host_handling
            : double(block.size()) *
                  mp_.cost.sort_per_record(cfg_.host_run_length(),
                                           /*on_asu=*/false);
    co_await node.compute(scaled(charge));
    records_sorted_per_host_[hh] += block.size();
    eng_.metrics()
        .counter(pfx("functor.sort") + std::to_string(hh) + ".records")
        .inc(block.size());

    std::size_t off = 0;
    std::uint32_t seq = 0;
    while (off < block.size()) {
      const std::size_t n = std::min(packet_records_, block.size() - off);
      Packet out;
      out.subset = subset;
      out.run_id = run_id;
      out.seq = seq++;
      out.sorted = true;
      // Derived flow: the sorted-run packet's lane links back to the
      // distribute packet whose arrival completed the run.
      out.parent_id = parent_flow;
      out.records = to_store_->pool().acquire(n);
      out.records.assign(block.begin() + std::ptrdiff_t(off),
                         block.begin() + std::ptrdiff_t(off + n));
      off += n;
      co_await to_store_->emit(node, std::move(out));
    }
  }

  sim::Task<> store_instance(unsigned a) {
    asu_ns::Node& node = cluster_.asu(a);
    obs::Counter& records_done =
        eng_.metrics().counter(pfx("functor.store") + std::to_string(a) +
                               ".records");
    const std::uint32_t track =
        eng_.tracer().track(pfx("store") + std::to_string(a));
    auto& in = store_in_->inbox(a);
    // Chunks are placed by (run_id, seq) rather than appended in arrival
    // order: fault re-routing (retry-with-timeout) can let a later chunk
    // of a run overtake an earlier one, and chunk seqs within a run are
    // assigned in key order, so seq-ordered concatenation reconstructs a
    // sorted run under any interleaving. Chunks that extend the run's
    // contiguous prefix [0, next_seq) append to it as they arrive; any
    // other chunk waits in `pending` and joins in seq order. Appended
    // chunk buffers go back to the stage's pool.
    const std::size_t run_len = cfg_.host_run_length();
    struct OpenRun {
      std::uint32_t subset = 0;
      std::vector<em::KeyRecord> records;
      std::uint32_t next_seq = 0;
      std::map<std::uint32_t, std::vector<em::KeyRecord>> pending;
    };
    const auto append = [&](std::vector<em::KeyRecord>& to,
                            std::vector<em::KeyRecord>&& chunk) {
      if (to.empty()) {
        to = std::move(chunk);
        return;
      }
      to.reserve(std::max(run_len, to.size() + chunk.size()));
      to.insert(to.end(), chunk.begin(), chunk.end());
      to_store_->pool().release(std::move(chunk));
    };
    std::map<std::uint32_t, OpenRun> open;  // run_id -> accumulating run
    while (true) {
      auto p = co_await in.recv();
      if (!p) break;
      to_store_->consumed(*p, track);
      const double t_take = eng_.now();
      while (!node.running()) co_await node.health_wait();
      records_done.inc(p->records.size());
      co_await node.disk().write(p->wire_bytes(mp_.record_bytes));
      if (store_hist_ != nullptr) store_hist_->observe(eng_.now() - t_take);
      OpenRun& run = open[p->run_id];
      run.subset = p->subset;
      if (p->seq != run.next_seq) {
        append(run.pending[p->seq], std::move(p->records));
        continue;
      }
      append(run.records, std::move(p->records));
      ++run.next_seq;
      for (auto it = run.pending.begin();
           it != run.pending.end() && it->first == run.next_seq;
           it = run.pending.erase(it)) {
        append(run.records, std::move(it->second));
        ++run.next_seq;
      }
    }
    auto& dest = stored_[a];
    dest.reserve(open.size());
    for (auto& [run_id, run] : open) {
      for (auto& [seq, chunk] : run.pending) {
        append(run.records, std::move(chunk));
      }
      dest.push_back(StoredRun{run.subset, std::move(run.records)});
    }
    store_end_[a] = eng_.now();
  }

  void validate_pass1(DsmSortReport& rep) const {
    rep.records_in = 0;
    std::uint64_t checksum_in = 0;
    for (unsigned a = 0; a < d_; ++a) {
      rep.records_in += count_in_[a];
      checksum_in += checksum_in_[a];
    }
    rep.runs_sorted_ok = true;
    rep.subsets_ok = true;
    std::uint64_t checksum_out = 0;
    for (const auto& asu_runs : stored_) {
      rep.runs_stored += asu_runs.size();
      for (const auto& run : asu_runs) {
        const auto& recs = run.records;
        rep.records_stored += recs.size();
        // One sweep sums the keys and counts order violations.
        std::size_t descents = 0;
        for (std::size_t i = 0; i < recs.size(); ++i) {
          checksum_out += recs[i].key;
          descents += i > 0 && recs[i].key < recs[i - 1].key;
        }
        const bool sorted = descents == 0;
        if (!sorted) rep.runs_sorted_ok = false;
        if (!cfg_.distribute_on_asus || recs.empty()) continue;
        // The classifier is monotone in the key, so a sorted run lies in
        // one bucket iff its first and last records do.
        const auto in_subset = [&](const em::KeyRecord& r) {
          return classifier_(r.key) == run.subset;
        };
        if (sorted ? !in_subset(recs.front()) || !in_subset(recs.back())
                   : !std::all_of(recs.begin(), recs.end(), in_subset)) {
          rep.subsets_ok = false;
        }
      }
    }
    rep.checksum_ok = (checksum_in == checksum_out) &&
                      (rep.records_in == rep.records_stored);
    rep.records_sorted_per_host = records_sorted_per_host_;
  }

  // ----------------------------- pass 2 -------------------------------

  void run_pass2(DsmSortReport& rep) {
    merge_in_ = std::make_unique<StageInboxes>(eng_, h_, 16);
    final_in_ = std::make_unique<StageInboxes>(eng_, d_, 8);

    std::vector<asu_ns::Node*> host_nodes, asu_nodes;
    for (unsigned i = 0; i < h_; ++i) host_nodes.push_back(&cluster_.host(i));
    for (unsigned i = 0; i < d_; ++i) asu_nodes.push_back(&cluster_.asu(i));

    to_host_merge_ = std::make_unique<StageOutput>(
        eng_, cluster_.network(),
        StageSpec{.record_bytes = mp_.record_bytes,
                  .endpoints = merge_in_->endpoints(host_nodes),
                  .router = std::make_unique<StaticPartitionRouter>(),
                  .producers = d_,
                  .name = "to_host_merge",
                  .telemetry = cfg_.telemetry.histograms});
    to_final_store_ = std::make_unique<StageOutput>(
        eng_, cluster_.network(),
        StageSpec{.record_bytes = mp_.record_bytes,
                  .endpoints = final_in_->endpoints(asu_nodes),
                  .router = std::make_unique<RoundRobinRouter>(),
                  .producers = h_,
                  .name = "to_final_store",
                  .telemetry = cfg_.telemetry.histograms});

    final_end_.assign(d_, pass1_end_);
    subset_bounds_.assign(alpha_, {});
    final_sorted_ok_ = true;

    for (unsigned a = 0; a < d_; ++a) {
      eng_.spawn(asu_merge_instance(a), "asu_merge" + std::to_string(a));
    }
    for (unsigned hh = 0; hh < h_; ++hh) {
      eng_.spawn(host_merge_instance(hh), "host_merge" + std::to_string(hh));
    }
    for (unsigned a = 0; a < d_; ++a) {
      eng_.spawn(final_store_instance(a), "final_store" + std::to_string(a));
    }

    eng_.run();
    if (eng_.unfinished_tasks() != 0) {
      throw std::logic_error("DSM-Sort pass 2 deadlocked; unfinished: " +
                             join_names(eng_.unfinished_task_names()));
    }

    rep.pass2_seconds =
        *std::max_element(final_end_.begin(), final_end_.end()) - pass1_end_;
    rep.records_final = records_final_;

    // Cross-subset order: max key of subset s <= min key of subset s+1.
    std::uint32_t prev_max = 0;
    bool have_prev = false;
    for (const auto& b : subset_bounds_) {
      if (b.count == 0) continue;
      if (have_prev && b.min_key < prev_max) final_sorted_ok_ = false;
      prev_max = b.max_key;
      have_prev = true;
    }
    rep.final_sorted_ok =
        final_sorted_ok_ && records_final_ == rep.records_in;
  }

  sim::Task<> asu_merge_instance(unsigned a) {
    asu_ns::Node& node = cluster_.asu(a);
    std::uint32_t next_run_id = a * 0x10000u + 1;
    for (std::uint32_t s = 0; s < alpha_; ++s) {
      // Collect this ASU's local runs of subset s.
      std::vector<std::span<const em::KeyRecord>> runs;
      for (const auto& run : stored_[a]) {
        if (run.subset == s && !run.records.empty()) {
          runs.emplace_back(run.records);
        }
      }
      if (!runs.empty()) {
        // Sequential disk read of the runs we are about to merge.
        std::size_t bytes = 0;
        for (const auto r : runs) bytes += r.size() * mp_.record_bytes;
        co_await node.disk().read(bytes);

        // gamma1 == 1 or a lone run: ship the runs as-is (uncharged
        // one-run merges; hosts take the full fan-in). Otherwise groups
        // of gamma1 runs (0 = all) merge on the ASU.
        const bool as_is = cfg_.gamma1 == 1 || runs.size() == 1;
        const std::size_t g =
            as_is ? 1
            : cfg_.gamma1 == 0
                ? runs.size()
                : std::min<std::size_t>(cfg_.gamma1, runs.size());
        for (std::size_t base = 0; base < runs.size(); base += g) {
          const std::size_t cnt = std::min(g, runs.size() - base);
          em::RunMerge<em::KeyRecord> merge{
              std::span(runs).subspan(base, cnt)};
          if (!as_is) {
            co_await node.compute(
                double(merge.size()) *
                mp_.cost.merge_per_record(unsigned(cnt), /*on_asu=*/true));
          }
          // The merge streams straight into the packets it ships.
          for (std::uint32_t seq = 0; !merge.empty(); ++seq) {
            Packet out;
            out.subset = s;
            out.run_id = next_run_id;
            out.seq = seq;
            out.sorted = true;
            out.records = to_host_merge_->pool().acquire(packet_records_);
            merge.pop(out.records, packet_records_);
            co_await to_host_merge_->emit(node, std::move(out));
          }
          ++next_run_id;
        }
      }
      // Per-subset completion marker so hosts can merge s immediately.
      Packet marker;
      marker.subset = s;
      marker.run_id = kSubsetDoneMarker;
      co_await to_host_merge_->emit(node, std::move(marker));
    }
    to_host_merge_->producer_done();
  }

  sim::Task<> host_merge_instance(unsigned hh) {
    asu_ns::Node& node = cluster_.host(hh);
    auto& in = merge_in_->inbox(hh);
    const std::uint32_t track =
        eng_.tracer().track("host_merge" + std::to_string(hh));
    std::map<std::uint32_t, std::map<std::uint32_t, std::vector<em::KeyRecord>>>
        pending;  // subset -> run_id -> records
    std::vector<unsigned> done_markers(alpha_, 0);

    while (true) {
      auto p = co_await in.recv();
      if (!p) break;
      to_host_merge_->consumed(*p, track);
      if (p->run_id == kSubsetDoneMarker) {
        if (++done_markers[p->subset] == d_) {
          co_await merge_subset(node, p->subset, pending[p->subset]);
          pending.erase(p->subset);
        }
        continue;
      }
      auto& run = pending[p->subset][p->run_id];
      if (run.empty()) {
        run = std::move(p->records);
      } else {
        run.insert(run.end(), p->records.begin(), p->records.end());
        to_host_merge_->pool().release(std::move(p->records));
      }
    }
    to_final_store_->producer_done();
  }

  sim::Task<> merge_subset(
      asu_ns::Node& node, std::uint32_t subset,
      std::map<std::uint32_t, std::vector<em::KeyRecord>>& runs) {
    if (runs.empty()) co_return;

    // Multiple host-side merge passes when the fan-in exceeds gamma2_max
    // (bounded merge buffers): groups of gamma2_max runs pre-merge into
    // intermediate runs, charged at the grouped fan-in.
    std::vector<std::vector<em::KeyRecord>> work;
    work.reserve(runs.size());
    for (auto& [id, vec] : runs) work.push_back(std::move(vec));
    runs.clear();
    while (cfg_.gamma2_max >= 2 && work.size() > cfg_.gamma2_max) {
      std::vector<std::vector<em::KeyRecord>> next;
      for (std::size_t base = 0; base < work.size();
           base += cfg_.gamma2_max) {
        const std::size_t cnt =
            std::min<std::size_t>(cfg_.gamma2_max, work.size() - base);
        if (cnt == 1) {
          next.push_back(std::move(work[base]));
          continue;
        }
        auto merged = em::merge_runs<em::KeyRecord>(
            std::span(work).subspan(base, cnt));
        co_await node.compute(
            double(merged.size()) *
            mp_.cost.merge_per_record(unsigned(cnt), /*on_asu=*/false));
        next.push_back(std::move(merged));
      }
      work = std::move(next);
    }

    // The final merge streams into packets: the subset is never held twice.
    const unsigned gamma2 = unsigned(work.size());
    em::RunMerge<em::KeyRecord> merge(work);
    const double per_rec =
        mp_.cost.merge_per_record(gamma2, /*on_asu=*/false);
    SubsetBounds& bounds = subset_bounds_[subset];
    for (std::uint32_t seq = 0; !merge.empty(); ++seq) {
      Packet out;
      out.subset = subset;
      out.seq = seq;
      out.sorted = true;
      out.records = to_final_store_->pool().acquire(packet_records_);
      merge.pop(out.records, packet_records_);
      // One sweep per packet checks the order across the whole subset.
      std::uint32_t prev = bounds.count == 0 ? 0 : bounds.max_key;
      std::size_t descents = 0;
      for (const auto& r : out.records) {
        descents += r.key < prev;
        prev = r.key;
      }
      if (descents != 0) final_sorted_ok_ = false;
      if (bounds.count == 0) bounds.min_key = out.records.front().key;
      bounds.max_key = prev;
      bounds.count += out.records.size();
      co_await node.compute(double(out.records.size()) * per_rec);
      co_await to_final_store_->emit(node, std::move(out));
    }
  }

  sim::Task<> final_store_instance(unsigned a) {
    asu_ns::Node& node = cluster_.asu(a);
    auto& in = final_in_->inbox(a);
    const std::uint32_t track =
        eng_.tracer().track("final_store" + std::to_string(a));
    while (true) {
      auto p = co_await in.recv();
      if (!p) break;
      to_final_store_->consumed(*p, track);
      co_await node.disk().write(p->wire_bytes(mp_.record_bytes));
      records_final_ += p->records.size();
      to_final_store_->pool().release(std::move(p->records));
    }
    final_end_[a] = eng_.now();
  }

  // ----------------------------- reporting ----------------------------

  void collect_utilization(DsmSortReport& rep) {
    const double horizon = rep.makespan > 0 ? rep.makespan : 1e-9;
    for (unsigned i = 0; i < h_; ++i) {
      const auto& cpu = cluster_.host(i).cpu();
      rep.hosts.push_back({cpu.name(),
                           cpu.utilization().mean_utilization(horizon),
                           cpu.utilization().series(horizon)});
    }
    for (unsigned i = 0; i < d_; ++i) {
      const auto& cpu = cluster_.asu(i).cpu();
      rep.asus.push_back({cpu.name(),
                          cpu.utilization().mean_utilization(horizon),
                          cpu.utilization().series(horizon)});
    }
    rep.util_bin_seconds = mp_.util_bin;
  }

  /// Build the bucket classifier. Sampled splitters take a deterministic
  /// pre-pass over each ASU's key stream (the generators are cheap and
  /// reproducible; a real deployment would sample the stored input): the
  /// sampled keys are generated, the rest only skipped.
  [[nodiscard]] BucketClassifier make_classifier() const {
    if (cfg_.splitters == DsmSortConfig::Splitters::Sampled && alpha_ > 1) {
      std::vector<std::uint32_t> sample;
      for (unsigned a = 0; a < d_; ++a) {
        const std::size_t n_local = local_share(a);
        if (n_local == 0) continue;
        KeyGenerator gen(cfg_.key_dist, n_local, workload_stream(a));
        sample_keys(gen, n_local, n_local / 4096, sample);
      }
      return BucketClassifier::sampled(
          choose_splitters(std::move(sample), alpha_));
    }
    return BucketClassifier::range(alpha_);
  }

  [[nodiscard]] std::size_t derive_packet_records() const {
    if (cfg_.packet_records != 0) return cfg_.packet_records;
    const unsigned buckets = cfg_.distribute_on_asus ? cfg_.alpha : 1;
    const std::size_t by_memory =
        mp_.asu_memory / (std::size_t(buckets) * mp_.record_bytes);
    return std::clamp<std::size_t>(by_memory, 64, 4096);
  }

  struct SubsetBounds {
    std::uint32_t min_key = 0;
    std::uint32_t max_key = 0;
    std::size_t count = 0;
  };

  asu_ns::MachineParams mp_;
  DsmSortConfig cfg_;
  // Ownership mode (see the class comment): standalone owns, embedded
  // borrows. The references are what the rest of the class uses, so the
  // two modes share every line of pipeline code. Declaration order
  // matters: the owned slots must initialize before the references bind.
  std::unique_ptr<sim::Engine> owned_eng_;
  std::unique_ptr<asu_ns::Cluster> owned_cluster_;
  sim::Engine& eng_;
  asu_ns::Cluster& cluster_;
  unsigned d_;
  unsigned h_;
  unsigned alpha_;
  std::size_t packet_records_;
  std::size_t block_records_;
  BucketClassifier classifier_;
  /// Scratch for emit_run's radix sort (at most one run long).
  std::vector<em::KeyRecord> sort_scratch_;

  std::unique_ptr<StageInboxes> sort_in_;
  std::unique_ptr<StageInboxes> store_in_;
  std::unique_ptr<StageOutput> to_sort_;
  std::unique_ptr<StageOutput> to_store_;

  std::unique_ptr<StageInboxes> merge_in_;
  std::unique_ptr<StageInboxes> final_in_;
  std::unique_ptr<StageOutput> to_host_merge_;
  std::unique_ptr<StageOutput> to_final_store_;

  std::vector<std::uint64_t> checksum_in_;
  std::vector<std::size_t> count_in_;
  std::vector<std::vector<StoredRun>> stored_;  // per ASU
  std::vector<std::size_t> records_sorted_per_host_;
  /// Live working set per sort instance (records staged toward
  /// incomplete runs) — the quantity its MigrationDeclaration reports.
  /// Pure bookkeeping on existing control flow: no events, no charges,
  /// digest-neutral in every mode.
  std::vector<std::size_t> sort_staged_records_;
  /// Current rack of each sort instance (hierarchical topologies with
  /// rack_affinity_store only; empty otherwise). Migrations update it so
  /// run storage follows the instance to its new rack.
  std::vector<unsigned> sort_rack_;
  std::vector<double> store_end_;
  double pass1_end_ = 0;

  std::vector<double> final_end_;
  std::vector<SubsetBounds> subset_bounds_;
  std::size_t records_final_ = 0;
  bool final_sorted_ok_ = true;
  std::uint32_t dsm_track_ = 0;
  std::unique_ptr<fault::FaultInjector> injector_;
  LoadManagement lm_;  // standalone only
  /// The manager this program is a client of (standalone: lm_'s own;
  /// embedded: the scheduler's shared one), or nullptr when unmanaged.
  LoadManager* manager_ = nullptr;
  std::size_t client_ = 0;
  std::unique_ptr<obs::Sampler> sampler_;
  obs::LatencyHistogram* sort_hist_ = nullptr;
  obs::LatencyHistogram* store_hist_ = nullptr;
  obs::LatencyHistogram* migration_hist_ = nullptr;
  obs::LatencyHistogram* phase_hist_ = nullptr;
  obs::LatencyHistogram* job_hist_ = nullptr;
  SwitchableRouter* switch_router_ = nullptr;  // owned by to_sort_'s router

  // Embedded (job) mode state — inert in standalone runs: embedded_
  // stays false, the condition is constructed but never notified (a
  // no-event operation), and charge_scale_ is exactly 1.0 at the
  // default weight, so the standalone event stream is unchanged.
  bool embedded_ = false;
  double charge_scale_ = 1.0;  // 1 / cfg.fair_share_weight
  double t0_ = 0;
  std::size_t total_instances_ = 0;
  std::size_t finished_instances_ = 0;
  sim::Condition job_done_{eng_};
  DsmSortReport rep_;
  bool finished_flag_ = false;
};

DsmSortReport run_dsm_sort(const asu::MachineParams& machine,
                           const DsmSortConfig& config) {
  DsmSortSim sim(machine, config);
  return sim.run();
}

DsmSortJob::DsmSortJob(sim::Engine& eng, asu::Cluster& cluster,
                       const DsmSortConfig& cfg)
    : sim_(std::make_unique<DsmSortSim>(eng, cluster, cfg)) {
  sim_->build_embedded();
}

DsmSortJob::~DsmSortJob() = default;

sim::Task<> DsmSortJob::body() { return sim_->job_body(); }

bool DsmSortJob::finished() const noexcept { return sim_->job_finished(); }

const DsmSortReport& DsmSortJob::report() const {
  return sim_->job_report();
}

std::size_t DsmSortJob::attach_manager(LoadManager& manager,
                                       const std::string& label) {
  return sim_->attach_manager(manager, label);
}

obs::Json dsm_report_to_json(const DsmSortReport& rep) {
  obs::Json j = obs::Json::object();
  j["pass1_seconds"] = rep.pass1_seconds;
  j["pass2_seconds"] = rep.pass2_seconds;
  j["makespan"] = rep.makespan;
  j["records_in"] = rep.records_in;
  j["records_stored"] = rep.records_stored;
  j["records_final"] = rep.records_final;
  j["runs_stored"] = rep.runs_stored;
  j["ok"] = rep.ok();
  j["sim_events"] = rep.sim_events;
  j["digest"] = obs::digest_to_string(rep.digest);
  j["records_sorted_per_host"] =
      obs::Json::array_of(rep.records_sorted_per_host);
  j["peak_host_imbalance"] = rep.peak_host_imbalance;
  j["mean_host_imbalance"] = rep.mean_host_imbalance;
  j["lm_migrations"] = rep.lm_migrations;
  j["lm_router_switches"] = rep.lm_router_switches;
  lm_journal_to_json(j, rep.lm_events, rep.lm_managed, rep.lm_decisions);
  obs::Json util = obs::Json::object();
  const auto add_nodes = [&](const std::vector<NodeUtilization>& nodes) {
    for (const auto& n : nodes) {
      obs::Json e = obs::Json::object();
      e["mean"] = n.mean;
      e["bin_seconds"] = rep.util_bin_seconds;
      e["series"] = obs::Json::array_of(n.series);
      util[n.node] = std::move(e);
    }
  };
  add_nodes(rep.hosts);
  add_nodes(rep.asus);
  j["utilization"] = std::move(util);
  // Telemetry blocks are config-driven (present iff the run opted in),
  // so serial and parallel sweeps of the same cells emit bit-identical
  // artifacts — presence never depends on runtime state.
  if (!rep.histograms.is_null()) j["histograms"] = rep.histograms;
  if (!rep.time_series.is_null()) j["time_series"] = rep.time_series;
  j["metrics"] = rep.metrics;
  return j;
}

}  // namespace lmas::core
