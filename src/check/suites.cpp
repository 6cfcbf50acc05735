#include "check/suites.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "asu/network.hpp"
#include "check/generators.hpp"
#include "core/adaptive.hpp"
#include "core/dsm_sort.hpp"
#include "core/program.hpp"
#include "extmem/sort.hpp"
#include "fault/fault.hpp"
#include "extmem/stream.hpp"
#include "obs/latency.hpp"
#include "sim/sim.hpp"
#include "tenant/tenant.hpp"

namespace lmas::check {

namespace {

std::string fmt(const char* f, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

std::string cfg_str(const asu::MachineParams& mp,
                    const core::DsmSortConfig& cfg) {
  return fmt("H=%u D=%u c=%.0f n=%zu alpha=%u K=2^%u dist=%s router=%s "
             "splitters=%s asus=%d merge=%d gamma1=%u gamma2_max=%u "
             "seed=0x%llx",
             mp.num_hosts, mp.num_asus, mp.c, cfg.total_records, cfg.alpha,
             cfg.log2_alpha_beta, core::key_dist_name(cfg.key_dist),
             core::router_kind_name(cfg.sort_router),
             cfg.splitters == core::DsmSortConfig::Splitters::Range
                 ? "range"
                 : "sampled",
             int(cfg.distribute_on_asus), int(cfg.run_merge_pass),
             cfg.gamma1, cfg.gamma2_max,
             static_cast<unsigned long long>(cfg.seed));
}

std::uint64_t metrics_fingerprint(const core::DsmSortReport& rep) {
  return sim::fnv1a64(rep.metrics.dump());
}

// ---- permutation ---------------------------------------------------

std::optional<std::string> prop_permutation(sim::Rng& rng, unsigned size) {
  const std::size_t n = 1 + rng.below(std::size_t(256) * size);
  const auto keys = gen_keys(rng, n);

  em::Stream<em::KeyRecord> in(em::make_memory_bte());
  for (std::size_t i = 0; i < n; ++i) {
    in.push_back({keys[i], std::uint32_t(i)});
  }
  em::SortOptions opt;
  // Tiny run-formation memory so even small inputs exercise multi-run
  // merging; fan-in 2..5 forces multiple merge passes.
  opt.memory_bytes = std::max<std::size_t>(1, 8 * (1 + rng.below(8)));
  opt.max_fan_in = 2 + rng.below(4);
  em::Stream<em::KeyRecord> out(em::make_memory_bte());
  em::sort_stream(in, out, opt);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> got;
  got.reserve(n);
  out.rewind();
  std::uint32_t prev = 0;
  while (auto r = out.read()) {
    if (!got.empty() && r->key < prev) {
      return fmt("output not sorted at position %zu: %u after %u",
                 got.size(), r->key, prev);
    }
    prev = r->key;
    got.emplace_back(r->key, r->id);
  }
  if (got.size() != n) {
    return fmt("record count changed: %zu in, %zu out", n, got.size());
  }
  // ids are unique, so multiset equality reduces to set equality of
  // (key, id) pairs.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> want;
  want.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    want.emplace_back(keys[i], std::uint32_t(i));
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  if (want != got) {
    return fmt("output is not a permutation of the input (n=%zu)", n);
  }
  return std::nullopt;
}

// ---- packet plans --------------------------------------------------

sim::Task<> emit_plan(core::StageInstance io,
                      std::vector<core::Packet> pkts) {
  for (auto& p : pkts) {
    co_await io.output->emit(*io.node, std::move(p));
  }
}

sim::Task<> collect_plan(core::StageInstance io,
                         std::vector<core::Packet>& got) {
  while (auto p = co_await io.inbox->recv()) {
    // Pump-pause convention: accepted packets wait out a crash window.
    while (!io.node->running()) co_await io.node->health_wait();
    got.push_back(std::move(*p));
  }
}

struct PlanRun {
  std::size_t packets = 0;
  std::size_t records = 0;
  std::vector<std::vector<core::Packet>> got;  // per target
  std::uint64_t digest = 0;
  std::size_t unfinished = 0;
  double makespan = 0;
};

/// The machine of one PacketPlan run: a node per plan producer on one
/// tier and a consumer node per target on the other — the ASUs (the
/// crashable tier) when `to_asus` — plus `spare_hosts` idle hosts.
struct PlanRig {
  PlanRig(const PacketPlan& plan, bool to_asus, unsigned spare_hosts = 0)
      : plan(&plan),
        to_asus(to_asus),
        cluster(eng, shape(plan, to_asus, spare_hosts)) {}

  static asu::MachineParams shape(const PacketPlan& plan, bool to_asus,
                                  unsigned spare_hosts = 0) {
    asu::MachineParams mp;
    mp.num_hosts = (to_asus ? plan.producers : plan.targets) + spare_hosts;
    mp.num_asus = to_asus ? plan.targets : plan.producers;
    return mp;
  }

  /// Drive the plan as a two-stage Program: each producer emits its
  /// packets in order through `input` (window 4, inboxes of 4), each
  /// consumer collects what reaches it. `after` runs once the instances
  /// are spawned, with the consumers' StageOutput.
  PlanRun run(core::StageSpec input,
              const std::function<void(core::StageOutput&)>& after = {}) {
    std::vector<asu::Node*> from, to;
    for (unsigned p = 0; p < plan->producers; ++p) {
      from.push_back(to_asus ? &cluster.host(p) : &cluster.asu(p));
    }
    for (unsigned t = 0; t < plan->targets; ++t) {
      to.push_back(to_asus ? &cluster.asu(t) : &cluster.host(t));
    }
    PlanRun res;
    res.got.resize(plan->targets);
    input.window_per_producer = 4;
    std::vector<core::ProgramStageSpec> stages;
    stages.push_back({.name = "producer",
                      .placement = std::move(from),
                      .body = [this](core::StageInstance io) {
                        return emit_plan(io, plan->per_producer[io.index]);
                      }});
    stages.push_back({.name = "consumer",
                      .placement = std::move(to),
                      .body = [&res](core::StageInstance io) {
                        return collect_plan(io, res.got[io.index]);
                      },
                      .inbox_packets = 4,
                      .input = std::move(input)});
    core::Program prog(cluster, std::move(stages));
    prog.start();
    if (after) after(prog.input(1));
    eng.run();
    for (const auto& g : res.got) {
      res.packets += g.size();
      for (const auto& p : g) res.records += p.records.size();
    }
    res.digest = eng.digest();
    res.unfinished = eng.unfinished_tasks();
    res.makespan = eng.now();
    return res;
  }

  const PacketPlan* plan;
  bool to_asus;
  sim::Engine eng;
  asu::Cluster cluster;
};

/// The set contract as a plan run can break it: a packet whose records
/// left their emission order (plan packets number them 0, 1, ...) or,
/// when `ordered`, a per-(producer, subset) stream that reached one
/// instance out of seq order. Seqs seen at an instance must be a strictly
/// increasing subsequence of the producer's emission order.
std::optional<std::string> contract_violation(const PlanRun& run,
                                              bool ordered) {
  for (unsigned t = 0; t < run.got.size(); ++t) {
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> last;
    for (const auto& p : run.got[t]) {
      if (ordered) {
        auto [it, fresh] = last.try_emplace({p.run_id, p.subset}, p.seq);
        if (!fresh && p.seq <= it->second) {
          return fmt("instance %u saw producer %u subset %u seq %u after "
                     "seq %u",
                     t, p.run_id, p.subset, p.seq, it->second);
        }
        it->second = p.seq;
      }
      for (std::size_t r = 0; r < p.records.size(); ++r) {
        if (p.records[r].id != std::uint32_t(r)) {
          return fmt("packet records reordered at instance %u", t);
        }
      }
    }
  }
  return std::nullopt;
}

std::size_t packets_in(const PacketPlan& plan) {
  std::size_t n = 0;
  for (const auto& pp : plan.per_producer) n += pp.size();
  return n;
}

// ---- packet order --------------------------------------------------

std::optional<std::string> prop_packet_order(sim::Rng& rng, unsigned size) {
  const PacketPlan plan = gen_packet_plan(rng, size);
  const core::RouterKind kind = gen_router_kind(rng);
  const std::size_t packets_sent = packets_in(plan);

  PlanRig rig(plan, /*to_asus=*/false);
  const PlanRun run = rig.run(
      {.router = core::make_router(
           {.kind = kind, .rng = rng.split(), .total_subsets = plan.subsets}),
       .name = "prop.stage"});

  if (auto v = contract_violation(run, /*ordered=*/true)) {
    return *v + fmt(" (router=%s)", core::router_kind_name(kind));
  }
  if (run.packets != packets_sent || run.records != plan.total_records) {
    return fmt("lost traffic: %zu/%zu packets, %zu/%zu records "
               "(router=%s)",
               run.packets, packets_sent, run.records, plan.total_records,
               core::router_kind_name(kind));
  }
  if (run.unfinished != 0) {
    return fmt("%zu tasks still blocked after run", run.unfinished);
  }
  return std::nullopt;
}

// ---- conservation --------------------------------------------------

std::optional<std::string> prop_conservation(sim::Rng& rng, unsigned size) {
  const asu::MachineParams mp = gen_machine(rng, size);
  const core::DsmSortConfig cfg = gen_dsm_config(rng, size);
  const core::DsmSortReport rep = run_dsm_sort(mp, cfg);

  if (rep.records_in != cfg.total_records) {
    return fmt("records_in %zu != n %zu [%s]", rep.records_in,
               cfg.total_records, cfg_str(mp, cfg).c_str());
  }
  if (rep.records_stored != rep.records_in) {
    return fmt("pass 1 stored %zu of %zu records [%s]", rep.records_stored,
               rep.records_in, cfg_str(mp, cfg).c_str());
  }
  if (!rep.checksum_ok) {
    return fmt("key checksum not conserved [%s]", cfg_str(mp, cfg).c_str());
  }
  if (!rep.subsets_ok) {
    return fmt("records crossed subset boundaries [%s]",
               cfg_str(mp, cfg).c_str());
  }
  if (!rep.runs_sorted_ok) {
    return fmt("stored runs not sorted [%s]", cfg_str(mp, cfg).c_str());
  }
  if (cfg.run_merge_pass) {
    if (rep.records_final != rep.records_in) {
      return fmt("pass 2 emitted %zu of %zu records [%s]",
                 rep.records_final, rep.records_in,
                 cfg_str(mp, cfg).c_str());
    }
    if (!rep.final_sorted_ok) {
      return fmt("pass 2 output not globally sorted [%s]",
                 cfg_str(mp, cfg).c_str());
    }
  }
  return std::nullopt;
}

// ---- SR balance ----------------------------------------------------

std::optional<std::string> prop_sr_balance(sim::Rng& rng, unsigned size) {
  const std::size_t k = 1 + rng.below(std::max(2u, size));
  const unsigned subsets = 1 + unsigned(rng.below(8));
  core::SimpleRandomizationRouter router(rng.split());
  const std::vector<core::RouteTarget> targets(k);

  for (unsigned s = 0; s < subsets; ++s) {
    const std::size_t n_s = 1 + rng.below(16 * std::size_t(size));
    std::vector<std::size_t> count(k, 0);
    core::Packet p;
    p.subset = s;
    for (std::size_t i = 0; i < n_s; ++i) {
      const std::size_t idx = router.pick(p, targets);
      if (idx >= k) return fmt("pick returned %zu for k=%zu", idx, k);
      ++count[idx];
    }
    // Randomized cycling: every full cycle touches each target once, so
    // after n_s picks each target holds floor or ceil of n_s / k.
    const std::size_t lo = n_s / k;
    const std::size_t hi = lo + (n_s % k == 0 ? 0 : 1);
    for (std::size_t t = 0; t < k; ++t) {
      if (count[t] < lo || count[t] > hi) {
        return fmt("subset %u target %zu got %zu packets; bound [%zu, %zu] "
                   "with n_s=%zu k=%zu",
                   s, t, count[t], lo, hi, n_s, k);
      }
    }
  }
  return std::nullopt;
}

// ---- predictor -----------------------------------------------------

/// Declared tolerance: the analytic model prices aggregate station work
/// and takes the pipeline max; it ignores startup ramp, packet
/// quantization and interleaving, so at property-test scale (n = 2^13,
/// where fixed overheads are proportionally large) the emulated time can
/// sit up to ~2.5x above the bound. 3.0 leaves margin without letting a
/// mispriced cost term through.
constexpr double kPredictorTolerance = 3.0;

std::optional<std::string> prop_predictor(sim::Rng& rng, unsigned size) {
  asu::MachineParams mp;
  mp.num_hosts = 1 + unsigned(rng.below(2));
  mp.num_asus = 2 + unsigned(rng.below(std::max(2u, size)));
  mp.c = 2.0 * double(1 + rng.below(8));

  core::DsmSortConfig cfg;
  // Large enough that the modeled per-record terms dominate the fixed
  // startup/latency overheads the model leaves unpriced.
  cfg.total_records = std::size_t(1) << 15;
  cfg.log2_alpha_beta = 12;
  // The model's regime: enough subsets that static partitioning spreads
  // them evenly over the hosts (alpha >= 2H, divisible by H) — with
  // fewer, one host carries everything while the model divides by H —
  // and beta >= 64, because shorter runs (alpha -> K) are dominated by
  // per-packet overheads the model deliberately leaves unpriced. The
  // paper's configurations never operate outside either bound.
  cfg.alpha = 1u << (2 + rng.below(5));
  cfg.distribute_on_asus = true;
  cfg.key_dist = core::KeyDist::Uniform;
  cfg.splitters = core::DsmSortConfig::Splitters::Range;
  cfg.sort_router = core::RouterKind::Static;
  cfg.seed = rng.next();

  const double predicted = core::predict_pass1(mp, cfg).seconds;
  const core::DsmSortReport rep = run_dsm_sort(mp, cfg);
  if (!rep.ok()) {
    return fmt("run failed validation [%s]", cfg_str(mp, cfg).c_str());
  }
  const double actual = rep.pass1_seconds;
  if (predicted <= 0 || actual <= 0) {
    return fmt("non-positive time: predicted=%g actual=%g [%s]", predicted,
               actual, cfg_str(mp, cfg).c_str());
  }
  const double ratio = actual / predicted;
  if (ratio > kPredictorTolerance || ratio < 1.0 / kPredictorTolerance) {
    return fmt("predict_pass1=%.4fs vs emulated=%.4fs (ratio %.2f outside "
               "[%.2f, %.2f]) [%s]",
               predicted, actual, ratio, 1.0 / kPredictorTolerance,
               kPredictorTolerance, cfg_str(mp, cfg).c_str());
  }
  return std::nullopt;
}

// ---- digest --------------------------------------------------------

std::optional<std::string> prop_digest(sim::Rng& rng, unsigned size) {
  const asu::MachineParams mp = gen_machine(rng, size);
  core::DsmSortConfig cfg = gen_dsm_config(rng, size);
  cfg.total_records = std::size_t(1) << 10;  // digest cares about replay,
  cfg.log2_alpha_beta = 8;                   // not scale — keep runs tiny
  cfg.alpha = std::min(cfg.alpha, 1u << 8);

  const core::DsmSortReport a = run_dsm_sort(mp, cfg);
  const core::DsmSortReport b = run_dsm_sort(mp, cfg);
  if (a.digest != b.digest) {
    return fmt("same config, different digests: 0x%016llx vs 0x%016llx "
               "[%s]",
               static_cast<unsigned long long>(a.digest),
               static_cast<unsigned long long>(b.digest),
               cfg_str(mp, cfg).c_str());
  }
  if (metrics_fingerprint(a) != metrics_fingerprint(b)) {
    return fmt("same config, different metric snapshots [%s]",
               cfg_str(mp, cfg).c_str());
  }
  if (a.sim_events != b.sim_events || a.makespan != b.makespan) {
    return fmt("same config, different event counts or makespans [%s]",
               cfg_str(mp, cfg).c_str());
  }
  // A different seed must move the digest — but only in a regime where
  // the seed feeds the timing. Deterministic keys (sorted/reverse) or
  // quantile splitters make bucket sizes seed-independent, and the
  // simulator prices work by record counts, so such configs genuinely
  // replay the same execution under any seed (the harness caught both).
  // Pin the sensitivity check to ASU-side distribute with uniform keys,
  // range splitters and alpha >= 8: there bucket counts are multinomial
  // in the seed, so packet boundaries — and the digest — must move.
  // (The passive baseline ships fixed-size raw packets, so it too is
  // seed-insensitive by construction.)
  core::DsmSortConfig sens = cfg;
  sens.key_dist = core::KeyDist::Uniform;
  sens.splitters = core::DsmSortConfig::Splitters::Range;
  sens.distribute_on_asus = true;
  sens.alpha = std::max(sens.alpha, 8u);
  core::DsmSortConfig other = sens;
  other.seed = sens.seed + 1;
  const core::DsmSortReport s1 = run_dsm_sort(mp, sens);
  const core::DsmSortReport s2 = run_dsm_sort(mp, other);
  if (s1.digest == s2.digest) {
    return fmt("different seeds, same digest 0x%016llx [%s]",
               static_cast<unsigned long long>(s1.digest),
               cfg_str(mp, sens).c_str());
  }
  return std::nullopt;
}

// ---- fault conservation --------------------------------------------

std::optional<std::string> prop_fault_conservation(sim::Rng& rng,
                                                   unsigned size) {
  const asu::MachineParams mp = gen_machine(rng, size);
  core::DsmSortConfig cfg = gen_dsm_config(rng, size);
  // Fault plans perturb pass 1; keep runs single-pass so the measured
  // horizon brackets the whole faulted execution.
  cfg.run_merge_pass = false;

  const core::DsmSortReport base = run_dsm_sort(mp, cfg);
  if (!base.ok()) {
    return fmt("fault-free baseline failed validation [%s]",
               cfg_str(mp, cfg).c_str());
  }
  cfg.faults = gen_fault_plan(rng, mp, base.pass1_seconds, size);

  const core::DsmSortReport rep = run_dsm_sort(mp, cfg);
  if (rep.records_stored != rep.records_in) {
    return fmt("faults lost records: stored %zu of %zu (%zu fault events) "
               "[%s]",
               rep.records_stored, rep.records_in, cfg.faults.size(),
               cfg_str(mp, cfg).c_str());
  }
  if (!rep.checksum_ok) {
    return fmt("key checksum not conserved under faults [%s]",
               cfg_str(mp, cfg).c_str());
  }
  if (!rep.subsets_ok) {
    return fmt("records crossed subset boundaries under faults [%s]",
               cfg_str(mp, cfg).c_str());
  }
  if (!rep.runs_sorted_ok) {
    return fmt("stored runs not sorted under faults (retry re-ordering "
               "leaked through seq-keyed store) [%s]",
               cfg_str(mp, cfg).c_str());
  }
  if (rep.digest == base.digest) {
    return fmt("fault plan (%zu events) left the digest unchanged [%s]",
               cfg.faults.size(), cfg_str(mp, cfg).c_str());
  }
  // Same seed + same plan replay bit-identically.
  const core::DsmSortReport again = run_dsm_sort(mp, cfg);
  if (again.digest != rep.digest) {
    return fmt("same fault plan, different digests: 0x%016llx vs 0x%016llx "
               "[%s]",
               static_cast<unsigned long long>(rep.digest),
               static_cast<unsigned long long>(again.digest),
               cfg_str(mp, cfg).c_str());
  }
  return std::nullopt;
}

// ---- fault routing -------------------------------------------------

/// Drive a PacketPlan with consumers on ASUs (the crashable tier) under
/// `faults`; empty plan = fault-free baseline.
PlanRun run_routed_plan(const PacketPlan& plan, core::RouterKind kind,
                        sim::Rng router_rng, std::uint64_t fault_seed,
                        const fault::FaultPlan& faults) {
  PlanRig rig(plan, /*to_asus=*/true);
  std::unique_ptr<fault::FaultInjector> inj;
  if (!faults.empty()) {
    inj = std::make_unique<fault::FaultInjector>(
        rig.cluster, faults,
        sim::Rng(fault_seed).stream(sim::stream_id("faults")));
    rig.eng.spawn(inj->run(), "fault-injector");
  }
  return rig.run({.router = core::make_router({.kind = kind,
                                               .rng = router_rng,
                                               .total_subsets = plan.subsets}),
                  .name = "prop.fault_stage",
                  .retry_timeout = faults.retry_timeout,
                  .max_retries = faults.max_retries});
}

std::optional<std::string> prop_fault_routing(sim::Rng& rng, unsigned size) {
  const PacketPlan plan = gen_packet_plan(rng, size);
  const core::RouterKind kind = gen_router_kind(rng);
  const sim::Rng router_rng = rng.split();
  const std::uint64_t fault_seed = rng.next();
  const std::size_t packets_sent = packets_in(plan);
  const asu::MachineParams shape = PlanRig::shape(plan, /*to_asus=*/true);

  const PlanRun base =
      run_routed_plan(plan, kind, router_rng, fault_seed, {});
  if (base.unfinished != 0) {
    return fmt("baseline left %zu tasks blocked", base.unfinished);
  }
  const fault::FaultPlan faults =
      gen_fault_plan(rng, shape, base.makespan, size);

  const PlanRun faulted =
      run_routed_plan(plan, kind, router_rng, fault_seed, faults);
  if (faulted.unfinished != 0) {
    return fmt("%zu tasks still blocked under faults (%zu events, "
               "router=%s)",
               faulted.unfinished, faults.size(),
               core::router_kind_name(kind));
  }
  if (faulted.packets != packets_sent ||
      faulted.records != plan.total_records) {
    return fmt("lost traffic under faults: %zu/%zu packets, %zu/%zu "
               "records (%zu events, router=%s)",
               faulted.packets, packets_sent, faulted.records,
               plan.total_records, faults.size(),
               core::router_kind_name(kind));
  }
  // Records stay together and in order within every delivered packet.
  if (auto v = contract_violation(faulted, /*ordered=*/false)) {
    return *v + " under faults";
  }
  // Router balance: when the plan never shrinks the target set (no
  // crashes), SR's floor/ceil bound must survive slowdowns and link
  // delays untouched — degraded nodes stay routing targets.
  const bool has_crash = std::any_of(
      faults.events.begin(), faults.events.end(), [](const auto& e) {
        return e.kind == fault::FaultSpec::Kind::Crash;
      });
  if (!has_crash && kind == core::RouterKind::SimpleRandomization) {
    std::map<std::uint32_t, std::size_t> subset_totals;
    std::map<std::uint32_t, std::vector<std::size_t>> subset_counts;
    for (unsigned t = 0; t < plan.targets; ++t) {
      for (const auto& p : faulted.got[t]) {
        ++subset_totals[p.subset];
        auto& c = subset_counts[p.subset];
        c.resize(plan.targets, 0);
        ++c[t];
      }
    }
    for (const auto& [s, total] : subset_totals) {
      const std::size_t lo = total / plan.targets;
      const std::size_t hi = lo + (total % plan.targets == 0 ? 0 : 1);
      for (std::size_t t = 0; t < subset_counts[s].size(); ++t) {
        if (subset_counts[s][t] < lo || subset_counts[s][t] > hi) {
          return fmt("SR balance broken under crash-free faults: subset %u "
                     "target %zu got %zu, bound [%zu, %zu]",
                     s, t, subset_counts[s][t], lo, hi);
        }
      }
    }
  }
  // Same plan, same seeds: the faulted run replays bit-identically.
  const PlanRun again =
      run_routed_plan(plan, kind, router_rng, fault_seed, faults);
  if (again.digest != faulted.digest) {
    return fmt("same fault plan, different digests (router=%s)",
               core::router_kind_name(kind));
  }
  return std::nullopt;
}

// ---- load-manager router hot-swap ----------------------------------

sim::Task<> switch_controller(sim::Engine& eng, core::SwitchableRouter* sw,
                              std::vector<double> delays) {
  bool promote = true;
  for (double d : delays) {
    co_await eng.sleep(d);
    if (promote) {
      sw->promote();
    } else {
      sw->demote();
    }
    promote = !promote;
  }
}

PlanRun run_switched_plan(const PacketPlan& plan, core::RouterKind baseline,
                          core::RouterKind dynamic, sim::Rng base_rng,
                          sim::Rng dyn_rng,
                          const std::vector<double>& toggles) {
  PlanRig rig(plan, /*to_asus=*/false);
  // The production composition: metrics wrapper outside, hot-swap
  // decorator inside, concrete policies innermost.
  auto sw = std::make_unique<core::SwitchableRouter>(
      core::make_router(
          {.kind = baseline, .rng = base_rng, .total_subsets = plan.subsets}),
      core::make_router(
          {.kind = dynamic, .rng = dyn_rng, .total_subsets = plan.subsets}));
  core::SwitchableRouter* sw_raw = sw.get();
  return rig.run({.router = std::make_unique<core::InstrumentedRouter>(
                      std::move(sw), rig.eng, "lmswitch"),
                  .name = "prop.lmswitch"},
                 [&](core::StageOutput&) {
                   rig.eng.spawn(switch_controller(rig.eng, sw_raw, toggles));
                 });
}

std::optional<std::string> prop_lm_switch(sim::Rng& rng, unsigned size) {
  const PacketPlan plan = gen_packet_plan(rng, size);
  const core::RouterKind baseline = gen_router_kind(rng);
  const core::RouterKind dynamic = gen_router_kind(rng);
  const sim::Rng base_rng = rng.split();
  const sim::Rng dyn_rng = rng.split();
  // Promote/demote at random instants spanning microseconds to
  // milliseconds, so swaps land before, inside, and after the burst of
  // traffic.
  std::vector<double> toggles(1 + rng.below(8));
  for (double& d : toggles) d = double(1 + rng.below(1000)) * 1e-5;

  const std::size_t packets_sent = packets_in(plan);

  const PlanRun run =
      run_switched_plan(plan, baseline, dynamic, base_rng, dyn_rng, toggles);
  if (run.unfinished != 0) {
    return fmt("%zu tasks still blocked after hot-swapped run",
               run.unfinished);
  }
  // Hot-swapping the policy mid-run must not weaken the set contract at
  // all: every per-(producer, subset) stream still arrives seq-ordered at
  // every instance, packets stay intact, nothing is lost.
  if (auto v = contract_violation(run, /*ordered=*/true)) {
    return *v + fmt(" across a router swap (%s -> %s)",
                    core::router_kind_name(baseline),
                    core::router_kind_name(dynamic));
  }
  if (run.packets != packets_sent || run.records != plan.total_records) {
    return fmt("lost traffic across router swaps: %zu/%zu packets, "
               "%zu/%zu records (%zu toggles)",
               run.packets, packets_sent, run.records, plan.total_records,
               toggles.size());
  }
  // Same plan + same toggle schedule replays bit-identically.
  const PlanRun again =
      run_switched_plan(plan, baseline, dynamic, base_rng, dyn_rng, toggles);
  if (again.digest != run.digest) {
    return fmt("same toggle schedule, different digests (%s -> %s)",
               core::router_kind_name(baseline),
               core::router_kind_name(dynamic));
  }
  return std::nullopt;
}

// ---- load-manager migration ----------------------------------------

struct MigrationMove {
  double delay = 0;       // sleep before this move
  std::size_t instance = 0;
  std::size_t node = 0;   // index into the host list
};

sim::Task<> migration_controller(sim::Engine& eng, core::StageOutput& out,
                                 std::vector<asu::Node*> hosts,
                                 std::vector<MigrationMove> moves) {
  for (const auto& m : moves) {
    co_await eng.sleep(m.delay);
    out.set_target_node(m.instance, *hosts[m.node]);
  }
}

PlanRun run_migrated_plan(const PacketPlan& plan, core::RouterKind kind,
                          sim::Rng router_rng,
                          const std::vector<MigrationMove>& moves) {
  // One spare host beyond the consumers: a legal migration target that
  // never hosted an instance, so re-pins also exercise "fresh" nodes.
  PlanRig rig(plan, /*to_asus=*/false, /*spare_hosts=*/1);
  std::vector<asu::Node*> hosts;
  for (unsigned h = 0; h <= plan.targets; ++h) {
    hosts.push_back(&rig.cluster.host(h));
  }
  return rig.run({.router = core::make_router({.kind = kind,
                                               .rng = router_rng,
                                               .total_subsets = plan.subsets}),
                  .name = "prop.lmmigrate"},
                 [&](core::StageOutput& out) {
                   rig.eng.spawn(
                       migration_controller(rig.eng, out, hosts, moves));
                 });
}

std::optional<std::string> prop_lm_migration(sim::Rng& rng, unsigned size) {
  const PacketPlan plan = gen_packet_plan(rng, size);
  const core::RouterKind kind = gen_router_kind(rng);
  const sim::Rng router_rng = rng.split();

  std::vector<MigrationMove> moves(1 + rng.below(8));
  for (auto& m : moves) {
    m.delay = double(1 + rng.below(1000)) * 1e-5;
    m.instance = rng.below(plan.targets);
    m.node = rng.below(plan.targets + 1);  // incl. the spare host
  }

  // The emitted multiset, keyed (producer, subset, seq) — unique per
  // packet by construction.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> want;
  for (const auto& pp : plan.per_producer) {
    for (const auto& p : pp) want.emplace_back(p.run_id, p.subset, p.seq);
  }
  std::sort(want.begin(), want.end());

  const PlanRun run = run_migrated_plan(plan, kind, router_rng, moves);
  if (run.unfinished != 0) {
    return fmt("%zu tasks still blocked after migrated run",
               run.unfinished);
  }
  // Migration deliberately weakens the ordering half of the set contract:
  // re-pinning an endpoint changes the delivery path, so a later packet
  // can overtake an earlier one still in flight to the old location. What
  // must survive is conservation — the delivered multiset equals the
  // emitted multiset — and intra-packet record integrity.
  if (auto v = contract_violation(run, /*ordered=*/false)) {
    return *v + fmt(" under migration (router=%s)",
                    core::router_kind_name(kind));
  }
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> got;
  for (const auto& g : run.got) {
    for (const auto& p : g) got.emplace_back(p.run_id, p.subset, p.seq);
  }
  std::sort(got.begin(), got.end());
  if (got != want) {
    return fmt("delivered packet multiset differs from emitted under "
               "migration: %zu/%zu packets (%zu moves, router=%s)",
               got.size(), want.size(), moves.size(),
               core::router_kind_name(kind));
  }
  if (run.records != plan.total_records) {
    return fmt("lost records under migration: %zu/%zu (router=%s)",
               run.records, plan.total_records,
               core::router_kind_name(kind));
  }
  // Same plan + same move schedule replays bit-identically.
  const PlanRun again = run_migrated_plan(plan, kind, router_rng, moves);
  if (again.digest != run.digest) {
    return fmt("same migration schedule, different digests (router=%s)",
               core::router_kind_name(kind));
  }
  return std::nullopt;
}

// ---- histogram -----------------------------------------------------

// The telemetry pipeline's accuracy contract: a log-bucketed
// LatencyHistogram's streamed nearest-rank quantile lands in the same
// bucket as the exact nearest-rank sample, so its midpoint answer is
// within the documented per-bucket relative error of the truth; and
// merging per-shard histograms is order- and grouping-independent in
// everything quantiles depend on (bucket counts, count, min, max).
std::optional<std::string> prop_histogram(sim::Rng& rng, unsigned size) {
  const std::size_t n = 1 + rng.below(std::size_t(512) * size);

  // Log-uniform samples spanning ~28 octaves, kept strictly inside the
  // bucketed range so neither the underflow nor overflow bucket (whose
  // answers are exact-min / exact-max, not midpoints) absorbs them.
  // A quarter of the draws repeat the previous value to exercise ties.
  std::vector<double> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!samples.empty() && rng.below(4) == 0) {
      samples.push_back(samples.back());
    } else {
      samples.push_back(std::exp2(rng.uniform(-20.0, 8.0)));
    }
  }

  obs::LatencyHistogram pooled;
  for (const double v : samples) pooled.observe(v);
  if (pooled.count() != n) {
    return fmt("pooled count %llu != n %zu",
               static_cast<unsigned long long>(pooled.count()), n);
  }

  // Streamed vs exact nearest-rank quantiles, within the documented
  // bound: both land in the same bucket, and the midpoint is at most
  // half a bucket width (<= kRelativeError, relative) from the sample.
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {0.5, 0.9, 0.99, 1.0}) {
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(q * double(n))));
    const double exact = sorted[std::min(rank, n) - 1];
    const double streamed = pooled.quantile(q);
    const double tol =
        exact * obs::LatencyHistogram::kRelativeError * (1 + 1e-9) + 1e-12;
    if (std::abs(streamed - exact) > tol) {
      return fmt("q=%.2f streamed %.9g vs exact %.9g exceeds bound %.3g "
                 "(n=%zu)",
                 q, streamed, exact, tol, n);
    }
  }

  // Shard the samples round-robin, then merge the shards in two
  // different permutations and one nested grouping. Quantiles depend
  // only on bucket counts + min/max, all of which merge exactly, so
  // every merge order must agree with the pooled histogram bit-for-bit
  // on those — and therefore on every quantile.
  const std::size_t shards = 2 + rng.below(5);
  std::vector<obs::LatencyHistogram> parts(shards);
  for (std::size_t i = 0; i < n; ++i) parts[i % shards].observe(samples[i]);

  obs::LatencyHistogram fwd;
  for (const auto& p : parts) fwd.merge(p);
  obs::LatencyHistogram rev;
  for (std::size_t i = shards; i-- > 0;) rev.merge(parts[i]);
  obs::LatencyHistogram nested;  // (last..k) merged first, then (0..k)
  const std::size_t cut = rng.below(shards);
  obs::LatencyHistogram tail;
  for (std::size_t i = cut; i < shards; ++i) tail.merge(parts[i]);
  for (std::size_t i = 0; i < cut; ++i) nested.merge(parts[i]);
  nested.merge(tail);

  for (const obs::LatencyHistogram* m : {&fwd, &rev, &nested}) {
    if (m->count() != pooled.count() ||
        m->bucket_counts() != pooled.bucket_counts() ||
        m->min() != pooled.min() || m->max() != pooled.max()) {
      return fmt("merge order changed counts/min/max (shards=%zu n=%zu)",
                 shards, n);
    }
    for (const double q : {0.5, 0.9, 0.99}) {
      if (m->quantile(q) != pooled.quantile(q)) {
        return fmt("merge order changed q=%.2f (shards=%zu n=%zu)", q,
                   shards, n);
      }
    }
  }
  return std::nullopt;
}

// ---- tenant-conservation / tenant-arrival ----------------------------

/// Random multi-tenant serving config: 1-3 tenants with random fair-share
/// and arrival weights, mixed job shapes, a random admission cap, and
/// load management on for roughly half the cases (so migration and
/// router promotion run against concurrent jobs).
tenant::TenancyConfig gen_tenancy(sim::Rng& rng, unsigned size,
                                  asu::MachineParams& mp) {
  mp = asu::MachineParams{};
  mp.num_hosts = 1 + unsigned(rng.below(2));
  mp.num_asus = 2 + unsigned(rng.below(3));

  tenant::TenancyConfig cfg;
  static const char* kNames[] = {"t0", "t1", "t2"};
  const std::size_t tenants = 1 + rng.below(3);
  for (std::size_t t = 0; t < tenants; ++t) {
    tenant::TenantSpec ts;
    ts.name = kNames[t];
    ts.fair_share_weight = 0.5 + rng.uniform(0.0, 1.5);
    ts.arrival_weight = 0.5 + rng.uniform(0.0, 1.5);
    const std::size_t entries = 1 + rng.below(2);
    for (std::size_t e = 0; e < entries; ++e) {
      tenant::JobMixEntry m;
      switch (rng.below(3)) {
        case 0: m.kind = tenant::JobKind::DsmSort; break;
        case 1: m.kind = tenant::JobKind::ActiveScan; break;
        default: m.kind = tenant::JobKind::RTreeBulkLoad; break;
      }
      m.weight = 0.5 + rng.uniform(0.0, 1.5);
      m.records = 128 * (1 + rng.below(1 + size));
      ts.mix.push_back(m);
    }
    cfg.tenants.push_back(std::move(ts));
  }
  cfg.total_jobs = 1 + rng.below(2 + size / 2);
  cfg.offered_rate = 2.0 + rng.uniform(0.0, 48.0);
  cfg.seed = rng.next();
  cfg.max_in_flight = 1 + rng.below(3);
  cfg.pressure_limit = rng.below(2) == 0 ? 0.0 : 0.02 * (1 + rng.below(8));
  cfg.job_alpha = 2 + unsigned(rng.below(3));
  cfg.job_log2_alpha_beta = 7 + unsigned(rng.below(3));
  if (rng.below(2) == 0) {
    cfg.load_manager.mode = core::LoadManagerMode::Manage;
    cfg.load_manager.period = 0.002 + rng.uniform(0.0, 0.01);
    cfg.load_manager.promote_hysteresis = 1 + rng.below(2);
    cfg.load_manager.migrate_hysteresis = 1 + rng.below(2);
  }
  return cfg;
}

std::string tenancy_str(const asu::MachineParams& mp,
                        const tenant::TenancyConfig& cfg) {
  return fmt("H=%u D=%u tenants=%zu jobs=%zu rate=%.1f cap=%zu plim=%.2f "
             "mode=%d seed=0x%llx",
             mp.num_hosts, mp.num_asus, cfg.tenants.size(), cfg.total_jobs,
             cfg.offered_rate, cfg.max_in_flight, cfg.pressure_limit,
             int(cfg.load_manager.mode),
             static_cast<unsigned long long>(cfg.seed));
}

/// Per-tenant record conservation under concurrent jobs, admission
/// waits, fair-share charging, and (half the time) cross-job load
/// management with migration: every admitted job completes, and each
/// tenant's records-out multiset size equals its records-in.
std::optional<std::string> prop_tenant_conservation(sim::Rng& rng,
                                                    unsigned size) {
  asu::MachineParams mp;
  const tenant::TenancyConfig cfg = gen_tenancy(rng, size, mp);
  const tenant::TenancyReport rep = tenant::run_tenancy(mp, cfg);

  if (rep.jobs_submitted != cfg.total_jobs ||
      rep.jobs_completed != cfg.total_jobs) {
    return fmt("jobs lost: submitted=%zu completed=%zu of %zu (%s)",
               rep.jobs_submitted, rep.jobs_completed, cfg.total_jobs,
               tenancy_str(mp, cfg).c_str());
  }
  if (!rep.conservation_ok || !rep.ok()) {
    return fmt("conservation violated (%s)", tenancy_str(mp, cfg).c_str());
  }
  std::size_t tenant_jobs = 0;
  for (const auto& t : rep.tenants) {
    tenant_jobs += t.jobs_completed;
    if (!t.conservation_ok || t.records_in != t.records_out) {
      return fmt("tenant %s leaked records: in=%zu out=%zu (%s)",
                 t.name.c_str(), t.records_in, t.records_out,
                 tenancy_str(mp, cfg).c_str());
    }
  }
  if (tenant_jobs != cfg.total_jobs) {
    return fmt("per-tenant job counts sum to %zu, want %zu (%s)",
               tenant_jobs, cfg.total_jobs, tenancy_str(mp, cfg).c_str());
  }
  return std::nullopt;
}

/// The open-arrival determinism contract: the same config reproduces the
/// same schedule element-for-element (and the same fingerprint, and —
/// re-running the full sim — the same execution digest), every event is
/// well-formed against the tenant set, and a different seed moves the
/// fingerprint.
std::optional<std::string> prop_tenant_arrival(sim::Rng& rng,
                                               unsigned size) {
  asu::MachineParams mp;
  tenant::TenancyConfig cfg = gen_tenancy(rng, size, mp);

  const tenant::ArrivalProcess a(cfg);
  const tenant::ArrivalProcess b(cfg);
  if (a.fingerprint() != b.fingerprint()) {
    return fmt("same config, different fingerprints (%s)",
               tenancy_str(mp, cfg).c_str());
  }
  if (a.events().size() != cfg.total_jobs ||
      b.events().size() != cfg.total_jobs) {
    return fmt("schedule length %zu, want %zu (%s)", a.events().size(),
               cfg.total_jobs, tenancy_str(mp, cfg).c_str());
  }
  double prev = 0;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const tenant::ArrivalEvent& ea = a.events()[i];
    const tenant::ArrivalEvent& eb = b.events()[i];
    if (ea.time != eb.time || ea.tenant != eb.tenant ||
        ea.kind != eb.kind || ea.records != eb.records ||
        ea.job_seed != eb.job_seed) {
      return fmt("schedules diverge at arrival %zu (%s)", i,
                 tenancy_str(mp, cfg).c_str());
    }
    if (ea.time < prev || ea.tenant >= cfg.tenants.size()) {
      return fmt("malformed arrival %zu: t=%.9g tenant=%zu (%s)", i,
                 ea.time, ea.tenant, tenancy_str(mp, cfg).c_str());
    }
    prev = ea.time;
    bool in_mix = false;
    for (const auto& m : cfg.tenants[ea.tenant].mix) {
      in_mix = in_mix || (m.kind == ea.kind && m.records == ea.records);
    }
    if (!in_mix) {
      return fmt("arrival %zu not drawn from tenant %zu's mix (%s)", i,
                 ea.tenant, tenancy_str(mp, cfg).c_str());
    }
  }

  const std::uint64_t fp = a.fingerprint();
  cfg.seed += 1;
  const tenant::ArrivalProcess c(cfg);
  if (c.fingerprint() == fp) {
    return fmt("seed %llu and %llu share a fingerprint (%s)",
               static_cast<unsigned long long>(cfg.seed - 1),
               static_cast<unsigned long long>(cfg.seed),
               tenancy_str(mp, cfg).c_str());
  }
  cfg.seed -= 1;

  // Full-run determinism: the schedule contract extends through the sim
  // (same seed => same digest), with the report's fingerprint matching a
  // standalone ArrivalProcess of the same config. Kept small: two full
  // tenancy runs per case.
  cfg.total_jobs = std::min<std::size_t>(cfg.total_jobs, 3);
  const tenant::TenancyReport r1 = tenant::run_tenancy(mp, cfg);
  const tenant::TenancyReport r2 = tenant::run_tenancy(mp, cfg);
  if (r1.digest != r2.digest || r1.sim_events != r2.sim_events) {
    return fmt("rerun moved digest/events (%s)",
               tenancy_str(mp, cfg).c_str());
  }
  if (r1.arrival_fingerprint !=
      tenant::ArrivalProcess(cfg).fingerprint()) {
    return fmt("report fingerprint disagrees with ArrivalProcess (%s)",
               tenancy_str(mp, cfg).c_str());
  }
  return std::nullopt;
}

// ---- sharded-digest: shard-count invariance of the parallel engine ----
//
// A random PHOLD-style topology (node count, lookahead, hop probability,
// RNG seed all drawn per case) must produce a bit-identical canonical
// digest — and event count — when run serially (1 shard) and under
// conservative time windows at 2 and 4 shards. This is the ShardedEngine
// determinism contract (DESIGN.md §14) exercised over random models
// rather than the fixed unit-test workload. Each case also pins the
// zero-lookahead contract: a topology with no cross-shard latency must be
// rejected at construction, not discovered as a deadlocked window loop.

std::optional<std::string> prop_sharded_digest(sim::Rng& rng,
                                               unsigned size) {
  const auto nodes = std::uint32_t(4 + rng.below(8 * size));
  const double lookahead = 1e-5 * double(1 + rng.below(20));
  const double hop_prob = 0.2 + 0.6 * rng.uniform();
  const std::uint64_t model_seed = rng.next();
  const double horizon = 0.02;

  struct Hopper {
    double lookahead;
    double hop_prob;
    void operator()(sim::ShardContext& ctx,
                    const sim::ShardEvent& ev) const {
      sim::Rng& r = ctx.rng();
      const std::uint32_t n = ctx.engine().node_count();
      if (r.uniform() < hop_prob && n > 1) {
        auto dst = sim::LogicalNode(r.below(n));
        if (dst == ctx.node()) dst = (dst + 1) % n;
        ctx.send(dst, lookahead * (1.0 + r.uniform()), ev.payload + 1);
      } else {
        ctx.post(r.exponential(1000.0), ev.payload);
      }
    }
  };

  const auto run_at = [&](std::uint32_t shards) {
    sim::ShardedEngine eng(
        nodes,
        {.shards = shards, .lookahead = lookahead, .seed = model_seed},
        Hopper{lookahead, hop_prob});
    for (std::uint32_t n = 0; n < nodes; ++n) {
      eng.inject(n, n, 1e-6 * double(n % 5), n);
    }
    const std::uint64_t events = eng.run(horizon);
    return std::pair{eng.digest(), events};
  };

  const auto [serial_digest, serial_events] = run_at(1);
  if (serial_events == 0) {
    return fmt("degenerate case: no events (nodes=%u)", nodes);
  }
  for (const std::uint32_t shards : {2u, 4u}) {
    const auto [digest, events] = run_at(shards);
    if (events != serial_events) {
      return fmt("event count diverged at %u shards: %llu vs %llu "
                 "(nodes=%u lookahead=%g hop=%g)",
                 shards, static_cast<unsigned long long>(events),
                 static_cast<unsigned long long>(serial_events), nodes,
                 lookahead, hop_prob);
    }
    if (digest != serial_digest) {
      return fmt("digest diverged at %u shards "
                 "(nodes=%u lookahead=%g hop=%g)",
                 shards, nodes, lookahead, hop_prob);
    }
  }

  // Zero cross-shard latency: must throw, not deadlock (or quietly run).
  const auto zero_shards = std::uint32_t(2 + rng.below(3));
  try {
    sim::ShardedEngine bad(nodes, {.shards = zero_shards, .lookahead = 0.0},
                           Hopper{0.0, hop_prob});
    return fmt("zero lookahead accepted at %u shards", zero_shards);
  } catch (const std::invalid_argument&) {
    // expected
  }
  return std::nullopt;
}

// ---- topology conservation -----------------------------------------

std::optional<std::string> prop_topology_conservation(sim::Rng& rng,
                                                      unsigned size) {
  // The set contract is placement-free: where packets physically travel
  // (flat full bisection, or racks under an oversubscribed spine, with
  // heterogeneous node speeds) must never change what arrives. Run one
  // DSM-Sort config as an embedded job on a random topology AND on the
  // flat machine; both must conserve records, checksums, subset
  // boundaries, and run-sortedness.
  const asu::MachineParams mp = gen_machine(rng, size);
  core::DsmSortConfig cfg = gen_dsm_config(rng, size);
  cfg.run_merge_pass = false;  // embedded jobs are pass-1 only
  const asu::TopologySpec topo = gen_topology(rng, mp);

  const auto run_on = [&](const asu::TopologySpec& t)
      -> std::pair<core::DsmSortReport, std::string> {
    sim::Engine eng;
    asu::Cluster cluster(eng, t);
    core::DsmSortJob job(eng, cluster, cfg);
    eng.spawn(job.body(), "topo-conservation-job");
    eng.run();
    if (!job.finished()) return {{}, "job did not finish"};
    return {job.report(), ""};
  };

  for (const bool flat : {false, true}) {
    const auto& t = flat ? asu::TopologySpec::flat(mp) : topo;
    const auto [rep, err] = run_on(t);
    const char* shape = flat ? "flat" : "hierarchical";
    if (!err.empty()) {
      return fmt("%s (%s racks=%u) [%s]", err.c_str(), shape, t.racks,
                 cfg_str(mp, cfg).c_str());
    }
    if (rep.records_in != cfg.total_records ||
        rep.records_stored != rep.records_in) {
      return fmt("%s racks=%u: stored %zu of %zu records [%s]", shape,
                 t.racks, rep.records_stored, cfg.total_records,
                 cfg_str(mp, cfg).c_str());
    }
    if (!rep.checksum_ok) {
      return fmt("%s racks=%u: key checksum not conserved [%s]", shape,
                 t.racks, cfg_str(mp, cfg).c_str());
    }
    if (!rep.subsets_ok) {
      return fmt("%s racks=%u: records crossed subset boundaries [%s]",
                 shape, t.racks, cfg_str(mp, cfg).c_str());
    }
    if (!rep.runs_sorted_ok) {
      return fmt("%s racks=%u: stored runs not sorted [%s]", shape, t.racks,
                 cfg_str(mp, cfg).c_str());
    }
  }
  return std::nullopt;
}

// ---- pod balance ----------------------------------------------------

std::optional<std::string> prop_pod_balance(sim::Rng& rng, unsigned size) {
  // Balance contracts of the scale-out routers on (possibly) hierarchical
  // target sets. All load feedback is the running assignment count — the
  // balls-into-bins regime the mean-field model predicts.
  const std::size_t k = 2 + rng.below(std::max(2u, 2 * size));
  const std::size_t n = k * (8 + rng.below(32));
  const std::vector<core::RouteTarget> targets(k);

  asu::MachineParams mp;
  mp.num_asus = unsigned(k);
  const asu::TopologySpec topo = gen_topology(rng, mp);

  core::Packet pkt;  // subset 0 throughout
  std::vector<std::size_t> count(k, 0);
  const core::LoadProbe count_probe =
      [&count](std::span<const core::RouteTarget>, std::size_t i) {
        return double(count[i]);
      };

  // (1) SR's per-target floor/ceil cycle bound aggregates to per-rack
  // bounds: each rack's share lies within the sum of its targets' bounds.
  {
    core::SimpleRandomizationRouter sr(rng.split());
    std::vector<std::size_t> rack_count(topo.racks, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = sr.pick(pkt, targets);
      if (idx >= k) return fmt("SR pick %zu out of range k=%zu", idx, k);
      ++rack_count[topo.rack_of_asu(unsigned(idx))];
    }
    for (unsigned r = 0; r < topo.racks; ++r) {
      std::size_t width = 0;  // targets in rack r
      for (std::size_t i = 0; i < k; ++i) {
        width += topo.rack_of_asu(unsigned(i)) == r;
      }
      const std::size_t lo = width * (n / k);
      const std::size_t hi = width * (n / k + (n % k ? 1 : 0));
      if (rack_count[r] < lo || rack_count[r] > hi) {
        return fmt("SR rack %u got %zu picks, bounds [%zu, %zu] "
                   "(k=%zu n=%zu racks=%u width=%zu)",
                   r, rack_count[r], lo, hi, k, n, topo.racks, width);
      }
    }
  }

  // (2) d >= k is exact least-loaded: every pick lands on a target whose
  // probed load equals the global minimum, so counts stay within 1.
  {
    std::fill(count.begin(), count.end(), std::size_t{0});
    core::PowerOfDChoicesRouter pod(rng.split(), unsigned(k), count_probe);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = pod.pick(pkt, targets);
      if (idx >= k) return fmt("pod(k) pick %zu out of range k=%zu", idx, k);
      const auto min_now = *std::min_element(count.begin(), count.end());
      if (count[idx] != min_now) {
        return fmt("pod(d=k) picked load %zu, min was %zu (k=%zu pick %zu)",
                   count[idx], min_now, k, i);
      }
      ++count[idx];
    }
    const auto [lo, hi] = std::minmax_element(count.begin(), count.end());
    if (*hi - *lo > 1) {
      return fmt("pod(d=k) spread %zu after %zu picks (k=%zu)", *hi - *lo,
                 n, k);
    }
  }

  // (3) d = 2 with count feedback: the mean-field gap is
  // log2(log2(k)) + O(1); assert a margin far above it — a failure means
  // the sampler stopped consulting load, not an unlucky seed.
  {
    std::fill(count.begin(), count.end(), std::size_t{0});
    core::PowerOfDChoicesRouter pod(rng.split(), 2, count_probe);
    for (std::size_t i = 0; i < n; ++i) ++count[pod.pick(pkt, targets)];
    const std::size_t max_count = *std::max_element(count.begin(),
                                                    count.end());
    if (max_count > n / k + 16) {
      return fmt("pod(2) max load %zu vs mean %zu (k=%zu n=%zu)",
                 max_count, n / k, k, n);
    }
  }

  // (4) d = 1 never consults load: even a target advertising zero load
  // forever must not absorb every pick.
  if (k >= 2) {
    const core::LoadProbe favor_zero =
        [](std::span<const core::RouteTarget>, std::size_t i) {
          return i == 0 ? 0.0 : 1e9;
        };
    core::PowerOfDChoicesRouter pod(rng.split(), 1, favor_zero);
    std::size_t zero_picks = 0;
    const std::size_t trials = std::max<std::size_t>(n, 64);
    for (std::size_t i = 0; i < trials; ++i) {
      zero_picks += pod.pick(pkt, targets) == 0;
    }
    if (zero_picks == trials) {
      return fmt("pod(1) always picked the advertised-idle target "
                 "(k=%zu trials=%zu)",
                 k, trials);
    }
  }
  return std::nullopt;
}

// ---- migration economy ---------------------------------------------

// The budgeted placer's safety contract. One managed DSM-Sort per case:
// random per-tick move/byte budgets, an aggressive control loop (short
// period, low hysteresis) so migrations actually fire, and — half the
// time — a random fault plan (crash windows included) underneath. The
// run must conserve records/checksums/subsets; every journaled placer
// tick must respect both budgets; and the managed run must replay
// bit-identically (plan + execute of concurrent pre-copy transfers is
// part of the digest).
std::optional<std::string> prop_migration_economy(sim::Rng& rng,
                                                  unsigned size) {
  asu::MachineParams mp = gen_machine(rng, size);
  mp.num_hosts = 2;  // migration needs somewhere to go
  core::DsmSortConfig cfg = gen_dsm_config(rng, size);
  // Static partitioning + a (usually) skewed distribution builds the
  // sustained imbalance the placer reacts to; single-pass so the
  // measured horizon brackets the managed run.
  cfg.sort_router = core::RouterKind::Static;
  cfg.run_merge_pass = false;
  if (rng.below(2) == 0) cfg.key_dist = core::KeyDist::Exponential;

  const core::DsmSortReport base = run_dsm_sort(mp, cfg);
  if (!base.ok()) {
    return fmt("unmanaged baseline failed validation [%s]",
               cfg_str(mp, cfg).c_str());
  }

  core::LoadManagerConfig lm;
  lm.mode = core::LoadManagerMode::Manage;
  lm.period = std::max(base.pass1_seconds, 1e-6) / 32.0;
  lm.promote_hysteresis = 1 + rng.below(2);
  lm.migrate_hysteresis = 1 + rng.below(2);
  lm.cooldown_samples = rng.below(3);
  lm.dwell_samples = 1 + rng.below(4);
  lm.budget_moves_per_tick = 1 + rng.below(3);
  // Half the time cap bytes per tick too (4 KiB .. 4 MiB — low caps make
  // state-heavy instances inadmissible, which the budget check must
  // still honor); otherwise unlimited.
  lm.budget_bytes_per_tick = rng.below(2) == 0
                                 ? std::size_t(-1)
                                 : std::size_t(1) << (12 + rng.below(11));
  lm.precopy_stall_fraction = rng.uniform(0.0, 0.5);
  cfg.load_manager = lm;
  if (rng.below(2) == 0) {
    cfg.faults = gen_fault_plan(rng, mp, base.pass1_seconds, size);
  }

  const core::DsmSortReport rep = run_dsm_sort(mp, cfg);
  if (rep.records_stored != rep.records_in || !rep.checksum_ok) {
    return fmt("managed run lost records: stored %zu of %zu, checksum %s "
               "(%zu migrations, %zu faults) [%s]",
               rep.records_stored, rep.records_in,
               rep.checksum_ok ? "ok" : "BAD",
               std::size_t(rep.lm_migrations), cfg.faults.size(),
               cfg_str(mp, cfg).c_str());
  }
  if (!rep.subsets_ok) {
    return fmt("records crossed subset boundaries under managed "
               "migration [%s]",
               cfg_str(mp, cfg).c_str());
  }

  // Budget accounting: the placer journals every admitted move with the
  // tick timestamp it was planned at. Group by identical time — one
  // group per manager tick — and check both budgets.
  std::map<double, std::pair<std::size_t, std::size_t>> ticks;
  for (const auto& d : rep.lm_decisions) {
    if (d.bytes < core::kMigrationOverheadBytes) {
      return fmt("placer decision at t=%.6f declares %zu bytes, below the "
                 "%zu-byte migration overhead [%s]",
                 d.time, d.bytes, core::kMigrationOverheadBytes,
                 cfg_str(mp, cfg).c_str());
    }
    auto& [moves, bytes] = ticks[d.time];
    ++moves;
    bytes += d.bytes;
  }
  for (const auto& [time, tally] : ticks) {
    if (tally.first > lm.budget_moves_per_tick) {
      return fmt("placer tick at t=%.6f admitted %zu moves over a budget "
                 "of %zu [%s]",
                 time, tally.first, lm.budget_moves_per_tick,
                 cfg_str(mp, cfg).c_str());
    }
    if (tally.second > lm.budget_bytes_per_tick) {
      return fmt("placer tick at t=%.6f admitted %zu bytes over a budget "
                 "of %zu [%s]",
                 time, tally.second, lm.budget_bytes_per_tick,
                 cfg_str(mp, cfg).c_str());
    }
  }
  if (rep.lm_migrations > rep.lm_decisions.size()) {
    return fmt("%zu migrations executed but only %zu placer decisions "
               "journaled [%s]",
               std::size_t(rep.lm_migrations), rep.lm_decisions.size(),
               cfg_str(mp, cfg).c_str());
  }

  // Same managed config (same budgets, same fault plan) replays
  // bit-identically.
  const core::DsmSortReport again = run_dsm_sort(mp, cfg);
  if (again.digest != rep.digest) {
    return fmt("managed run not deterministic: 0x%016llx vs 0x%016llx "
               "(%zu decisions) [%s]",
               static_cast<unsigned long long>(rep.digest),
               static_cast<unsigned long long>(again.digest),
               rep.lm_decisions.size(), cfg_str(mp, cfg).c_str());
  }
  return std::nullopt;
}

std::optional<Failure> run_suite(const char* name, std::size_t cases,
                                 std::uint64_t seed, unsigned min_size,
                                 unsigned max_size, const Property& prop) {
  Options opt;
  opt.suite = name;
  opt.cases = cases;
  opt.seed = seed;
  opt.min_size = min_size;
  opt.max_size = max_size;
  return forall(opt, prop);
}

}  // namespace

std::optional<Failure> suite_permutation(std::size_t cases,
                                         std::uint64_t seed) {
  return run_suite("permutation", cases, seed, 1, 16, prop_permutation);
}

std::optional<Failure> suite_packet_order(std::size_t cases,
                                          std::uint64_t seed) {
  return run_suite("packet-order", cases, seed, 1, 8, prop_packet_order);
}

std::optional<Failure> suite_conservation(std::size_t cases,
                                          std::uint64_t seed) {
  return run_suite("conservation", cases, seed, 1, 12, prop_conservation);
}

std::optional<Failure> suite_sr_balance(std::size_t cases,
                                        std::uint64_t seed) {
  return run_suite("sr-balance", cases, seed, 1, 16, prop_sr_balance);
}

std::optional<Failure> suite_predictor(std::size_t cases,
                                       std::uint64_t seed) {
  return run_suite("predictor", cases, seed, 1, 8, prop_predictor);
}

std::optional<Failure> suite_digest(std::size_t cases, std::uint64_t seed) {
  return run_suite("digest", cases, seed, 1, 6, prop_digest);
}

std::optional<Failure> suite_fault_conservation(std::size_t cases,
                                                std::uint64_t seed) {
  // Each case runs one baseline + two faulted DSM-Sorts; cap size to keep
  // a 100-case suite interactive.
  return run_suite("fault-conservation", cases, seed, 1, 8,
                   prop_fault_conservation);
}

std::optional<Failure> suite_fault_routing(std::size_t cases,
                                           std::uint64_t seed) {
  return run_suite("fault-routing", cases, seed, 1, 8, prop_fault_routing);
}

std::optional<Failure> suite_lm_switch(std::size_t cases,
                                       std::uint64_t seed) {
  return run_suite("lm-switch", cases, seed, 1, 8, prop_lm_switch);
}

std::optional<Failure> suite_lm_migration(std::size_t cases,
                                          std::uint64_t seed) {
  return run_suite("lm-migration", cases, seed, 1, 8, prop_lm_migration);
}

std::optional<Failure> suite_histogram(std::size_t cases,
                                       std::uint64_t seed) {
  return run_suite("histogram", cases, seed, 1, 16, prop_histogram);
}

std::optional<Failure> suite_tenant_conservation(std::size_t cases,
                                                 std::uint64_t seed) {
  // Each case is a full multi-tenant serving run (several concurrent
  // jobs); cap size like the other whole-sim suites.
  return run_suite("tenant-conservation", cases, seed, 1, 8,
                   prop_tenant_conservation);
}

std::optional<Failure> suite_tenant_arrival(std::size_t cases,
                                            std::uint64_t seed) {
  return run_suite("tenant-arrival", cases, seed, 1, 8,
                   prop_tenant_arrival);
}

std::optional<Failure> suite_sharded_digest(std::size_t cases,
                                            std::uint64_t seed) {
  // Each case runs the same random model three times (1, 2 and 4
  // shards); sized like the other whole-sim suites.
  return run_suite("sharded-digest", cases, seed, 1, 8,
                   prop_sharded_digest);
}

std::optional<Failure> suite_topology_conservation(std::size_t cases,
                                                   std::uint64_t seed) {
  // Each case runs one DSM-Sort twice (hierarchical + flat); sized like
  // the other whole-sim suites.
  return run_suite("topology-conservation", cases, seed, 1, 8,
                   prop_topology_conservation);
}

std::optional<Failure> suite_pod_balance(std::size_t cases,
                                         std::uint64_t seed) {
  return run_suite("pod-balance", cases, seed, 1, 16, prop_pod_balance);
}

std::optional<Failure> suite_migration_economy(std::size_t cases,
                                               std::uint64_t seed) {
  // Each case runs one baseline plus two managed DSM-Sorts (replay
  // included); sized like the other whole-sim suites.
  return run_suite("migration-economy", cases, seed, 1, 8,
                   prop_migration_economy);
}

const std::vector<SuiteInfo>& all_suites() {
  static const std::vector<SuiteInfo> kSuites = {
      {"permutation", &suite_permutation, 100},
      {"packet-order", &suite_packet_order, 100},
      {"conservation", &suite_conservation, 100},
      {"sr-balance", &suite_sr_balance, 100},
      {"predictor", &suite_predictor, 100},
      {"digest", &suite_digest, 100},
      {"fault-conservation", &suite_fault_conservation, 100},
      {"fault-routing", &suite_fault_routing, 100},
      {"lm-switch", &suite_lm_switch, 100},
      {"lm-migration", &suite_lm_migration, 100},
      {"histogram", &suite_histogram, 100},
      {"tenant-conservation", &suite_tenant_conservation, 100},
      {"tenant-arrival", &suite_tenant_arrival, 100},
      {"sharded-digest", &suite_sharded_digest, 100},
      {"topology-conservation", &suite_topology_conservation, 100},
      {"pod-balance", &suite_pod_balance, 100},
      {"migration-economy", &suite_migration_economy, 100},
  };
  return kSuites;
}

}  // namespace lmas::check
