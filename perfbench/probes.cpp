#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <span>

#include "asu/asu.hpp"
#include "core/routing.hpp"
#include "core/splitters.hpp"
#include "core/workload.hpp"
#include "extmem/distribute.hpp"
#include "extmem/merge.hpp"
#include "extmem/record.hpp"
#include "gis/rtree.hpp"
#include "sim/sim.hpp"

namespace perfbench {

namespace asu = lmas::asu;
namespace core = lmas::core;
namespace em = lmas::em;
namespace sim = lmas::sim;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The ASU-local share and key stream DSM-Sort gives distribute instance a.
std::size_t local_share(const DsmInputs& in, unsigned a) {
  return in.records / in.asus + (a < in.records % in.asus ? 1 : 0);
}
core::KeyGenerator generator(const DsmInputs& in, unsigned a) {
  return core::KeyGenerator(
      in.dist, local_share(in, a),
      sim::Rng(in.seed).stream(sim::stream_id("workload", a)));
}

/// A job's bucket classifier: sampled splitters when the job samples,
/// equal-width key ranges otherwise.
struct Classifier {
  std::optional<core::SplitterClassifier> sampled;
  em::RangeClassifier<std::uint32_t> range{0, std::uint32_t(-1), 1};

  std::uint32_t operator()(const em::KeyRecord& r) const {
    return std::uint32_t(sampled ? (*sampled)(r) : range(r));
  }
};

Classifier build_classifier(const DsmInputs& in) {
  Classifier c;
  if (in.sampled_splitters && in.alpha > 1) {
    // The pre-pass DSM-Sort makes: regenerate every ASU's input and keep
    // 4096 evenly spaced keys per ASU.
    std::vector<std::uint32_t> sample;
    for (unsigned a = 0; a < in.asus; ++a) {
      const std::size_t n = local_share(in, a);
      auto gen = generator(in, a);
      const std::size_t stride = std::max<std::size_t>(1, n / 4096);
      for (std::size_t i = 0; i < n; ++i) {
        const auto k = gen.next();
        if (i % stride == 0) sample.push_back(k);
      }
    }
    c.sampled.emplace(core::choose_splitters(std::move(sample), in.alpha));
  } else {
    c.range = em::RangeClassifier<std::uint32_t>(0, std::uint32_t(-1),
                                                  in.alpha);
  }
  return c;
}

struct Run {
  std::uint32_t subset = 0;
  std::vector<em::KeyRecord> records;
};

std::vector<em::KeyRecord> merge(
    std::vector<const std::vector<em::KeyRecord>*> runs) {
  std::vector<em::LoserTree<em::KeyRecord>::Source> sources;
  std::size_t total = 0;
  for (const auto* r : runs) {
    total += r->size();
    sources.push_back([r, pos = std::size_t(0)]() mutable
                      -> std::optional<em::KeyRecord> {
      if (pos >= r->size()) return std::nullopt;
      return (*r)[pos++];
    });
  }
  em::LoserTree<em::KeyRecord> tree(std::move(sources));
  std::vector<em::KeyRecord> out;
  out.reserve(total);
  while (auto r = tree.next()) out.push_back(*r);
  return out;
}

sim::Task<> sleeper(sim::Engine& eng, std::uint64_t n, sim::Rng rng) {
  for (std::uint64_t i = 0; i < n; ++i) {
    co_await eng.sleep(rng.exponential(1e4));
  }
}

sim::Task<> charger(asu::Cluster& c, unsigned hosts, unsigned asus,
                    std::uint64_t cpu, std::uint64_t disk,
                    std::uint64_t transfers) {
  // Interleaved in the workload's proportions, one request at a time.
  const std::uint64_t total = cpu + disk + transfers;
  std::uint64_t done_cpu = 0, done_disk = 0, done_xfer = 0;
  for (std::uint64_t i = 0; i < total; ++i) {
    const unsigned a = unsigned(i % asus);
    const unsigned h = unsigned(i % hosts);
    if (done_cpu * total < cpu * (i + 1)) {
      ++done_cpu;
      co_await (i % 2 == 0 ? c.asu(a) : c.host(h)).compute(1e-6);
    } else if (done_disk * total < disk * (i + 1)) {
      ++done_disk;
      co_await c.asu(a).disk().write(4096);
    } else {
      ++done_xfer;
      co_await c.network().transfer(c.asu(a), c.host(h), 4096);
    }
  }
}

}  // namespace

DataPathTimes replay_data_path(const std::vector<DsmInputs>& jobs,
                               SpanRecorder& spans, std::size_t parent) {
  DataPathTimes t;
  std::vector<std::vector<std::uint32_t>> keys(jobs.size());
  {
    ScopedSpan s(&spans, "core.workload.keygen", parent);
    const double t0 = now_s();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      keys[j].reserve(jobs[j].records);
      for (unsigned a = 0; a < jobs[j].asus; ++a) {
        auto gen = generator(jobs[j], a);
        for (std::size_t i = 0, n = local_share(jobs[j], a); i < n; ++i) {
          keys[j].push_back(gen.next());
        }
      }
    }
    t.keygen_s = now_s() - t0;
  }

  std::vector<Classifier> classifiers;
  {
    ScopedSpan s(&spans, "core.splitters.build", parent);
    const double t0 = now_s();
    for (const auto& in : jobs) classifiers.push_back(build_classifier(in));
    t.build_s = now_s() - t0;
  }

  std::vector<std::vector<std::uint32_t>> subsets(jobs.size());
  {
    ScopedSpan s(&spans, "core.splitters.classify", parent);
    const double t0 = now_s();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      subsets[j].reserve(keys[j].size());
      for (const auto k : keys[j]) {
        subsets[j].push_back(classifiers[j](em::KeyRecord{k, 0}));
      }
    }
    t.classify_s = now_s() - t0;
  }

  // Cut each subset's record stream into run-length blocks, as the sort
  // instances stage them (short remainders become short runs).
  std::vector<std::vector<Run>> runs(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::vector<std::vector<em::KeyRecord>> staging(jobs[j].alpha);
    for (std::size_t i = 0; i < keys[j].size(); ++i) {
      auto& buf = staging[subsets[j][i]];
      buf.push_back({keys[j][i], std::uint32_t(i)});
      if (buf.size() == jobs[j].run_length) {
        runs[j].push_back({subsets[j][i], std::move(buf)});
        buf = {};
      }
    }
    for (std::uint32_t s = 0; s < jobs[j].alpha; ++s) {
      if (!staging[s].empty()) runs[j].push_back({s, std::move(staging[s])});
    }
    keys[j] = {};
    subsets[j] = {};
  }
  {
    ScopedSpan s(&spans, "extmem.run_formation", parent);
    const double t0 = now_s();
    for (auto& job_runs : runs) {
      for (auto& r : job_runs) std::sort(r.records.begin(), r.records.end());
    }
    t.run_formation_s = now_s() - t0;
  }

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!jobs[j].merge_pass) continue;
    const DsmInputs& in = jobs[j];
    // Runs are stored striped across the ASUs in packet-sized chunks; a
    // run's chunks on one ASU form one sorted piece. Each ASU merges its
    // pieces per subset, then the host merges the ASUs' outputs.
    using Pieces = std::vector<std::vector<em::KeyRecord>>;
    std::vector<std::vector<Pieces>> pieces(in.asus,
                                            std::vector<Pieces>(in.alpha));
    std::size_t rr = 0;
    for (const auto& r : runs[j]) {
      std::vector<std::vector<em::KeyRecord>*> piece_of(in.asus, nullptr);
      for (std::size_t off = 0; off < r.records.size();
           off += in.packet_records) {
        const unsigned a = unsigned(rr++ % in.asus);
        if (piece_of[a] == nullptr) {
          pieces[a][r.subset].emplace_back();
          piece_of[a] = &pieces[a][r.subset].back();
        }
        const auto end =
            std::min(r.records.size(), off + in.packet_records);
        piece_of[a]->insert(piece_of[a]->end(), r.records.begin() + off,
                            r.records.begin() + end);
      }
    }
    runs[j] = {};
    ScopedSpan s(&spans, "extmem.merge", parent);
    const double t0 = now_s();
    for (std::uint32_t sub = 0; sub < in.alpha; ++sub) {
      std::vector<std::vector<em::KeyRecord>> per_asu;
      for (unsigned a = 0; a < in.asus; ++a) {
        auto& local = pieces[a][sub];
        if (local.empty()) continue;
        std::vector<const std::vector<em::KeyRecord>*> in_runs;
        for (const auto& p : local) in_runs.push_back(&p);
        per_asu.push_back(merge(std::move(in_runs)));
        local = {};
      }
      if (per_asu.empty()) continue;
      std::vector<const std::vector<em::KeyRecord>*> in_runs;
      for (const auto& p : per_asu) in_runs.push_back(&p);
      const auto out = merge(std::move(in_runs));
      t.merge_sorted = t.merge_sorted && std::is_sorted(out.begin(), out.end());
    }
    t.merge_s += now_s() - t0;
  }
  return t;
}

double replay_dispatch(std::uint64_t events, unsigned processes,
                       SpanRecorder& spans, std::size_t parent) {
  ScopedSpan s(&spans, "sim", parent);
  const double t0 = now_s();
  {
    sim::Engine eng;
    const sim::Rng root(0x5eed);
    processes = std::max(1u, processes);
    for (unsigned p = 0; p < processes; ++p) {
      const std::uint64_t n =
          events / processes + (p < events % processes ? 1 : 0);
      eng.spawn(sleeper(eng, n, root.stream(p)));
    }
    eng.run();
  }
  return now_s() - t0;
}

ChargeReplay replay_charges(const asu::MachineParams& machine,
                            std::uint64_t cpu_calls, std::uint64_t disk_calls,
                            std::uint64_t nic_calls, SpanRecorder& spans,
                            std::size_t parent) {
  constexpr std::uint64_t kMaxCalls = 400000;
  const std::uint64_t total = cpu_calls + disk_calls + nic_calls;
  const double scale =
      total > kMaxCalls ? double(kMaxCalls) / double(total) : 1.0;
  const auto cpu = std::uint64_t(double(cpu_calls) * scale);
  const auto disk = std::uint64_t(double(disk_calls) * scale);
  // One transfer makes two NIC requests (sender and receiver).
  const auto transfers = std::uint64_t(double(nic_calls) * scale / 2);

  ScopedSpan s(&spans, "asu", parent);
  ChargeReplay r;
  const double t0 = now_s();
  {
    sim::Engine eng;
    asu::Cluster cluster(eng, machine);
    eng.spawn(charger(cluster, machine.num_hosts, machine.num_asus, cpu,
                      disk, transfers));
    eng.run();
    r.events = eng.events_processed();
  }
  r.seconds = now_s() - t0;
  r.calls = cpu + disk + 2 * transfers;
  // The same number of bare events from one process: what the charges'
  // own events cost the engine, which sim.dispatch_s already counts.
  r.dispatch_seconds = replay_dispatch(r.events, 1, spans, s.id());
  return r;
}

double replay_routing_ns(bool managed, unsigned alpha,
                         const asu::MachineParams& machine,
                         std::uint64_t calls, SpanRecorder& spans,
                         std::size_t parent) {
  calls = std::clamp<std::uint64_t>(calls, 1, 2000000);
  sim::Engine eng;
  asu::Cluster cluster(eng, machine);
  std::vector<core::RouteTarget> targets;
  for (unsigned h = 0; h < machine.num_hosts; ++h) {
    targets.push_back({&cluster.host(h)});
  }
  const sim::Rng rng = sim::Rng(1).stream(sim::stream_id("routing.sort"));
  std::unique_ptr<core::RoutingPolicy> router;
  core::SwitchableRouter* switchable = nullptr;
  if (managed) {
    auto sw = std::make_unique<core::SwitchableRouter>(
        core::make_router({.kind = core::RouterKind::Static,
                           .rng = rng,
                           .total_subsets = alpha}),
        std::make_unique<core::SimpleRandomizationRouter>(
            sim::Rng(1).stream(sim::stream_id("routing.sort.dynamic"))));
    switchable = sw.get();
    router = std::make_unique<core::InstrumentedRouter>(std::move(sw), eng,
                                                        "sort");
  } else {
    router = core::make_router({.kind = core::RouterKind::Static,
                                .rng = rng,
                                .total_subsets = alpha,
                                .instrument = &eng,
                                .label = "sort"});
  }
  core::Packet p;
  std::size_t sink = 0;
  ScopedSpan s(&spans, "core.routing", parent);
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < calls; ++i) {
    // A managed run spends part of its time on the dynamic policy.
    if (switchable != nullptr && i == calls / 2) switchable->promote();
    p.subset = std::uint32_t(i % std::max(1u, alpha));
    sink += router->pick(p, std::span<const core::RouteTarget>(targets));
  }
  const double seconds = now_s() - t0;
  if (sink == std::size_t(-1)) return 0;  // keeps the picks observable
  return seconds * 1e9 / double(calls);
}

double replay_rtree(const std::vector<std::size_t>& loads, std::uint64_t seed,
                    SpanRecorder& spans, std::size_t parent) {
  namespace gis = lmas::gis;
  ScopedSpan s(&spans, "gis", parent);
  double build_s = 0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    auto rng = sim::Rng(seed).stream(sim::stream_id("perfbench.rtree", i));
    std::vector<gis::RTree::Item> items(loads[i]);
    for (std::size_t k = 0; k < items.size(); ++k) {
      const auto x = float(rng.uniform(0, 1000));
      const auto y = float(rng.uniform(0, 1000));
      items[k] = {{x, y, x + 1.0f, y + 1.0f}, std::uint32_t(k)};
    }
    ScopedSpan b(&spans, "gis.bulk_load", s.id());
    const double t0 = now_s();
    const auto tree = gis::RTree::bulk_load(std::move(items));
    build_s += now_s() - t0;
    if (tree.size() != loads[i]) return -1;
  }
  return build_s;
}

}  // namespace perfbench
