#include <gtest/gtest.h>

#include "core/core.hpp"
#include "core/splitters.hpp"

namespace core = lmas::core;
namespace asu = lmas::asu;
namespace sim = lmas::sim;

namespace {

asu::MachineParams machine(unsigned hosts, unsigned asus) {
  asu::MachineParams mp;
  mp.num_hosts = hosts;
  mp.num_asus = asus;
  return mp;
}

// ---------- splitter selection ----------

TEST(Splitters, QuantilesBalanceSkewedSample) {
  core::KeyGenerator gen(core::KeyDist::Exponential, 100000, sim::Rng(3));
  auto sample = gen.take(100000);
  auto splitters = core::choose_splitters(sample, 16);
  ASSERT_EQ(splitters.size(), 15u);
  EXPECT_TRUE(std::is_sorted(splitters.begin(), splitters.end()));

  core::SplitterClassifier cls(splitters);
  std::vector<std::size_t> counts(16, 0);
  core::KeyGenerator gen2(core::KeyDist::Exponential, 100000, sim::Rng(4));
  for (int i = 0; i < 100000; ++i) {
    ++counts.at(cls(lmas::em::KeyRecord{gen2.next(), 0}));
  }
  for (auto c : counts) {
    EXPECT_NEAR(double(c), 100000.0 / 16, 100000.0 / 16 * 0.25);
  }
}

TEST(Splitters, ClassifierBoundaries) {
  core::SplitterClassifier cls({10, 20, 30});
  EXPECT_EQ(cls.buckets(), 4u);
  EXPECT_EQ(cls(lmas::em::KeyRecord{5, 0}), 0u);
  EXPECT_EQ(cls(lmas::em::KeyRecord{10, 0}), 0u);  // upper_bound: <= goes low
  EXPECT_EQ(cls(lmas::em::KeyRecord{11, 0}), 1u);
  EXPECT_EQ(cls(lmas::em::KeyRecord{30, 0}), 2u);
  EXPECT_EQ(cls(lmas::em::KeyRecord{31, 0}), 3u);
}

TEST(Splitters, DegenerateCases) {
  EXPECT_TRUE(core::choose_splitters({}, 8).empty());
  EXPECT_TRUE(core::choose_splitters({1, 2, 3}, 1).empty());
  // All-equal sample: duplicated splitters, still valid (empty buckets).
  auto s = core::choose_splitters(std::vector<std::uint32_t>(100, 42), 4);
  ASSERT_EQ(s.size(), 3u);
  core::SplitterClassifier cls(s);
  EXPECT_EQ(cls(lmas::em::KeyRecord{42, 0}), 0u);
  EXPECT_EQ(cls(lmas::em::KeyRecord{43, 0}), 3u);
}

TEST(Splitters, SampledDsmSortBalancesStationarySkew) {
  // Exponential keys: range buckets are badly skewed, sampled splitters
  // even them out — visible through the static-routing host shares.
  auto cfg = core::DsmSortConfig{};
  cfg.total_records = 1 << 17;
  cfg.alpha = 16;
  cfg.log2_alpha_beta = 14;
  cfg.key_dist = core::KeyDist::Exponential;
  cfg.sort_router = core::RouterKind::Static;
  cfg.seed = 7;

  auto imbalance = [](const core::DsmSortReport& r) {
    const double a = double(r.records_sorted_per_host[0]);
    const double b = double(r.records_sorted_per_host[1]);
    return std::abs(a - b) / (a + b);
  };

  cfg.splitters = core::DsmSortConfig::Splitters::Range;
  auto range = core::run_dsm_sort(machine(2, 8), cfg);
  cfg.splitters = core::DsmSortConfig::Splitters::Sampled;
  auto sampled = core::run_dsm_sort(machine(2, 8), cfg);
  ASSERT_TRUE(range.ok());
  ASSERT_TRUE(sampled.ok());
  EXPECT_GT(imbalance(range), 0.5);    // nearly everything in low buckets
  EXPECT_LT(imbalance(sampled), 0.1);  // quantile splitters fix it
  EXPECT_LT(sampled.pass1_seconds, range.pass1_seconds);
}

TEST(Splitters, SampledCannotFixTimeVaryingSkew) {
  // The Figure 10 workload switches distribution mid-stream: splitters
  // chosen for the whole input cannot balance each half, so static
  // routing still starves a host part of the time; SR remains necessary.
  auto cfg = core::DsmSortConfig{};
  cfg.total_records = 1 << 17;
  cfg.alpha = 16;
  cfg.log2_alpha_beta = 14;
  cfg.key_dist = core::KeyDist::HalfUniformHalfExp;
  cfg.splitters = core::DsmSortConfig::Splitters::Sampled;
  cfg.seed = 7;

  cfg.sort_router = core::RouterKind::Static;
  auto stat = core::run_dsm_sort(machine(2, 8), cfg);
  cfg.sort_router = core::RouterKind::SimpleRandomization;
  auto sr = core::run_dsm_sort(machine(2, 8), cfg);
  ASSERT_TRUE(stat.ok());
  ASSERT_TRUE(sr.ok());
  EXPECT_LT(sr.pass1_seconds, stat.pass1_seconds * 0.98);
}

// ---------- performance isolation / shared ASUs ----------

TEST(Isolation, BackgroundLoadSlowsAsusOnly) {
  sim::Engine eng;
  auto mp = machine(1, 1);
  mp.asu_background_load = 0.5;
  asu::Node host(eng, asu::NodeKind::Host, 0, mp);
  asu::Node unit(eng, asu::NodeKind::Asu, 0, mp);
  EXPECT_DOUBLE_EQ(host.speed(), 1.0);
  EXPECT_DOUBLE_EQ(unit.speed(), 0.5 / 8.0);  // half of a 1/8-speed CPU
}

TEST(Isolation, AdaptiveShedsWorkFromBusyAsus) {
  // With competing tenants on the ASUs, the predictor moves the knee:
  // the same machine shape now prefers a smaller alpha.
  const unsigned candidates[] = {1, 4, 16, 64, 256};
  core::DsmSortConfig cfg;
  cfg.total_records = 1 << 20;

  auto mp = machine(1, 16);
  const unsigned idle = core::choose_alpha(mp, cfg, candidates);
  mp.asu_background_load = 0.75;  // ASUs three-quarters busy elsewhere
  const unsigned busy = core::choose_alpha(mp, cfg, candidates);
  EXPECT_EQ(idle, 256u);
  EXPECT_LT(busy, idle);
}

TEST(Isolation, SharedAsusSlowActiveButNotPassive) {
  core::DsmSortConfig cfg;
  cfg.total_records = 1 << 18;
  cfg.alpha = 64;
  cfg.seed = 11;

  auto mp = machine(1, 8);
  const auto idle = core::run_dsm_sort(mp, cfg);
  mp.asu_background_load = 0.5;
  const auto busy = core::run_dsm_sort(mp, cfg);
  ASSERT_TRUE(idle.ok());
  ASSERT_TRUE(busy.ok());
  EXPECT_GT(busy.pass1_seconds, idle.pass1_seconds * 1.2);

  // The passive baseline barely cares: its ASUs only stream bytes.
  cfg.distribute_on_asus = false;
  mp.asu_background_load = 0.0;
  const auto p_idle = core::run_dsm_sort(mp, cfg);
  mp.asu_background_load = 0.5;
  const auto p_busy = core::run_dsm_sort(mp, cfg);
  EXPECT_NEAR(p_busy.pass1_seconds, p_idle.pass1_seconds,
              0.05 * p_idle.pass1_seconds);
}

// ---------- measured (direct-execution) timing ----------

TEST(MeasuredTiming, ProducesValidSortWithPositiveTimes) {
  auto mp = machine(1, 4);
  mp.measured_timing = true;
  mp.measured_scale = 25.0;
  core::DsmSortConfig cfg;
  cfg.total_records = 1 << 16;
  cfg.alpha = 16;
  cfg.log2_alpha_beta = 14;
  const auto rep = core::run_dsm_sort(mp, cfg);
  EXPECT_TRUE(rep.ok());
  EXPECT_GT(rep.pass1_seconds, 0.0);
  EXPECT_EQ(rep.records_stored, cfg.total_records);
}

TEST(MeasuredTiming, ScaleStretchesTime) {
  // Measured charges scale linearly with measured_scale; with 10x the
  // scale the CPU-bound portion should grow substantially (not exactly
  // 10x: disk and network are unaffected).
  core::DsmSortConfig cfg;
  cfg.total_records = 1 << 17;
  cfg.alpha = 16;
  auto mp = machine(1, 4);
  mp.measured_timing = true;
  mp.measured_scale = 20.0;
  const auto lo = core::run_dsm_sort(mp, cfg);
  mp.measured_scale = 200.0;
  const auto hi = core::run_dsm_sort(mp, cfg);
  ASSERT_TRUE(lo.ok());
  ASSERT_TRUE(hi.ok());
  EXPECT_GT(hi.pass1_seconds, lo.pass1_seconds * 3.0);
}

}  // namespace

// ---------- full configuration matrix ----------

struct MatrixCase {
  core::KeyDist dist;
  core::RouterKind router;
  core::DsmSortConfig::Splitters splitters;
  bool merge;
};

class DsmMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(DsmMatrix, InvariantsHoldForEveryConfiguration) {
  const auto& mc = GetParam();
  core::DsmSortConfig cfg;
  cfg.total_records = 1 << 15;
  cfg.alpha = 8;
  cfg.log2_alpha_beta = 13;
  cfg.key_dist = mc.dist;
  cfg.sort_router = mc.router;
  cfg.splitters = mc.splitters;
  cfg.run_merge_pass = mc.merge;
  cfg.seed = 17;
  const auto rep = core::run_dsm_sort(machine(2, 6), cfg);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.records_stored, cfg.total_records);
  if (mc.merge) {
    EXPECT_TRUE(rep.final_sorted_ok);
    EXPECT_EQ(rep.records_final, cfg.total_records);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, DsmMatrix,
    ::testing::Values(
        MatrixCase{core::KeyDist::Uniform, core::RouterKind::Static,
                   core::DsmSortConfig::Splitters::Range, true},
        MatrixCase{core::KeyDist::Uniform, core::RouterKind::RoundRobin,
                   core::DsmSortConfig::Splitters::Sampled, true},
        MatrixCase{core::KeyDist::Uniform,
                   core::RouterKind::SimpleRandomization,
                   core::DsmSortConfig::Splitters::Range, false},
        MatrixCase{core::KeyDist::Exponential, core::RouterKind::Static,
                   core::DsmSortConfig::Splitters::Sampled, true},
        MatrixCase{core::KeyDist::Exponential,
                   core::RouterKind::LeastLoaded,
                   core::DsmSortConfig::Splitters::Range, true},
        MatrixCase{core::KeyDist::HalfUniformHalfExp,
                   core::RouterKind::SimpleRandomization,
                   core::DsmSortConfig::Splitters::Sampled, true},
        MatrixCase{core::KeyDist::HalfUniformHalfExp,
                   core::RouterKind::RoundRobin,
                   core::DsmSortConfig::Splitters::Range, false},
        MatrixCase{core::KeyDist::Sorted, core::RouterKind::Static,
                   core::DsmSortConfig::Splitters::Sampled, true},
        MatrixCase{core::KeyDist::ReverseSorted,
                   core::RouterKind::SimpleRandomization,
                   core::DsmSortConfig::Splitters::Sampled, true},
        MatrixCase{core::KeyDist::Sorted, core::RouterKind::LeastLoaded,
                   core::DsmSortConfig::Splitters::Range, false}));

TEST(DsmMatrix, MergePassWithGammaSweep) {
  for (const unsigned g1 : {1u, 2u, 3u, 0u}) {
    core::DsmSortConfig cfg;
    cfg.total_records = 1 << 15;
    cfg.alpha = 4;
    cfg.log2_alpha_beta = 11;
    cfg.run_merge_pass = true;
    cfg.gamma1 = g1;
    cfg.seed = 23;
    const auto rep = core::run_dsm_sort(machine(1, 5), cfg);
    EXPECT_TRUE(rep.ok()) << "gamma1=" << g1;
    EXPECT_EQ(rep.records_final, cfg.total_records);
    EXPECT_TRUE(rep.final_sorted_ok);
  }
}

TEST(DsmMatrix, BackgroundLoadPreservesCorrectness) {
  auto mp = machine(1, 4);
  mp.asu_background_load = 0.9;  // ASUs nearly starved, still correct
  core::DsmSortConfig cfg;
  cfg.total_records = 1 << 14;
  cfg.run_merge_pass = true;
  const auto rep = core::run_dsm_sort(mp, cfg);
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(rep.final_sorted_ok);
}

// ---------- load monitor ----------

namespace {

/// Keep every sample the monitor publishes, through its observer hook.
void record_samples(core::LoadMonitor& mon,
                    std::vector<core::LoadSample>& out) {
  mon.set_observer([&out](const core::LoadSample& s) { out.push_back(s); });
}

TEST(LoadMonitor, ImbalanceMetric) {
  EXPECT_DOUBLE_EQ(core::LoadSample::imbalance({1.0, 1.0, 1.0, 1.0}), 0.0);
  EXPECT_NEAR(core::LoadSample::imbalance({4.0, 0.0, 0.0, 0.0}), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(core::LoadSample::imbalance({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(core::LoadSample::imbalance({5.0}), 0.0);
  const double mid = core::LoadSample::imbalance({3.0, 1.0});
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 1.0);
}

TEST(LoadMonitor, ObservesWorkAndStopsWhenDrained) {
  sim::Engine eng;
  auto mp = machine(2, 2);
  asu::Cluster cluster(eng, mp);
  core::LoadMonitor mon(cluster, 0.01);
  std::vector<core::LoadSample> samples;
  record_samples(mon, samples);
  mon.start();
  // Put 0.1s of work on host0 only.
  auto worker = [](asu::Node& n) -> sim::Task<> { co_await n.compute(0.1); };
  eng.spawn(worker(cluster.host(0)));
  eng.run();
  EXPECT_EQ(eng.unfinished_tasks(), 0u);  // monitor terminated itself
  ASSERT_GT(samples.size(), 2u);
  EXPECT_GT(mon.peak_host_imbalance(), 0.9);  // all load on one host
}

TEST(LoadMonitor, PublishesBacklogGaugesToRegistry) {
  sim::Engine eng;
  auto mp = machine(2, 2);
  asu::Cluster cluster(eng, mp);
  core::LoadMonitor mon(cluster, 0.01);
  std::vector<core::LoadSample> samples;
  record_samples(mon, samples);
  mon.start();
  auto worker = [](asu::Node& n) -> sim::Task<> { co_await n.compute(0.1); };
  eng.spawn(worker(cluster.host(0)));
  eng.run();
  // Every sampled node has a backlog gauge; the imbalance gauge carries
  // the last sample (0 once drained), as the observer saw it.
  const auto& reg = eng.metrics();
  ASSERT_NE(reg.find_gauge("host.backlog.0"), nullptr);
  ASSERT_NE(reg.find_gauge("host.backlog.1"), nullptr);
  ASSERT_NE(reg.find_gauge("asu.backlog.0"), nullptr);
  ASSERT_NE(reg.find_gauge("asu.backlog.1"), nullptr);
  ASSERT_NE(reg.find_gauge("load.host_imbalance"), nullptr);
  ASSERT_FALSE(samples.empty());
  EXPECT_DOUBLE_EQ(reg.find_gauge("host.backlog.0")->value(),
                   samples.back().host_backlog[0]);
}

TEST(LoadMonitor, BalancedWorkShowsLowImbalance) {
  sim::Engine eng;
  auto mp = machine(2, 2);
  asu::Cluster cluster(eng, mp);
  core::LoadMonitor mon(cluster, 0.01);
  mon.start();
  auto worker = [](asu::Node& n) -> sim::Task<> { co_await n.compute(0.1); };
  eng.spawn(worker(cluster.host(0)));
  eng.spawn(worker(cluster.host(1)));
  eng.run();
  EXPECT_LT(mon.peak_host_imbalance(), 0.2);
}

// Regression: the monitor used to stop at the FIRST all-idle sample after
// any work. DSM-Sort-style programs have quiescent gaps between phases
// longer than one sampling period, and stopping inside one missed every
// later sample (Fig. 10's utilization series would truncate at the first
// phase boundary). A single idle sample must not end monitoring; two
// consecutive ones do.
TEST(LoadMonitor, SurvivesIdleGapLongerThanOnePeriod) {
  sim::Engine eng;
  auto mp = machine(1, 1);
  asu::Cluster cluster(eng, mp);
  core::LoadMonitor mon(cluster, 0.01);
  std::vector<core::LoadSample> samples;
  record_samples(mon, samples);
  mon.start();
  // Two bursts with a 0.012s quiescent gap (> one period, < two): the
  // sample at t=0.05 lands inside the gap and sees an idle cluster.
  auto worker = [](sim::Engine& e, asu::Node& n) -> sim::Task<> {
    co_await n.compute(0.045);
    co_await e.sleep(0.012);
    co_await n.compute(0.03);  // second burst: busy [0.057, 0.087]
  };
  eng.spawn(worker(eng, cluster.host(0)));
  eng.run();

  EXPECT_EQ(eng.unfinished_tasks(), 0u);  // monitor still terminates
  ASSERT_FALSE(samples.empty());
  // The monitor sampled through the gap: the second burst is observed...
  bool saw_second_burst = false;
  for (const auto& s : samples) {
    if (s.time > 0.055 && s.host_backlog[0] > 0) saw_second_burst = true;
  }
  EXPECT_TRUE(saw_second_burst);
  EXPECT_GT(samples.back().time, 0.087);
  // ...and it still stops promptly once the workload truly drains (two
  // idle samples after the last burst).
  EXPECT_LT(samples.size(), 20u);
}

// Satellite of the same fix: ASU backlogs are sampled and published
// symmetrically with host backlogs (the trace/registry view used to cover
// hosts only).
TEST(LoadMonitor, SamplesAsuBacklogsSymmetrically) {
  sim::Engine eng;
  auto mp = machine(1, 2);
  asu::Cluster cluster(eng, mp);
  core::LoadMonitor mon(cluster, 0.01);
  std::vector<core::LoadSample> samples;
  record_samples(mon, samples);
  mon.start();
  auto worker = [](asu::Node& n) -> sim::Task<> { co_await n.compute(0.1); };
  eng.spawn(worker(cluster.asu(1)));  // work on an ASU, hosts idle
  eng.run();
  double peak_asu = 0;
  for (const auto& s : samples) {
    ASSERT_EQ(s.asu_backlog.size(), 2u);
    peak_asu = std::max(peak_asu, s.asu_backlog[1]);
  }
  EXPECT_GT(peak_asu, 0.0);
  ASSERT_NE(eng.metrics().find_gauge("asu.backlog.1"), nullptr);
}

}  // namespace

// ---------- distributed two-level B+-tree ----------

namespace {

TEST(DistBTree, LookupsMatchOracleInBothMaintenanceModes) {
  for (auto mode : {core::MaintenanceMode::Online,
                    core::MaintenanceMode::Batched}) {
    auto mp = machine(1, 4);
    core::DistBTreeConfig cfg;
    cfg.initial_keys = 20000;
    cfg.operations = 1000;
    cfg.maintenance = mode;
    cfg.batch_size = 64;
    const auto rep = core::run_dist_btree(mp, cfg);
    EXPECT_TRUE(rep.lookups_ok)
        << (mode == core::MaintenanceMode::Online ? "online" : "batched");
    EXPECT_TRUE(rep.final_state_ok);
    EXPECT_GT(rep.lookups, 0u);
    EXPECT_GT(rep.inserts, 0u);
    if (mode == core::MaintenanceMode::Batched) {
      EXPECT_GT(rep.batches_shipped, 0u);
    } else {
      EXPECT_EQ(rep.batches_shipped, 0u);
    }
  }
}

TEST(DistBTree, BatchedMaintenanceBeatsOnlineUnderInsertHeavyLoad) {
  // The Section 4.2 claim: lower-level maintenance as an ASU batch job
  // outperforms per-operation random I/O at the storage units.
  auto mp = machine(1, 4);
  core::DistBTreeConfig cfg;
  cfg.initial_keys = 50000;
  cfg.operations = 4000;
  cfg.insert_ratio = 0.8;
  cfg.batch_size = 256;
  cfg.maintenance = core::MaintenanceMode::Online;
  const auto online = core::run_dist_btree(mp, cfg);
  cfg.maintenance = core::MaintenanceMode::Batched;
  const auto batched = core::run_dist_btree(mp, cfg);
  ASSERT_TRUE(online.lookups_ok && online.final_state_ok);
  ASSERT_TRUE(batched.lookups_ok && batched.final_state_ok);
  EXPECT_LT(batched.makespan, online.makespan);
}

TEST(DistBTree, LookupOnlyWorkloadHasNoBatches) {
  auto mp = machine(1, 8);
  core::DistBTreeConfig cfg;
  cfg.initial_keys = 10000;
  cfg.operations = 500;
  cfg.insert_ratio = 0.0;
  const auto rep = core::run_dist_btree(mp, cfg);
  EXPECT_TRUE(rep.lookups_ok);
  EXPECT_EQ(rep.inserts, 0u);
  EXPECT_EQ(rep.lookups, 500u);
}

}  // namespace

// ---------- multi-pass host merge (small gamma2) ----------

namespace {

TEST(DsmMatrix, Gamma2CapForcesMultiPassMergeAndStaysCorrect) {
  core::DsmSortConfig cfg;
  cfg.total_records = 1 << 15;
  cfg.alpha = 4;
  cfg.log2_alpha_beta = 10;  // many short runs: deep merge tree
  cfg.run_merge_pass = true;
  cfg.gamma1 = 1;            // no ASU pre-merge: host sees full fan-in
  cfg.seed = 29;

  cfg.gamma2_max = 0;  // single wide merge
  const auto wide = core::run_dsm_sort(machine(1, 4), cfg);
  cfg.gamma2_max = 2;  // binary merges: several passes
  const auto narrow = core::run_dsm_sort(machine(1, 4), cfg);
  ASSERT_TRUE(wide.ok());
  ASSERT_TRUE(narrow.ok());
  EXPECT_TRUE(narrow.final_sorted_ok);
  EXPECT_EQ(narrow.records_final, cfg.total_records);
  // Extra passes mean extra compares: the capped merge pays for its
  // bounded buffers with a slower pass 2.
  EXPECT_GT(narrow.pass2_seconds, wide.pass2_seconds);
}

}  // namespace

// ---------- remote (cross-shard) endpoints ----------

namespace {

sim::Task<> drain(sim::Channel<core::Packet>& in,
                  std::vector<core::Packet>& got) {
  while (auto p = co_await in.recv()) {
    got.push_back(std::move(*p));
  }
}

core::Packet remote_packet(std::size_t records) {
  core::Packet p;
  p.subset = 7;
  for (std::size_t r = 0; r < records; ++r) {
    p.records.push_back({std::uint32_t(r), std::uint32_t(r)});
  }
  return p;
}

TEST(RemoteEndpoint, SinkReceivesPacketAfterSenderSideCharging) {
  // A null-channel endpoint models an instance owned by another shard
  // (sim::ShardedEngine): the local engine charges the sender NIC and
  // the wire latency, then hands the packet to the sink.
  sim::Engine eng;
  auto mp = machine(1, 1);
  asu::Cluster cluster(eng, mp);

  core::StageInboxes inboxes(eng, 1, 4);
  auto eps = inboxes.endpoints({&cluster.asu(0)});
  eps.push_back(core::Endpoint{nullptr, nullptr});  // remote instance
  ASSERT_TRUE(eps[1].remote());
  core::StageOutput out(
      eng, cluster.network(),
      core::StageSpec{.record_bytes = mp.record_bytes,
                      .endpoints = std::move(eps),
                      .router = std::make_unique<core::RoundRobinRouter>(),
                      .producers = 1,
                      .name = "xshard"});

  struct Arrival {
    std::size_t idx;
    double at;
    core::Packet p;
  };
  std::vector<Arrival> sunk;
  out.set_remote_sink([&](std::size_t idx, double at, core::Packet&& p) {
    sunk.push_back({idx, at, std::move(p)});
  });

  std::vector<core::Packet> local;
  eng.spawn(drain(inboxes.inbox(0), local));
  auto producer = [&]() -> sim::Task<> {
    co_await out.emit_to(1, cluster.host(0), remote_packet(8));
    out.producer_done();
  };
  eng.spawn(producer());
  eng.run();

  EXPECT_EQ(eng.unfinished_tasks(), 0u);
  EXPECT_TRUE(local.empty());
  ASSERT_EQ(sunk.size(), 1u);
  EXPECT_EQ(sunk[0].idx, 1u);
  EXPECT_EQ(sunk[0].p.records.size(), 8u);
  // Sender-side occupancy elapsed before the hand-off: NIC serialization
  // of 8 records plus one wire latency.
  const double nic = double(8 * mp.record_bytes) / mp.host_nic_bandwidth;
  EXPECT_GE(sunk[0].at, nic + mp.link_latency);
  EXPECT_EQ(out.packets_sent(), 1u);
}

TEST(RemoteEndpoint, RouterNeverPicksRemoteInstances) {
  sim::Engine eng;
  auto mp = machine(1, 1);
  asu::Cluster cluster(eng, mp);

  core::StageInboxes inboxes(eng, 1, 8);
  auto eps = inboxes.endpoints({&cluster.asu(0)});
  eps.push_back(core::Endpoint{nullptr, nullptr});
  core::StageOutput out(
      eng, cluster.network(),
      core::StageSpec{.record_bytes = mp.record_bytes,
                      .endpoints = std::move(eps),
                      .router = std::make_unique<core::RoundRobinRouter>(),
                      .producers = 1,
                      .name = "xshard_rr"});
  bool sink_fired = false;
  out.set_remote_sink(
      [&](std::size_t, double, core::Packet&&) { sink_fired = true; });

  std::vector<core::Packet> local;
  eng.spawn(drain(inboxes.inbox(0), local));
  auto producer = [&]() -> sim::Task<> {
    // Round-robin over the ACTIVE set: with the remote instance excluded
    // every pick must land on the single local replica.
    for (int i = 0; i < 6; ++i) {
      co_await out.emit(cluster.host(0), remote_packet(2));
    }
    out.producer_done();
  };
  eng.spawn(producer());
  eng.run();

  EXPECT_EQ(eng.unfinished_tasks(), 0u);
  EXPECT_EQ(local.size(), 6u);
  EXPECT_FALSE(sink_fired);
}

TEST(RemoteEndpoint, EmitToRemoteWithoutSinkThrows) {
  sim::Engine eng;
  auto mp = machine(1, 1);
  asu::Cluster cluster(eng, mp);

  core::StageInboxes inboxes(eng, 1, 4);
  auto eps = inboxes.endpoints({&cluster.asu(0)});
  eps.push_back(core::Endpoint{nullptr, nullptr});
  core::StageOutput out(
      eng, cluster.network(),
      core::StageSpec{.record_bytes = mp.record_bytes,
                      .endpoints = std::move(eps),
                      .router = std::make_unique<core::RoundRobinRouter>(),
                      .producers = 1,
                      .name = "xshard_nosink"});

  auto producer = [&]() -> sim::Task<> {
    co_await out.emit_to(1, cluster.host(0), remote_packet(1));
    out.producer_done();
  };
  eng.spawn(producer());
  EXPECT_THROW(eng.run(), std::logic_error);
}

}  // namespace
