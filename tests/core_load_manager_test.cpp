/// Online load management: the SwitchableRouter hot-swap decorator, the
/// LoadManager control loop (hysteresis, cooldown, dwell, projected
/// drain-time migration planning), and the DSM-Sort pass-1 integration
/// (skewed input + Manage mode must act, conserve records, and stay
/// deterministic; Off mode must be digest-identical to no manager).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/core.hpp"

namespace core = lmas::core;
namespace asu = lmas::asu;
namespace sim = lmas::sim;

namespace {

core::Packet packet_for_subset(std::uint32_t s) {
  core::Packet p;
  p.subset = s;
  p.records.resize(8);
  return p;
}

// ---------- SwitchableRouter ----------

TEST(SwitchableRouter, SwapsBetweenPoliciesAndBack) {
  // Baseline modulo-static vs round-robin dynamic: their pick sequences
  // differ visibly, and each policy's internal state survives being
  // swapped out (the RR cursor resumes where it left off).
  core::SwitchableRouter r(std::make_unique<core::StaticPartitionRouter>(),
                           std::make_unique<core::RoundRobinRouter>());
  std::vector<core::RouteTarget> targets(3);
  EXPECT_FALSE(r.dynamic_active());
  EXPECT_EQ(r.pick(packet_for_subset(5), targets), 5u % 3);
  EXPECT_EQ(r.pick(packet_for_subset(5), targets), 5u % 3);  // static: stable
  r.promote();
  EXPECT_TRUE(r.dynamic_active());
  EXPECT_EQ(r.pick(packet_for_subset(5), targets), 0u);  // RR from 0
  EXPECT_EQ(r.pick(packet_for_subset(5), targets), 1u);
  r.demote();
  EXPECT_EQ(r.pick(packet_for_subset(7), targets), 7u % 3);
  r.promote();
  EXPECT_EQ(r.pick(packet_for_subset(5), targets), 2u);  // cursor resumed
}

TEST(SwitchableRouter, NameReportsEngagedPolicy) {
  core::SwitchableRouter r(std::make_unique<core::StaticPartitionRouter>(),
                           std::make_unique<core::RoundRobinRouter>());
  EXPECT_EQ(r.name(), "static(switchable)");
  r.promote();
  EXPECT_EQ(r.name(), "round-robin(switchable)");
}

TEST(SwitchableRouter, InstrumentedWrapAcrossShrinkingAndGrowingTargets) {
  // The production composition: InstrumentedRouter(SwitchableRouter(...)).
  // The target set shrinks (replica failure) and grows back; both
  // regimes must keep picks in range and the per-target route counters
  // must account for every pick.
  sim::Engine eng;
  auto switchable = std::make_unique<core::SwitchableRouter>(
      std::make_unique<core::StaticPartitionRouter>(),
      std::make_unique<core::RoundRobinRouter>());
  core::SwitchableRouter* sw = switchable.get();
  core::InstrumentedRouter r(std::move(switchable), eng, "lmtest");

  std::size_t picks = 0;
  for (std::size_t k : {std::size_t(4), std::size_t(2), std::size_t(1),
                        std::size_t(5)}) {
    std::vector<core::RouteTarget> targets(k);
    for (std::uint32_t s = 0; s < 10; ++s) {
      const std::size_t idx = r.pick(packet_for_subset(s), targets);
      EXPECT_LT(idx, k);
      ++picks;
    }
    sw->promote();
    for (std::uint32_t s = 0; s < 10; ++s) {
      const std::size_t idx = r.pick(packet_for_subset(s), targets);
      EXPECT_LT(idx, k);
      ++picks;
    }
    sw->demote();
  }
  std::uint64_t counted = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    if (const auto* c = eng.metrics().find_counter(
            "route.lmtest.target." + std::to_string(i))) {
      counted += c->value();
    }
  }
  EXPECT_EQ(counted, picks);
}

// ---------- LoadManager decision loop ----------

core::LoadSample sample_at(double t, std::vector<double> host_backlog) {
  core::LoadSample s;
  s.time = t;
  s.host_backlog = std::move(host_backlog);
  return s;
}

core::LoadManagerConfig manage_cfg() {
  core::LoadManagerConfig cfg;
  cfg.mode = core::LoadManagerMode::Manage;
  cfg.promote_hysteresis = 2;
  cfg.demote_hysteresis = 2;
  cfg.cooldown_samples = 4;  // outlasts demote_hysteresis: observably gates
  cfg.migrate_hysteresis = 2;
  cfg.dwell_samples = 4;
  return cfg;
}

TEST(LoadManager, PromotesOnlyOnSustainedImbalanceThenDemotes) {
  sim::Engine eng;
  core::LoadManager lm(eng, manage_cfg());
  core::SwitchableRouter router(
      std::make_unique<core::StaticPartitionRouter>(),
      std::make_unique<core::RoundRobinRouter>());
  lm.client_router(lm.add_client(""), &router);

  // One hot sample is not enough (hysteresis = 2)...
  lm.on_sample(sample_at(0.1, {1.0, 0.0}));
  EXPECT_FALSE(router.dynamic_active());
  // ...a second consecutive one is.
  lm.on_sample(sample_at(0.2, {1.0, 0.0}));
  EXPECT_TRUE(router.dynamic_active());
  EXPECT_EQ(lm.router_switches(), 1u);

  // Even load from now on. Demote hysteresis (2) is satisfied at sample
  // 0.4, but the promote's cooldown (4) gates the action until the
  // sample where the counter reaches zero.
  lm.on_sample(sample_at(0.3, {0.5, 0.5}));
  lm.on_sample(sample_at(0.4, {0.5, 0.5}));
  lm.on_sample(sample_at(0.5, {0.5, 0.5}));
  EXPECT_TRUE(router.dynamic_active());  // still cooling down
  lm.on_sample(sample_at(0.6, {0.5, 0.5}));
  EXPECT_FALSE(router.dynamic_active());
  EXPECT_EQ(lm.router_switches(), 2u);
  ASSERT_EQ(lm.events().size(), 2u);
}

TEST(LoadManager, TinyBacklogImbalanceIsIgnored) {
  // A drained cluster with one 1ms straggler reads as imbalance 1.0;
  // the actionable-backlog floor must mask it.
  sim::Engine eng;
  core::LoadManager lm(eng, manage_cfg());
  core::SwitchableRouter router(
      std::make_unique<core::StaticPartitionRouter>(),
      std::make_unique<core::RoundRobinRouter>());
  lm.client_router(lm.add_client(""), &router);
  for (int i = 0; i < 10; ++i) {
    lm.on_sample(sample_at(0.1 * i, {0.001, 0.0}));
  }
  EXPECT_FALSE(router.dynamic_active());
  EXPECT_EQ(lm.router_switches(), 0u);
}

TEST(LoadManager, PlansMigrationOffOverloadedNodeWithDwell) {
  sim::Engine eng;
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 1;
  asu::Cluster cluster(eng, mp);
  asu::Node* h0 = &cluster.host(0);
  asu::Node* h1 = &cluster.host(1);

  auto cfg = manage_cfg();
  core::LoadManager lm(eng, cfg);
  const std::size_t c = lm.add_client("");
  lm.client_instances(c, {h0, h1}, {h0, h1});

  // h0 drowning, h1 idle: drain_here / drain_there >> migrate_factor.
  h0->cpu().post(10.0);
  EXPECT_EQ(lm.migration_plan(c, 0).to, nullptr);
  lm.on_sample(sample_at(0.1, {10.0, 0.0}));
  EXPECT_EQ(lm.migration_plan(c, 0).to, nullptr);  // hysteresis not met
  lm.on_sample(sample_at(0.2, {10.0, 0.0}));
  EXPECT_EQ(lm.migration_plan(c, 0).to, h1);  // planned
  EXPECT_EQ(lm.migration_plan(c, 1).to, nullptr);

  // The plan stays pending (and is not re-issued) until the stage
  // confirms; confirmation flips placement and starts the dwell lockout.
  lm.on_sample(sample_at(0.3, {10.0, 0.0}));
  EXPECT_EQ(lm.migration_plan(c, 0).to, h1);
  lm.migration_performed(c, 0, *h1);
  EXPECT_EQ(lm.migrations(), 1u);
  EXPECT_EQ(lm.migration_plan(c, 0).to, nullptr);

  // Still imbalanced on the nodes, but instance 0 is in dwell and
  // instance 1 has no qualifying move (its node is the idle one) — no
  // ping-pong plan may appear during the dwell window.
  for (int i = 0; i < 3; ++i) {
    lm.on_sample(sample_at(0.4 + 0.1 * i, {10.0, 0.0}));
    EXPECT_EQ(lm.migration_plan(c, 0).to, nullptr);
  }
}

// ---------- Migration economy (budgeted placer) ----------

TEST(LoadManager, BudgetAdmitsMultipleMovesPerTick) {
  sim::Engine eng;
  asu::MachineParams mp;
  mp.num_hosts = 4;
  mp.num_asus = 1;
  asu::Cluster cluster(eng, mp);
  std::vector<asu::Node*> hosts;
  for (unsigned h = 0; h < 4; ++h) hosts.push_back(&cluster.host(h));

  auto cfg = manage_cfg();
  cfg.budget_moves_per_tick = 2;
  core::LoadManager lm(eng, cfg);
  const std::size_t c = lm.add_client("");
  lm.client_instances(c, hosts, hosts);

  // Two drowning hosts, two idle ones (the placer reads load off the
  // node CPUs). One gate opening must admit both moves in the same tick
  // — and the virtual rebalance must route them to *different* idle
  // hosts (after the first admission the first destination no longer
  // looks idle).
  hosts[0]->cpu().post(10.0);
  hosts[1]->cpu().post(10.0);
  lm.on_sample(sample_at(0.1, {10.0, 10.0, 0.0, 0.0}));
  EXPECT_EQ(lm.decisions().size(), 0u);  // hysteresis not met
  lm.on_sample(sample_at(0.2, {10.0, 10.0, 0.0, 0.0}));
  ASSERT_EQ(lm.decisions().size(), 2u);
  EXPECT_EQ(lm.decisions()[0].time, lm.decisions()[1].time);
  asu::Node* to0 = lm.migration_plan(c, 0).to;
  asu::Node* to1 = lm.migration_plan(c, 1).to;
  ASSERT_NE(to0, nullptr);
  ASSERT_NE(to1, nullptr);
  EXPECT_NE(to0, to1);
  EXPECT_TRUE(to0 == hosts[2] || to0 == hosts[3]);
  EXPECT_TRUE(to1 == hosts[2] || to1 == hosts[3]);
}

TEST(LoadManager, ByteBudgetMakesHeavyInstancesInadmissible) {
  sim::Engine eng;
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 1;
  asu::Cluster cluster(eng, mp);
  asu::Node* h0 = &cluster.host(0);
  asu::Node* h1 = &cluster.host(1);

  auto cfg = manage_cfg();
  cfg.budget_bytes_per_tick = 10000;  // ~10 KB per tick
  core::LoadManager lm(eng, cfg);
  const std::size_t c = lm.add_client("");
  lm.client_instances(c, {h0, h1}, {h0, h1});
  core::MigrationDeclaration heavy;
  heavy.working_set_bytes = [] { return std::size_t(1) << 20; };  // 1 MiB
  lm.declare_instance(c, 0, heavy);

  // Sustained overload, but the instance's declared bytes exceed the
  // tick budget every tick: the placer must never admit the move.
  h0->cpu().post(10.0);
  for (int i = 0; i < 6; ++i) {
    lm.on_sample(sample_at(0.1 * (i + 1), {10.0, 0.0}));
    EXPECT_EQ(lm.migration_plan(c, 0).to, nullptr);
  }
  EXPECT_EQ(lm.decisions().size(), 0u);

  // Same pressure with the budget lifted: planned on the second sample,
  // and the journal prices the declared megabyte.
  cfg.budget_bytes_per_tick = std::size_t(-1);
  core::LoadManager lifted(eng, cfg);
  const std::size_t lc = lifted.add_client("");
  lifted.client_instances(lc, {h0, h1}, {h0, h1});
  lifted.declare_instance(lc, 0, heavy);
  lifted.on_sample(sample_at(0.1, {10.0, 0.0}));
  lifted.on_sample(sample_at(0.2, {10.0, 0.0}));
  EXPECT_EQ(lifted.migration_plan(lc, 0).to, h1);
  ASSERT_EQ(lifted.decisions().size(), 1u);
  EXPECT_EQ(lifted.decisions()[0].bytes, (std::size_t(1) << 20) + 4096);
}

TEST(LoadManager, PricesPreCopyForBulkStateAndStopCopyForLight) {
  sim::Engine eng;
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 1;
  asu::Cluster cluster(eng, mp);
  asu::Node* h0 = &cluster.host(0);
  asu::Node* h1 = &cluster.host(1);

  auto cfg = manage_cfg();
  h0->cpu().post(10.0);
  const auto plan_with = [&](core::MigrationDeclaration decl) {
    core::LoadManager lm(eng, cfg);
    const std::size_t c = lm.add_client("");
    lm.client_instances(c, {h0, h1}, {h0, h1});
    lm.declare_instance(c, 0, std::move(decl));
    lm.on_sample(sample_at(0.1, {10.0, 0.0}));
    lm.on_sample(sample_at(0.2, {10.0, 0.0}));
    EXPECT_EQ(lm.migration_plan(c, 0).to, h1);
    return lm.migration_plan(c, 0);
  };

  // Bulk state on a priced wire: the stop-copy stall (~1s) dwarfs the
  // window, so the placer chooses pre-copy and estimates the stall as
  // overhead + dirty delta only.
  core::MigrationDeclaration bulk;
  bulk.working_set_bytes = [] { return std::size_t(1) << 20; };
  bulk.wire_seconds_per_byte = 1e-6;
  const core::MigrationPlan pre = plan_with(bulk);
  EXPECT_EQ(pre.mode, core::MigrationMode::PreCopy);
  const double stop_stall = double((std::size_t(1) << 20) + 4096) * 1e-6;
  EXPECT_LT(pre.est_stall, stop_stall);
  EXPECT_NEAR(pre.est_stall, (4096.0 + 0.125 * double(1 << 20)) * 1e-6,
              1e-12);
  EXPECT_GT(pre.gain, 0.0);

  // A default declaration (no working set, no wire cost) prices the move
  // at the fixed overhead and stop-copies — the pre-economy behavior.
  const core::MigrationPlan stop = plan_with(core::MigrationDeclaration{});
  EXPECT_EQ(stop.mode, core::MigrationMode::StopCopy);
  EXPECT_EQ(stop.bytes, 4096u);
  EXPECT_EQ(stop.est_stall, 0.0);
}

TEST(LoadManager, ArbitratesOneMoveBudgetAcrossLabeledClients) {
  sim::Engine eng;
  asu::MachineParams mp;
  mp.num_hosts = 4;
  mp.num_asus = 1;
  asu::Cluster cluster(eng, mp);
  asu::Node* h0 = &cluster.host(0);
  asu::Node* h1 = &cluster.host(1);
  asu::Node* h2 = &cluster.host(2);
  asu::Node* h3 = &cluster.host(3);

  auto cfg = manage_cfg();
  cfg.budget_moves_per_tick = 1;
  core::LoadManager lm(eng, cfg);
  // Two tenants, each with one instance on its own drowning host and an
  // idle host to flee to; alice's host is the hotter one.
  const std::size_t alice = lm.add_client("alice");
  lm.client_instances(alice, {h0}, {h0, h2});
  const std::size_t bob = lm.add_client("bob");
  lm.client_instances(bob, {h1}, {h1, h3});
  h0->cpu().post(10.0);
  h1->cpu().post(8.0);
  lm.on_sample(sample_at(0.1, {10.0, 8.0, 0.0, 0.0}));
  lm.on_sample(sample_at(0.2, {10.0, 8.0, 0.0, 0.0}));

  // One move per tick across ALL clients: exactly one plan between the
  // two, for the larger gain.
  ASSERT_EQ(lm.decisions().size(), 1u);
  EXPECT_EQ(lm.decisions()[0].client, "alice");
  EXPECT_EQ(lm.migration_plan(alice, 0).to, h2);
  EXPECT_EQ(lm.migration_plan(bob, 0).to, nullptr);

  // Confirming charges the client's label and the aggregate.
  lm.migration_performed(alice, 0, *h2);
  EXPECT_EQ(lm.migrations("alice"), 1u);
  EXPECT_EQ(lm.migrations("bob"), 0u);
  EXPECT_EQ(lm.migrations(), 1u);
  const auto* alice_counter = eng.metrics().find_counter("lm.alice.migrations");
  ASSERT_NE(alice_counter, nullptr);
  EXPECT_EQ(alice_counter->value(), 1u);

  // An unlabeled client charges the aggregate counters only.
  const std::size_t anon = lm.add_client("");
  lm.client_instances(anon, {h3}, {h3, h0});
  lm.migration_performed(anon, 0, *h0);
  EXPECT_EQ(lm.migrations(), 2u);
  EXPECT_EQ(lm.migrations("alice"), 1u);
  EXPECT_EQ(eng.metrics().find_counter("lm..migrations"), nullptr);

  // bob's move stays admissible (h1 hot, h3 idle), and once the
  // unlabeled client's plan holds still the next gate opening would be
  // bob's — but a removed client is never planned again.
  lm.remove_client(bob);
  for (int i = 0; i < 16; ++i) {
    lm.on_sample(sample_at(0.3 + 0.1 * i, {10.0, 8.0, 0.0, 0.0}));
    EXPECT_EQ(lm.migration_plan(bob, 0).to, nullptr);
  }
  EXPECT_GT(lm.decisions().size(), 1u);
  for (const auto& d : lm.decisions()) EXPECT_NE(d.client, "bob");
}

sim::Task<> pressure_work(asu::Cluster& cl) {
  co_await cl.host(0).compute(0.3);
}

TEST(LoadMonitor, PublishesPerNodePressureGauges) {
  sim::Engine eng;
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 3;
  asu::Cluster cl(eng, mp);
  core::LoadMonitor mon(cl, 0.05);
  mon.start();
  eng.spawn(pressure_work(cl), "work");
  eng.run();
  // One gauge per node, normalized to the sampling window: the global
  // placer (and the admission controller) read cluster pressure straight
  // off the metrics registry.
  for (unsigned h = 0; h < mp.num_hosts; ++h) {
    EXPECT_NE(eng.metrics().find_gauge("pressure.host." + std::to_string(h)),
              nullptr);
  }
  for (unsigned a = 0; a < mp.num_asus; ++a) {
    EXPECT_NE(eng.metrics().find_gauge("pressure.asu." + std::to_string(a)),
              nullptr);
  }
}

// ---------- DSM-Sort integration ----------

asu::MachineParams dsm_machine() {
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 4;
  mp.c = 8;
  return mp;
}

core::DsmSortConfig skewed_cfg() {
  core::DsmSortConfig cfg;
  cfg.total_records = std::size_t(1) << 14;
  cfg.alpha = 8;
  cfg.log2_alpha_beta = 12;
  cfg.key_dist = core::KeyDist::Exponential;  // static split -> skew
  cfg.sort_router = core::RouterKind::Static;
  cfg.seed = 42;
  return cfg;
}

core::LoadManagerConfig dsm_manage_cfg() {
  core::LoadManagerConfig cfg;
  cfg.mode = core::LoadManagerMode::Manage;
  cfg.period = 0.002;
  cfg.promote_hysteresis = 2;
  cfg.cooldown_samples = 2;
  cfg.migrate_hysteresis = 2;
  return cfg;
}

TEST(LoadManagedDsm, ManageModeActsAndConservesRecords) {
  auto cfg = skewed_cfg();
  cfg.load_manager = dsm_manage_cfg();
  const auto rep = core::run_dsm_sort(dsm_machine(), cfg);
  EXPECT_TRUE(rep.ok()) << "conservation/sortedness broken under manager";
  EXPECT_GE(rep.lm_router_switches + rep.lm_migrations, 1u)
      << "skewed static split produced no action";
  EXPECT_EQ(rep.lm_events.size() >= 1, true);
  EXPECT_GT(rep.peak_host_imbalance, 0.0);
}

TEST(LoadManagedDsm, ManageModeIsDeterministicPerSeed) {
  auto cfg = skewed_cfg();
  cfg.load_manager = dsm_manage_cfg();
  const auto a = core::run_dsm_sort(dsm_machine(), cfg);
  const auto b = core::run_dsm_sort(dsm_machine(), cfg);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.lm_migrations, b.lm_migrations);
  EXPECT_EQ(a.lm_router_switches, b.lm_router_switches);
  EXPECT_DOUBLE_EQ(a.pass1_seconds, b.pass1_seconds);
}

TEST(LoadManagedDsm, OffModeIsDigestNeutral) {
  // mode == Off must not construct monitor or manager at all: the run is
  // bit-for-bit the pre-load-manager execution (this is what keeps the
  // six pinned golden digests valid without regoldening).
  auto plain = skewed_cfg();
  auto off = skewed_cfg();
  off.load_manager = dsm_manage_cfg();
  off.load_manager.mode = core::LoadManagerMode::Off;
  const auto a = core::run_dsm_sort(dsm_machine(), plain);
  const auto b = core::run_dsm_sort(dsm_machine(), off);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(b.lm_migrations, 0u);
  EXPECT_EQ(b.lm_router_switches, 0u);
  EXPECT_EQ(b.peak_host_imbalance, 0.0);
}

TEST(LoadManagedDsm, MonitorModeObservesWithoutChangingTimings) {
  auto plain = skewed_cfg();
  auto mon = skewed_cfg();
  mon.load_manager = dsm_manage_cfg();
  mon.load_manager.mode = core::LoadManagerMode::Monitor;
  const auto a = core::run_dsm_sort(dsm_machine(), plain);
  const auto b = core::run_dsm_sort(dsm_machine(), mon);
  // Sampling occupies no resources: identical pass timing, but the
  // monitor reports the imbalance the unmanaged static split creates.
  EXPECT_DOUBLE_EQ(a.pass1_seconds, b.pass1_seconds);
  EXPECT_GT(b.peak_host_imbalance, 0.0);
  EXPECT_GT(b.mean_host_imbalance, 0.0);
  EXPECT_EQ(b.lm_migrations, 0u);
  EXPECT_EQ(b.lm_router_switches, 0u);
}

// ---------- Rack-tier accounting (hierarchical TopologySpec) ----------

TEST(LoadSample, RackLoadAggregatesTheBlockPartition) {
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 4;
  auto topo = asu::TopologySpec::flat(mp);
  topo.racks = 2;
  topo.spine = asu::TierSpec{.latency = 0.001, .bandwidth = 1e9,
                             .oversubscription = 2.0};

  core::LoadSample s;
  s.host_backlog = {1.0, 3.0};
  s.asu_backlog = {1.0, 2.0, 3.0, 4.0};
  // Block partition: host 0 + ASUs {0, 1} in rack 0, the rest in rack 1.
  const auto racks = s.rack_load(topo);
  ASSERT_EQ(racks.size(), 2u);
  EXPECT_DOUBLE_EQ(racks[0], 1.0 + 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(racks[1], 3.0 + 3.0 + 4.0);
  EXPECT_DOUBLE_EQ(s.rack_imbalance(topo),
                   core::LoadSample::imbalance({4.0, 10.0}));
}

sim::Task<> rack_gauge_work(asu::Cluster& cl) {
  co_await cl.host(0).compute(0.3);
}

TEST(LoadMonitor, RackGaugesExistOnlyOnHierarchicalTopologies) {
  asu::MachineParams mp;
  mp.num_hosts = 2;
  mp.num_asus = 4;

  // Hierarchical: rack gauges appear and carry the sampled load.
  {
    sim::Engine eng;
    auto topo = asu::TopologySpec::flat(mp);
    topo.racks = 2;
    topo.spine = asu::TierSpec{.latency = 0.001, .bandwidth = 1e9,
                               .oversubscription = 2.0};
    asu::Cluster cl(eng, topo);
    core::LoadMonitor mon(cl, 0.05);
    mon.start();
    eng.spawn(rack_gauge_work(cl), "work");
    eng.run();
    EXPECT_NE(eng.metrics().find_gauge("rack.load.0"), nullptr);
    EXPECT_NE(eng.metrics().find_gauge("rack.load.1"), nullptr);
    EXPECT_NE(eng.metrics().find_gauge("load.rack_imbalance"), nullptr);
  }

  // Flat: the metric fingerprint must stay exactly pre-topology (the
  // pinned goldens enumerate metric names).
  {
    sim::Engine eng;
    asu::Cluster cl(eng, asu::TopologySpec::flat(mp));
    core::LoadMonitor mon(cl, 0.05);
    mon.start();
    eng.spawn(rack_gauge_work(cl), "work");
    eng.run();
    EXPECT_EQ(eng.metrics().find_gauge("rack.load.0"), nullptr);
    EXPECT_EQ(eng.metrics().find_gauge("load.rack_imbalance"), nullptr);
  }
}

}  // namespace
