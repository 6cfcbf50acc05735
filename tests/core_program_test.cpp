#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "asu/asu.hpp"
#include "core/core.hpp"

namespace core = lmas::core;
namespace asu = lmas::asu;
namespace sim = lmas::sim;

namespace {

struct Rig {
  sim::Engine eng;
  asu::MachineParams mp;
  std::unique_ptr<asu::Cluster> cluster;

  explicit Rig(unsigned hosts = 1, unsigned asus = 4) {
    mp.num_hosts = hosts;
    mp.num_asus = asus;
    cluster = std::make_unique<asu::Cluster>(eng, mp);
  }

  std::vector<asu::Node*> all_asus() {
    std::vector<asu::Node*> v;
    for (unsigned i = 0; i < mp.num_asus; ++i) v.push_back(&cluster->asu(i));
    return v;
  }
  std::vector<asu::Node*> host0() { return {&cluster->host(0)}; }
};

/// Source emitting `per_instance` packets of `per_packet` records with
/// keys from a deterministic per-instance stream.
core::SourceFn counting_source(std::size_t per_instance,
                               std::size_t per_packet,
                               std::uint64_t seed = 1) {
  auto emitted = std::make_shared<std::map<unsigned, std::size_t>>();
  auto rngs = std::make_shared<std::map<unsigned, sim::Rng>>();
  return [=](unsigned instance, core::Packet& out) {
    auto& count = (*emitted)[instance];
    if (count >= per_instance) return false;
    auto [it, inserted] =
        rngs->try_emplace(instance, sim::Rng(seed * 100 + instance));
    out.subset = 0;
    out.seq = std::uint32_t(count);
    for (std::size_t i = 0; i < per_packet; ++i) {
      out.records.push_back({std::uint32_t(it->second.next()),
                             std::uint32_t(instance)});
    }
    ++count;
    return true;
  };
}

core::FunctorCost tiny_cost() { return {50e-9, 1e-6}; }

TEST(Program, IdentityMapDeliversEverything) {
  Rig rig;
  core::Program prog(*rig.cluster);
  prog.set_source("gen", rig.all_asus(), counting_source(10, 100));
  prog.add_stage({.name = "id",
                  .make = [](unsigned) {
                    return std::make_unique<core::MapFunctor>(
                        [](const lmas::em::KeyRecord& r) { return r; },
                        tiny_cost());
                  },
                  .placement = rig.host0()});
  auto stats = prog.run();
  std::size_t records = 0;
  for (const auto& p : stats.sink_output) records += p.records.size();
  EXPECT_EQ(records, 4u * 10 * 100);
  EXPECT_GT(stats.makespan, 0.0);
  ASSERT_EQ(stats.stages.size(), 2u);  // source + map
  EXPECT_EQ(stats.stages[0].records_out, 4000u);
  EXPECT_EQ(stats.stages[1].records_in, 4000u);
  EXPECT_EQ(stats.stages[1].records_out, 4000u);
}

TEST(Program, FilterOnAsusReducesTraffic) {
  Rig rig;
  core::Program prog(*rig.cluster);
  prog.set_source("gen", rig.all_asus(), counting_source(20, 256));
  // The filter runs ON the ASUs: only matching records cross the network.
  prog.add_stage({.name = "filter@asu",
                  .make =
                      [](unsigned) {
                        return std::make_unique<core::FilterFunctor>(
                            [](const lmas::em::KeyRecord& r) {
                              return r.key < 0x10000000u;  // ~1/16 kept
                            },
                            tiny_cost());
                      },
                  .placement = rig.all_asus()});
  prog.add_stage({.name = "collect@host",
                  .make = [](unsigned) {
                    return std::make_unique<core::MapFunctor>(
                        [](const lmas::em::KeyRecord& r) { return r; },
                        tiny_cost());
                  },
                  .placement = rig.host0()});
  auto stats = prog.run();
  const auto& filter = stats.stages[1];
  const auto& collect = stats.stages[2];
  EXPECT_EQ(filter.records_in, 4u * 20 * 256);
  // Selectivity ~1/16.
  EXPECT_NEAR(double(filter.records_out), 4.0 * 20 * 256 / 16.0,
              4.0 * 20 * 256 / 32.0);
  EXPECT_EQ(collect.records_in, filter.records_out);
  // Every surviving record is a match.
  for (const auto& p : stats.sink_output) {
    for (const auto& r : p.records) EXPECT_LT(r.key, 0x10000000u);
  }
}

TEST(Program, ReplicatedHistogramMatchesOracle) {
  Rig rig;
  constexpr unsigned kBuckets = 16;
  core::Program prog(*rig.cluster);
  prog.set_source("gen", rig.all_asus(), counting_source(8, 512, 7));
  prog.add_stage({.name = "partial-hist@asu",
                  .make =
                      [&](unsigned) {
                        return std::make_unique<core::HistogramFunctor>(
                            kBuckets, tiny_cost());
                      },
                  .placement = rig.all_asus()});
  prog.add_stage({.name = "combine@host",
                  .make =
                      [&](unsigned) {
                        return std::make_unique<
                            core::CombineHistogramsFunctor>(kBuckets,
                                                            tiny_cost());
                      },
                  .placement = rig.host0()});
  auto stats = prog.run();

  // Oracle: regenerate the same keys and bucket them directly.
  std::vector<std::uint64_t> oracle(kBuckets, 0);
  for (unsigned i = 0; i < 4; ++i) {
    sim::Rng rng(7 * 100 + i);
    for (int k = 0; k < 8 * 512; ++k) {
      const auto key = std::uint32_t(rng.next());
      ++oracle[std::size_t((std::uint64_t(key) * kBuckets) >> 32)];
    }
  }
  ASSERT_EQ(stats.sink_output.size(), 1u);
  const auto& total = stats.sink_output[0];
  ASSERT_EQ(total.records.size(), kBuckets);
  std::uint64_t sum = 0;
  for (const auto& r : total.records) {
    EXPECT_EQ(std::uint64_t(r.id), oracle[r.key]) << "bucket " << r.key;
    sum += r.id;
  }
  EXPECT_EQ(sum, 4u * 8 * 512);
}

TEST(Program, PacketSortPreservesPacketsAndSortsThem) {
  Rig rig;
  core::Program prog(*rig.cluster);
  prog.set_source("gen", rig.all_asus(), counting_source(5, 64));
  prog.add_stage({.name = "presort@asu",
                  .make =
                      [](unsigned) {
                        return std::make_unique<core::PacketSortFunctor>(
                            tiny_cost());
                      },
                  .placement = rig.all_asus()});
  prog.add_stage({.name = "sink",
                  .make = [](unsigned) {
                    return std::make_unique<core::MapFunctor>(
                        [](const lmas::em::KeyRecord& r) { return r; },
                        tiny_cost());
                  },
                  .placement = rig.host0()});
  auto stats = prog.run();
  EXPECT_EQ(stats.sink_output.size(), 20u);
  for (const auto& p : stats.sink_output) {
    EXPECT_TRUE(p.sorted);
    EXPECT_TRUE(std::is_sorted(p.records.begin(), p.records.end()));
    EXPECT_EQ(p.records.size(), 64u);
  }
}

TEST(Program, RejectsOversizedAsuState) {
  Rig rig;
  core::Program prog(*rig.cluster);
  prog.set_source("gen", rig.all_asus(), counting_source(1, 1));
  // A histogram whose state exceeds the 8 MiB ASU memory bound.
  const unsigned huge = 4u << 20;  // 4M buckets * 8B = 32 MiB
  EXPECT_THROW(
      prog.add_stage({.name = "huge@asu",
                      .make =
                          [&](unsigned) {
                            return std::make_unique<core::HistogramFunctor>(
                                huge, tiny_cost());
                          },
                      .placement = rig.all_asus()}),
      std::invalid_argument);
  // The same functor is fine on a host.
  EXPECT_NO_THROW(
      prog.add_stage({.name = "huge@host",
                      .make =
                          [&](unsigned) {
                            return std::make_unique<core::HistogramFunctor>(
                                huge, tiny_cost());
                          },
                      .placement = rig.host0()}));
}

TEST(Program, MissingPiecesThrow) {
  Rig rig;
  {
    core::Program prog(*rig.cluster);
    EXPECT_THROW(prog.run(), std::logic_error);  // no source, no stages
  }
  {
    core::Program prog(*rig.cluster);
    EXPECT_THROW(prog.set_source("s", {}, counting_source(1, 1)),
                 std::invalid_argument);
  }
  {
    core::Program prog(*rig.cluster);
    EXPECT_THROW(prog.add_stage({.name = "x",
                                 .make =
                                     [](unsigned) {
                                       return std::make_unique<
                                           core::PacketSortFunctor>(
                                           core::FunctorCost{});
                                     },
                                 .placement = {}}),
                 std::invalid_argument);
  }
}

TEST(Program, DeclaredCostDrivesMakespan) {
  // Double the declared per-record cost and the (CPU-bound) makespan
  // roughly doubles: the system charges exactly what functors declare.
  auto run_with = [](double per_record) {
    Rig rig(1, 4);
    core::Program prog(*rig.cluster);
    prog.set_source("gen", rig.all_asus(), counting_source(50, 512));
    prog.add_stage({.name = "work",
                    .make =
                        [=](unsigned) {
                          return std::make_unique<core::MapFunctor>(
                              [](const lmas::em::KeyRecord& r) { return r; },
                              core::FunctorCost{per_record, 0});
                        },
                    .placement = rig.host0()});
    return prog.run().makespan;
  };
  const double t1 = run_with(1e-6);
  const double t2 = run_with(2e-6);
  EXPECT_NEAR(t2 / t1, 2.0, 0.25);
}

TEST(Program, AsuPlacementScalesWithUnits) {
  // The same ASU-side work finishes faster with more ASUs.
  auto run_with = [](unsigned asus) {
    Rig rig(1, asus);
    core::Program prog(*rig.cluster);
    const std::size_t per_instance = 256 / asus;  // fixed total work
    prog.set_source("gen", rig.all_asus(),
                    counting_source(per_instance, 512));
    prog.add_stage({.name = "work@asu",
                    .make =
                        [](unsigned) {
                          return std::make_unique<core::MapFunctor>(
                              [](const lmas::em::KeyRecord& r) { return r; },
                              core::FunctorCost{2e-6, 0});
                        },
                    .placement = rig.all_asus()});
    prog.add_stage({.name = "sink",
                    .make = [](unsigned) {
                      return std::make_unique<core::MapFunctor>(
                          [](const lmas::em::KeyRecord& r) { return r; },
                          core::FunctorCost{1e-9, 0});
                    },
                    .placement = rig.host0()});
    return prog.run().makespan;
  };
  const double t4 = run_with(4);
  const double t16 = run_with(16);
  EXPECT_LT(t16, t4 * 0.5);
}

}  // namespace
