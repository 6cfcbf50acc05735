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

template <typename... Specs>
std::vector<core::ProgramStageSpec> stages(Specs... specs) {
  std::vector<core::ProgramStageSpec> v;
  (v.push_back(std::move(specs)), ...);
  return v;
}

core::FunctorFactory identity(core::FunctorCost cost = tiny_cost()) {
  return [=](unsigned) {
    return std::make_unique<core::MapFunctor>(
        [](const lmas::em::KeyRecord& r) { return r; }, cost);
  };
}

TEST(Program, IdentityMapDeliversEverything) {
  Rig rig;
  core::Program prog(
      *rig.cluster,
      stages(core::source_stage("gen", rig.all_asus(),
                                counting_source(10, 100)),
             core::functor_stage("id", rig.host0(), identity())));
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
  // The filter runs ON the ASUs: only matching records cross the network.
  core::Program prog(
      *rig.cluster,
      stages(core::source_stage("gen", rig.all_asus(),
                                counting_source(20, 256)),
             core::functor_stage(
                 "filter@asu", rig.all_asus(),
                 [](unsigned) {
                   return std::make_unique<core::FilterFunctor>(
                       [](const lmas::em::KeyRecord& r) {
                         return r.key < 0x10000000u;  // ~1/16 kept
                       },
                       tiny_cost());
                 }),
             core::functor_stage("collect@host", rig.host0(), identity())));
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
  core::Program prog(
      *rig.cluster,
      stages(core::source_stage("gen", rig.all_asus(),
                                counting_source(8, 512, 7)),
             core::functor_stage("partial-hist@asu", rig.all_asus(),
                                 [&](unsigned) {
                                   return std::make_unique<
                                       core::HistogramFunctor>(kBuckets,
                                                               tiny_cost());
                                 }),
             core::functor_stage("combine@host", rig.host0(), [&](unsigned) {
               return std::make_unique<core::CombineHistogramsFunctor>(
                   kBuckets, tiny_cost());
             })));
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
  core::Program prog(
      *rig.cluster,
      stages(core::source_stage("gen", rig.all_asus(), counting_source(5, 64)),
             core::functor_stage("presort@asu", rig.all_asus(),
                                 [](unsigned) {
                                   return std::make_unique<
                                       core::PacketSortFunctor>(tiny_cost());
                                 }),
             core::functor_stage("sink", rig.host0(), identity())));
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
  // A histogram whose state exceeds the 8 MiB ASU memory bound.
  const unsigned huge = 4u << 20;  // 4M buckets * 8B = 32 MiB
  const core::FunctorFactory make = [&](unsigned) {
    return std::make_unique<core::HistogramFunctor>(huge, tiny_cost());
  };
  EXPECT_THROW((void)core::functor_stage("huge@asu", rig.all_asus(), make),
               std::invalid_argument);
  // The same functor is fine on a host.
  EXPECT_NO_THROW((void)core::functor_stage("huge@host", rig.host0(), make));
}

TEST(Program, MissingPiecesThrow) {
  Rig rig;
  // No stages at all.
  EXPECT_THROW(core::Program(*rig.cluster, {}), std::logic_error);
  EXPECT_THROW(core::Program(*rig.cluster,
                             stages(core::source_stage(
                                 "s", {}, counting_source(1, 1)))),
               std::invalid_argument);
  EXPECT_THROW(
      core::Program(*rig.cluster,
                    stages(core::source_stage("s", rig.all_asus(),
                                              counting_source(1, 1)),
                           core::functor_stage("x", {},
                                               [](unsigned) {
                                                 return std::make_unique<
                                                     core::PacketSortFunctor>(
                                                     core::FunctorCost{});
                                               }))),
      std::invalid_argument);
}

TEST(Program, DeclaredCostDrivesMakespan) {
  // Double the declared per-record cost and the (CPU-bound) makespan
  // roughly doubles: the system charges exactly what functors declare.
  auto run_with = [](double per_record) {
    Rig rig(1, 4);
    core::Program prog(
        *rig.cluster,
        stages(core::source_stage("gen", rig.all_asus(),
                                  counting_source(50, 512)),
               core::functor_stage("work", rig.host0(),
                                   identity({per_record, 0}))));
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
    const std::size_t per_instance = 256 / asus;  // fixed total work
    core::Program prog(
        *rig.cluster,
        stages(core::source_stage("gen", rig.all_asus(),
                                  counting_source(per_instance, 512)),
               core::functor_stage("work@asu", rig.all_asus(),
                                   identity({2e-6, 0})),
               core::functor_stage("sink", rig.host0(), identity({1e-9, 0}))));
    return prog.run().makespan;
  };
  const double t4 = run_with(4);
  const double t16 = run_with(16);
  EXPECT_LT(t16, t4 * 0.5);
}

// ---- the executor: start / join / run -------------------------------

/// A body that emits `packets` one-record packets and returns.
core::StageBody emitter(std::size_t packets) {
  return [packets](core::StageInstance io) -> sim::Task<> {
    return [](core::StageInstance io, std::size_t n) -> sim::Task<> {
      for (std::size_t k = 0; k < n; ++k) {
        core::Packet p;
        p.records.push_back({std::uint32_t(k), io.index});
        co_await io.output->emit(*io.node, std::move(p));
      }
    }(io, packets);
  };
}

/// A body that counts the records reaching its inbox.
core::StageBody counter(std::size_t& records) {
  return [&records](core::StageInstance io) -> sim::Task<> {
    return [](core::StageInstance io, std::size_t& n) -> sim::Task<> {
      while (auto p = co_await io.inbox->recv()) n += p->records.size();
    }(io, records);
  };
}

TEST(Program, BlockedStageThrowsNamingTheInstance) {
  Rig rig;
  sim::Condition never(rig.eng);
  core::Program prog(
      *rig.cluster,
      stages(core::ProgramStageSpec{
          .name = "stuck",
          .placement = rig.host0(),
          .body = [&never](core::StageInstance) -> sim::Task<> {
            return [](sim::Condition& cv) -> sim::Task<> {
              co_await cv.wait();
            }(never);
          }}));
  try {
    prog.run();
    FAIL() << "a blocked instance must fail the run";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()), "program deadlocked; unfinished: stuck0");
  }
}

TEST(Program, EarlyReturnStillClosesTheNextStage) {
  Rig rig;
  std::size_t records = 0;
  // Instance 1 returns at once without emitting; instance 0 emits three
  // packets. Neither calls producer_done(), so only the envelope can
  // close the consumer's inbox.
  core::Program prog(
      *rig.cluster,
      stages(core::ProgramStageSpec{
                 .name = "src",
                 .placement = {&rig.cluster->asu(0), &rig.cluster->asu(1)},
                 .body =
                     [](core::StageInstance io) {
                       return emitter(io.index == 0 ? 3 : 0)(io);
                     }},
             core::ProgramStageSpec{.name = "sink",
                                    .placement = rig.host0(),
                                    .body = counter(records),
                                    .input = {.name = "to_sink"}}));
  EXPECT_NO_THROW(prog.run());
  EXPECT_EQ(records, 3u);
  EXPECT_TRUE(prog.finished());
}

TEST(Program, TwoProgramsShareOneEngineAndOneJoiningRoot) {
  Rig rig(2, 4);
  std::size_t a_records = 0, b_records = 0;
  const auto make = [&](const char* tag, std::size_t per, std::size_t& got) {
    return std::make_unique<core::Program>(
        *rig.cluster,
        stages(core::ProgramStageSpec{.name = std::string(tag) + ".src",
                                      .placement = rig.all_asus(),
                                      .body = emitter(per)},
               core::ProgramStageSpec{
                   .name = std::string(tag) + ".sink",
                   .placement = {&rig.cluster->host(0), &rig.cluster->host(1)},
                   .body = counter(got),
                   .input = {.name = std::string(tag) + ".to_sink"}}));
  };
  auto a = make("a", 5, a_records);
  auto b = make("b", 9, b_records);
  // Each join returns only once its program has finished.
  int joined = 0;
  rig.eng.spawn(
      [](core::Program& a, core::Program& b, int& joined) -> sim::Task<> {
        a.start();
        b.start();
        co_await a.join();
        joined += a.finished();
        co_await b.join();
        joined += b.finished();
      }(*a, *b, joined),
      "joiner");
  rig.eng.run();
  EXPECT_EQ(joined, 2);
  EXPECT_TRUE(a->finished());
  EXPECT_TRUE(b->finished());
  EXPECT_EQ(a_records, 4u * 5);
  EXPECT_EQ(b_records, 4u * 9);
  EXPECT_EQ(rig.eng.unfinished_tasks(), 0u);
}

TEST(Program, JoinerIsResumedOnceForAnyInstanceCount) {
  // Run the same program with and without a joining root: the root costs
  // exactly two events (its first resume and one wake-up), however many
  // instances it waits for.
  const auto events = [](unsigned asus, bool join) {
    Rig rig(1, asus);
    std::size_t got = 0;
    core::Program prog(
        *rig.cluster,
        stages(core::ProgramStageSpec{.name = "src",
                                      .placement = rig.all_asus(),
                                      .body = emitter(4)},
               core::ProgramStageSpec{.name = "sink",
                                      .placement = rig.host0(),
                                      .body = counter(got),
                                      .input = {.name = "to_sink"}}));
    prog.start();
    if (join) {
      rig.eng.spawn([](core::Program& p) -> sim::Task<> {
        co_await p.join();
      }(prog));
    }
    rig.eng.run();
    EXPECT_TRUE(prog.finished());
    EXPECT_EQ(got, std::size_t(asus) * 4);
    return rig.eng.events_processed();
  };
  for (unsigned asus : {1u, 2u, 5u, 16u}) {
    EXPECT_EQ(events(asus, true), events(asus, false) + 2) << asus;
  }
}

}  // namespace
