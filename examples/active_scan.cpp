/// Active scan example: the classic active-storage workloads (filter and
/// aggregation, Section 2) written against the functor-program API. The
/// same program is run twice — functors placed on the ASUs vs. on the
/// host — to show the data-movement and makespan effect of pushing
/// bounded computation into the storage tier.

#include <cstdio>
#include <memory>

#include "asu/asu.hpp"
#include "core/core.hpp"

namespace core = lmas::core;
namespace asu = lmas::asu;
namespace sim = lmas::sim;

namespace {

core::SourceFn make_source(std::size_t packets_per_asu,
                           std::size_t records_per_packet) {
  auto emitted = std::make_shared<std::vector<std::size_t>>(64, 0);
  auto rngs = std::make_shared<std::vector<sim::Rng>>();
  for (int i = 0; i < 64; ++i) rngs->emplace_back(1000 + i);
  return [=](unsigned instance, core::Packet& out) {
    if ((*emitted)[instance] >= packets_per_asu) return false;
    ++(*emitted)[instance];
    for (std::size_t i = 0; i < records_per_packet; ++i) {
      out.records.push_back(
          {std::uint32_t((*rngs)[instance].next()), instance});
    }
    return true;
  };
}

struct RunResult {
  double makespan;
  std::uint64_t records_over_network;
  std::size_t survivors;
};

RunResult run_filter(bool on_asus) {
  sim::Engine eng;
  asu::MachineParams mp;
  mp.num_hosts = 1;
  mp.num_asus = 16;
  asu::Cluster cluster(eng, mp);

  std::vector<asu::Node*> asus;
  for (unsigned i = 0; i < mp.num_asus; ++i) asus.push_back(&cluster.asu(i));
  std::vector<asu::Node*> host = {&cluster.host(0)};

  const core::FunctorCost filter_cost{60e-9, 1e-6};
  std::vector<core::ProgramStageSpec> stages;
  stages.push_back(core::source_stage("scan", asus, make_source(64, 512)));
  stages.push_back(core::functor_stage(
      "filter", on_asus ? asus : host, [&](unsigned) {
        return std::make_unique<core::FilterFunctor>(
            [](const lmas::em::KeyRecord& r) {
              return (r.key & 0xff) == 0;  // 1/256 kept
            },
            filter_cost);
      }));
  stages.push_back(core::functor_stage("collect", host, [&](unsigned) {
    return std::make_unique<core::MapFunctor>(
        [](const lmas::em::KeyRecord& r) { return r; },
        core::FunctorCost{20e-9, 0});
  }));
  core::Program prog(cluster, std::move(stages));
  auto stats = prog.run();

  RunResult rr{};
  rr.makespan = stats.makespan;
  // Records that crossed the interconnect = input of the first stage
  // placed on the host.
  rr.records_over_network =
      on_asus ? stats.stages[2].records_in : stats.stages[1].records_in;
  for (const auto& p : stats.sink_output) rr.survivors += p.records.size();
  return rr;
}

}  // namespace

int main() {
  std::printf("Active scan: filter 1/256 selectivity over 16 ASUs' data "
              "(512k records)\n\n");
  const auto host_side = run_filter(/*on_asus=*/false);
  const auto asu_side = run_filter(/*on_asus=*/true);

  std::printf("%-18s %12s %22s %12s\n", "placement", "makespan",
              "records over network", "survivors");
  std::printf("%-18s %11.3fs %22llu %12zu\n", "filter@host",
              host_side.makespan,
              (unsigned long long)host_side.records_over_network,
              host_side.survivors);
  std::printf("%-18s %11.3fs %22llu %12zu\n", "filter@asu",
              asu_side.makespan,
              (unsigned long long)asu_side.records_over_network,
              asu_side.survivors);

  if (asu_side.survivors != host_side.survivors) {
    std::printf("\nERROR: placements disagree on the result!\n");
    return 1;
  }
  std::printf("\nsame result, %.0fx less interconnect traffic and %.2fx "
              "faster with the filter at the ASUs\n",
              double(host_side.records_over_network) /
                  double(asu_side.records_over_network),
              host_side.makespan / asu_side.makespan);
  return 0;
}
