#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "asu/params.hpp"
#include "asu/topology.hpp"
#include "core/dsm_sort.hpp"
#include "core/packet.hpp"
#include "core/workload.hpp"
#include "fault/plan.hpp"
#include "sim/random.hpp"

namespace lmas::check {

/// Generators for the property suites: machine shapes H×D×c, DSM-Sort
/// α/β/γ splits with α·β·γ = n, and workload shapes. All draw from the
/// per-case RNG only, so a (seed, size) pair fully determines the case.

/// Machine shape: 1–2 hosts, up to 2·size ASUs, c ∈ {2,4,...,16}.
/// Bandwidths stay at their defaults (the paper's processor-bound
/// regime); properties about other regimes override fields explicitly.
inline asu::MachineParams gen_machine(sim::Rng& rng, unsigned size) {
  asu::MachineParams mp;
  mp.num_hosts = 1 + unsigned(rng.below(2));
  mp.num_asus = 1 + unsigned(rng.below(std::max(2u, 2 * size)));
  mp.c = 2.0 * double(1 + rng.below(8));
  return mp;
}

/// A topology over a machine shape: 1–4 racks, spine latency/bandwidth
/// within an order of magnitude of the rack tier, oversubscription 1–4,
/// and (half the time) heterogeneous per-ASU speed multipliers in
/// [0.5, 2]. racks == 1 degenerates to the flat model, so suites drawing
/// from this generator cover both regimes.
inline asu::TopologySpec gen_topology(sim::Rng& rng,
                                      const asu::MachineParams& mp) {
  auto topo = asu::TopologySpec::flat(mp);
  topo.racks = 1 + unsigned(rng.below(4));
  if (topo.hierarchical()) {
    topo.spine.latency = mp.link_latency * (0.5 + rng.uniform(0.0, 4.0));
    topo.spine.bandwidth = mp.link_bandwidth * (0.5 + rng.uniform(0.0, 2.0));
    topo.spine.oversubscription = double(1 + rng.below(4));
  }
  if (rng.below(2) == 0) {
    topo.asu_speed.resize(mp.num_asus);
    for (auto& s : topo.asu_speed) s = rng.uniform(0.5, 2.0);
  }
  return topo;
}

/// One of the evaluation's key distributions: uniform, exponential, and
/// the adversarial shapes (pre-sorted, reverse-sorted, and the Figure 10
/// mid-run distribution shift).
inline core::KeyDist gen_key_dist(sim::Rng& rng) {
  constexpr core::KeyDist kAll[] = {
      core::KeyDist::Uniform,         core::KeyDist::Exponential,
      core::KeyDist::HalfUniformHalfExp, core::KeyDist::Sorted,
      core::KeyDist::ReverseSorted,
  };
  return kAll[rng.below(std::size(kAll))];
}

/// The router kinds every generator draws from (one draw).
inline core::RouterKind gen_router_kind(sim::Rng& rng) {
  constexpr core::RouterKind kKinds[] = {
      core::RouterKind::Static, core::RouterKind::RoundRobin,
      core::RouterKind::SimpleRandomization, core::RouterKind::LeastLoaded};
  return kKinds[rng.below(std::size(kKinds))];
}

/// DSM-Sort configuration with a valid α·β·γ = n split: n = 2^log2_n,
/// K = α·β = 2^log2_ab ≤ n, α = 2^log2_a ≤ K, so γ = n / K ≥ 1 exactly.
/// Size scales n (2^10 .. 2^13) to keep a 100-case suite interactive.
inline core::DsmSortConfig gen_dsm_config(sim::Rng& rng, unsigned size) {
  core::DsmSortConfig cfg;
  const unsigned log2_n = 10 + unsigned(rng.below(1 + std::min(3u, size / 4)));
  const unsigned log2_ab = 6 + unsigned(rng.below(log2_n - 6 + 1));
  const unsigned log2_a = unsigned(rng.below(std::min(log2_ab, 8u) + 1));
  cfg.total_records = std::size_t(1) << log2_n;
  cfg.log2_alpha_beta = log2_ab;
  cfg.alpha = 1u << log2_a;
  cfg.distribute_on_asus = rng.below(8) != 0;  // occasionally the baseline
  cfg.key_dist = gen_key_dist(rng);
  cfg.splitters = rng.below(4) == 0 ? core::DsmSortConfig::Splitters::Sampled
                                    : core::DsmSortConfig::Splitters::Range;
  cfg.sort_router = gen_router_kind(rng);
  cfg.run_merge_pass = rng.below(4) == 0;
  cfg.seed = rng.next();
  if (cfg.run_merge_pass) {
    // Merge shapes (gamma1 = 1 ships runs as-is, gamma2_max forces host
    // pre-merges) come from a stream of their own off the seed, so
    // drawing them moves no draw of `rng`.
    sim::Rng shape = sim::Rng(cfg.seed).stream(sim::stream_id("merge-shape"));
    constexpr unsigned kGamma1[] = {0, 1, 2, 3};
    constexpr unsigned kGamma2Max[] = {0, 2, 3, 5};
    cfg.gamma1 = kGamma1[shape.below(std::size(kGamma1))];
    cfg.gamma2_max = kGamma2Max[shape.below(std::size(kGamma2Max))];
  }
  return cfg;
}

/// Key vector drawn from a random distribution (for container-level
/// permutation checks where the output records are directly accessible).
inline std::vector<std::uint32_t> gen_keys(sim::Rng& rng, std::size_t n) {
  core::KeyGenerator gen(gen_key_dist(rng), n, rng.split());
  return gen.take(n);
}

/// A routed packet workload: `producers` streams, each emitting packets
/// with random subsets and per-(producer, subset) sequence numbers —
/// exactly the partial order the paper's set contract must preserve.
/// Packet.run_id carries the producer id so consumers can check FIFO per
/// producer.
struct PacketPlan {
  unsigned producers = 1;
  unsigned subsets = 1;
  unsigned targets = 1;
  std::vector<std::vector<core::Packet>> per_producer;
  std::size_t total_records = 0;
};

inline PacketPlan gen_packet_plan(sim::Rng& rng, unsigned size) {
  PacketPlan plan;
  plan.producers = 1 + unsigned(rng.below(std::max(1u, size / 2) + 1));
  plan.subsets = 1 + unsigned(rng.below(8));
  plan.targets = 1 + unsigned(rng.below(std::max(2u, size)));
  plan.per_producer.resize(plan.producers);
  for (unsigned p = 0; p < plan.producers; ++p) {
    std::vector<std::uint32_t> seq(plan.subsets, 0);
    const std::size_t packets = 4 + rng.below(8 * size);
    for (std::size_t i = 0; i < packets; ++i) {
      core::Packet pkt;
      pkt.subset = std::uint32_t(rng.below(plan.subsets));
      pkt.seq = seq[pkt.subset]++;
      pkt.run_id = p;
      const std::size_t records = 1 + rng.below(8);
      for (std::size_t r = 0; r < records; ++r) {
        pkt.records.push_back({std::uint32_t(rng.next()), std::uint32_t(r)});
      }
      plan.total_records += records;
      plan.per_producer[p].push_back(std::move(pkt));
    }
  }
  return plan;
}

/// Fault schedule scaled to a machine shape and a measured (or estimated)
/// fault-free horizon: every window opens inside the first 80% of the
/// horizon and every crash recovers, so faulted runs always complete.
/// Size scales the number of windows (1 .. ~2 + size/2).
inline fault::FaultPlan gen_fault_plan(sim::Rng& rng,
                                       const asu::MachineParams& mp,
                                       double horizon, unsigned size) {
  return fault::generate_fault_plan(rng, mp.num_hosts, mp.num_asus,
                                    std::max(horizon, 1e-6), 2 + size / 2);
}

}  // namespace lmas::check
