#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "asu/network.hpp"
#include "core/functor.hpp"
#include "core/pipeline.hpp"
#include "core/routing.hpp"

namespace lmas::core {

/// Pull-style packet source for a program's input stage: fill `out` and
/// return true, or return false when this instance's input is exhausted.
/// Sources on ASUs are charged disk read time for the bytes they emit.
using SourceFn = std::function<bool(unsigned instance, Packet& out)>;

/// Declarative description of one functor stage: which nodes host its
/// instances (the replication degree is the placement size) and how
/// packets are routed across those instances.
struct ProgramStageSpec {
  std::string name;
  FunctorFactory make;
  std::vector<asu::Node*> placement;
  RouterKind router = RouterKind::RoundRobin;
  /// For Static routing: total subset count (contiguous block ownership).
  std::uint32_t router_subsets = 0;
  /// Inbox depth per instance, in packets.
  std::size_t inbox_packets = 64;
};

struct StageStats {
  std::string name;
  std::uint64_t packets_in = 0;
  std::uint64_t records_in = 0;
  std::uint64_t packets_out = 0;
  std::uint64_t records_out = 0;
  double busy_seconds = 0;  // declared-cost CPU charged by this stage
};

struct ProgramStats {
  double makespan = 0;
  std::vector<StageStats> stages;
  /// Packets that reached the final stage's output (the program result).
  std::vector<Packet> sink_output;
};

/// A linear dataflow program: source stage -> functor stages -> sink.
/// This is the general executor behind the model of Section 3 — programs
/// are specified by composing functors; the *system* (this class) owns
/// channels, routing, placement enforcement, and completion tracking.
/// DSM-Sort's phases are a hand-specialized instance of the same
/// machinery (see dsm_sort.cpp).
class Program {
 public:
  explicit Program(asu::Cluster& cluster);
  ~Program();

  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// Define the source: one generator instance per placement node.
  /// `record_bytes` sets wire/disk accounting (the model's record size).
  void set_source(std::string name, std::vector<asu::Node*> placement,
                  SourceFn source, double per_record_cost = 0);

  /// Append a functor stage. Placement on an ASU requires the functor's
  /// declared state to fit the ASU memory bound (throws otherwise).
  void add_stage(ProgramStageSpec spec);

  /// Execute to completion and collect the last stage's output packets.
  ProgramStats run();

 private:
  struct StageRt;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace lmas::core
