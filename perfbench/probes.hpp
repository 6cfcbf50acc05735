#pragma once

// Layer replays for the traced run. Each replays one workload's inputs
// through a layer's public functions, in isolation and under a span named
// after the layer, so the layer's host time can be measured from outside
// the program.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "asu/params.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Host seconds of the real-record data path, replayed phase by phase:
/// key generation, splitter set-up, classification, block sort (run
/// formation) and, for jobs with a second pass, the two-level merge.
struct DataPathTimes {
  double keygen_s = 0;
  double build_s = 0;
  double classify_s = 0;
  double run_formation_s = 0;
  double merge_s = 0;
  bool merge_sorted = true;  // the replayed merge produced sorted output
};
DataPathTimes replay_data_path(const std::vector<DsmInputs>& jobs,
                               SpanRecorder& spans, std::size_t parent);

/// Host seconds of a bare sim::Engine processing `events` timer events
/// spread over `processes` coroutines.
double replay_dispatch(std::uint64_t events, unsigned processes,
                             SpanRecorder& spans, std::size_t parent);

struct ChargeReplay {
  double seconds = 0;
  std::uint64_t calls = 0;   // cpu + disk + nic requests made
  std::uint64_t events = 0;  // engine events those requests caused
  double dispatch_seconds = 0;  // a bare engine running that many events
};

/// Node::compute, Disk::write and Network::transfer on a bare cluster of
/// the workload's machine, in the workload's cpu/disk/nic request mix
/// (capped at a fixed number of calls).
ChargeReplay replay_charges(const lmas::asu::MachineParams& machine,
                            std::uint64_t cpu_calls, std::uint64_t disk_calls,
                            std::uint64_t nic_calls, SpanRecorder& spans,
                            std::size_t parent);

/// Host nanoseconds per sort-router pick, built as the workload builds it
/// (instrumented; switchable static/SR when managed).
double replay_routing_ns(bool managed, unsigned alpha,
                         const lmas::asu::MachineParams& machine,
                         std::uint64_t calls, SpanRecorder& spans,
                         std::size_t parent);

/// Host seconds of gis::RTree::bulk_load over random rectangles, one
/// build per load.
double replay_rtree(const std::vector<std::size_t>& loads, std::uint64_t seed,
                    SpanRecorder& spans, std::size_t parent);

}  // namespace perfbench
