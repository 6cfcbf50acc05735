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

struct StageStats {
  std::string name;
  std::uint64_t packets_in = 0;
  std::uint64_t records_in = 0;
  std::uint64_t packets_out = 0;
  std::uint64_t records_out = 0;
  double busy_seconds = 0;  // declared-cost CPU charged by this stage
};

/// What one stage instance's body works with. The executor owns every
/// channel and StageOutput; a body only reads from `inbox` and emits to
/// `output`.
struct StageInstance {
  unsigned index = 0;                      ///< 0 .. replication degree - 1
  asu::Node* node = nullptr;               ///< placement[index]
  sim::Channel<Packet>* inbox = nullptr;   ///< null on the first stage
  StageOutput* input = nullptr;            ///< feeds `inbox`; null on the first stage
  StageOutput* output = nullptr;           ///< the next stage's input; null on the last
  StageStats* stats = nullptr;             ///< this stage's counters
  std::vector<Packet>* sink = nullptr;     ///< the program's result packets
  std::size_t record_bytes = 0;            ///< the machine's record size
};

/// One instance's coroutine. It runs until its input is exhausted and
/// never calls producer_done(): the executor closes the next stage once
/// the body returns, early or not.
using StageBody = std::function<sim::Task<>(StageInstance)>;

/// One stage: which nodes host its instances (the replication degree is
/// the placement size), what each instance runs, and how packets reach
/// it from the previous stage.
struct ProgramStageSpec {
  /// Instance roots are spawned as `<name><i>`.
  std::string name{};
  std::vector<asu::Node*> placement{};
  StageBody body{};
  /// Inbox depth per instance, in packets.
  std::size_t inbox_packets = 64;
  /// The StageOutput feeding this stage from the previous one (ignored
  /// on the first stage). The executor fills in record_bytes, endpoints
  /// and producers; a null router routes round-robin.
  StageSpec input{};
};

/// Pull-style packet source: fill `out` and return true, or return false
/// when this instance's input is exhausted.
using SourceFn = std::function<bool(unsigned instance, Packet& out)>;

/// A source stage: one generator instance per placement node. Sources on
/// ASUs are charged disk read time for the bytes they emit.
[[nodiscard]] ProgramStageSpec source_stage(std::string name,
                                            std::vector<asu::Node*> placement,
                                            SourceFn source,
                                            double per_record_cost = 0);

/// A functor stage fed through "to_<name>": each instance charges its
/// functor's declared cost per packet, processes it and emits the
/// results (into the sink on the last stage); finish() flushes. Throws
/// std::invalid_argument when the functor's declared state exceeds the
/// memory bound of an ASU in `placement`.
[[nodiscard]] ProgramStageSpec functor_stage(std::string name,
                                             std::vector<asu::Node*> placement,
                                             FunctorFactory make);

struct ProgramStats {
  double makespan = 0;
  std::vector<StageStats> stages;
  /// Packets that reached the final stage's output (the program result).
  std::vector<Packet> sink_output;
};

/// The stage executor behind the model of Section 3: programs compose
/// stages, and the system (this class) owns channels, routing,
/// placement and completion. Construction wires the stages; start()
/// spawns every instance, in stage order, inside one completion
/// envelope that closes the next stage when the body returns and wakes
/// join() once, when the last instance has finished. DSM-Sort's two
/// passes, the property suites' plan runners and the functor programs
/// all run on it.
class Program {
 public:
  /// Throws std::invalid_argument for an empty stage list or placement.
  Program(asu::Cluster& cluster, std::vector<ProgramStageSpec> stages);

  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// Spawn every instance; call once.
  void start();

  /// For a root on the same engine: returns once every instance has
  /// finished (embedded jobs).
  [[nodiscard]] sim::Task<> join();

  /// Standalone: start(), run the engine dry, throw std::logic_error
  /// naming every unfinished root, and collect the stage statistics.
  ProgramStats run();

  /// The StageOutput feeding `stage` (>= 1), e.g. to re-pin an instance.
  [[nodiscard]] StageOutput& input(std::size_t stage);

  [[nodiscard]] bool finished() const noexcept {
    return started_ && finished_ == instances_;
  }
  /// Sim time at which the last instance finished.
  [[nodiscard]] double finish_time() const noexcept { return t_end_; }

 private:
  struct Stage {
    ProgramStageSpec spec;
    std::unique_ptr<StageInboxes> inboxes;  // null on the first stage
    std::unique_ptr<StageOutput> input;     // null on the first stage
    StageStats stats;
  };

  sim::Task<> instance(std::size_t stage, unsigned i);

  asu::Cluster* cluster_;
  std::vector<Stage> stages_;
  std::vector<Packet> sink_;
  std::size_t instances_ = 0;
  std::size_t finished_ = 0;
  bool started_ = false;
  double t_start_ = 0;
  double t_end_ = 0;
  sim::Condition done_;
};

}  // namespace lmas::core
