#include "core/program.hpp"

#include <stdexcept>

#include "asu/asu.hpp"
#include "sim/sim.hpp"

namespace lmas::core {

namespace {

sim::Task<> drive_source(const SourceFn& src, double per_record_cost,
                         StageInstance io) {
  asu::Node& node = *io.node;
  Packet p;
  while (src(io.index, p)) {
    // Degraded modes: a crashed source node stops producing until it
    // recovers (the healthy path costs one branch, no engine work).
    while (!node.running()) co_await node.health_wait();
    io.stats->packets_out++;
    io.stats->records_out += p.records.size();
    if (node.has_disk()) {
      co_await node.disk().read(p.wire_bytes(io.record_bytes));
    }
    if (per_record_cost > 0) {
      const double cost = per_record_cost * double(p.records.size());
      io.stats->busy_seconds += cost;
      co_await node.compute(cost);
    }
    if (io.output != nullptr) {
      co_await io.output->emit(node, std::move(p));
    } else {
      io.sink->push_back(std::move(p));
    }
    p = Packet{};
  }
}

sim::Task<> emit_all(StageInstance io, std::vector<Packet>& outs) {
  for (auto& o : outs) {
    io.stats->packets_out++;
    io.stats->records_out += o.records.size();
    if (io.output != nullptr) {
      co_await io.output->emit(*io.node, std::move(o));
    } else {
      io.sink->push_back(std::move(o));
    }
  }
  outs.clear();
}

sim::Task<> drive_functor(std::unique_ptr<Functor> functor, StageInstance io) {
  asu::Node* node = io.node;
  std::vector<Packet> outs;
  while (true) {
    auto p = co_await io.inbox->recv();
    if (!p) break;
    // A crashed instance keeps its accepted packets queued but pauses
    // processing until recovery (nothing is lost, work resumes).
    while (!node->running()) co_await node->health_wait();
    io.stats->packets_in++;
    io.stats->records_in += p->records.size();
    const double cost = functor->cost().packet_cost(p->records.size());
    io.stats->busy_seconds += cost;
    co_await node->compute(cost);
    outs.clear();
    functor->process(std::move(*p), outs);
    co_await emit_all(io, outs);
  }
  outs.clear();
  functor->finish(outs);
  if (!outs.empty()) {
    // Flushing is real work too: charge the per-packet cost.
    double flush_cost = 0;
    for (const auto& o : outs) {
      flush_cost += functor->cost().packet_cost(o.records.size());
    }
    io.stats->busy_seconds += flush_cost;
    co_await node->compute(flush_cost);
    co_await emit_all(io, outs);
  }
}

}  // namespace

ProgramStageSpec source_stage(std::string name,
                              std::vector<asu::Node*> placement,
                              SourceFn source, double per_record_cost) {
  return {.name = std::move(name),
          .placement = std::move(placement),
          .body = [source = std::move(source),
                   per_record_cost](StageInstance io) {
            return drive_source(source, per_record_cost, io);
          }};
}

ProgramStageSpec functor_stage(std::string name,
                               std::vector<asu::Node*> placement,
                               FunctorFactory make) {
  // ASU eligibility: bounded state must fit the ASU memory bound.
  const auto probe = make(0);
  for (const auto* node : placement) {
    if (node->is_asu() && probe->state_bytes() > node->memory_bytes()) {
      throw std::invalid_argument(
          "stage '" + name + "': functor state exceeds the ASU memory bound");
    }
  }
  ProgramStageSpec spec{
      .name = std::move(name),
      .placement = std::move(placement),
      .body = [make = std::move(make)](StageInstance io) {
        return drive_functor(make(io.index), io);
      }};
  spec.input.name = "to_" + spec.name;
  return spec;
}

Program::Program(asu::Cluster& cluster, std::vector<ProgramStageSpec> stages)
    : cluster_(&cluster), done_(cluster.engine()) {
  if (stages.empty()) {
    throw std::invalid_argument("program needs at least one stage");
  }
  sim::Engine& eng = cluster.engine();
  stages_.reserve(stages.size());
  for (auto& spec : stages) {
    if (spec.placement.empty()) {
      throw std::invalid_argument("stage '" + spec.name +
                                  "' needs at least one instance");
    }
    instances_ += spec.placement.size();
    Stage st;
    st.stats.name = spec.name;
    if (!stages_.empty()) {
      st.inboxes = std::make_unique<StageInboxes>(
          eng, spec.placement.size(), spec.inbox_packets);
      StageSpec in = std::move(spec.input);
      in.record_bytes = cluster.params().record_bytes;
      in.endpoints = st.inboxes->endpoints(spec.placement);
      if (!in.router) in.router = std::make_unique<RoundRobinRouter>();
      in.producers = unsigned(stages_.back().spec.placement.size());
      st.input =
          std::make_unique<StageOutput>(eng, cluster.network(), std::move(in));
    }
    st.spec = std::move(spec);
    stages_.push_back(std::move(st));
  }
}

StageOutput& Program::input(std::size_t stage) {
  return *stages_.at(stage).input;
}

void Program::start() {
  if (started_) throw std::logic_error("Program::start called twice");
  started_ = true;
  sim::Engine& eng = cluster_->engine();
  t_start_ = eng.now();
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    for (unsigned i = 0; i < stages_[s].spec.placement.size(); ++i) {
      eng.spawn(instance(s, i), stages_[s].spec.name + std::to_string(i));
    }
  }
}

/// The completion envelope: run the body, close the next stage, and wake
/// the joiner when the last instance is done. It adds no event: the body
/// starts and returns by symmetric transfer.
sim::Task<> Program::instance(std::size_t stage, unsigned i) {
  Stage& st = stages_[stage];
  StageOutput* out =
      stage + 1 < stages_.size() ? stages_[stage + 1].input.get() : nullptr;
  co_await st.spec.body(StageInstance{
      .index = i,
      .node = st.spec.placement[i],
      .inbox = st.inboxes ? &st.inboxes->inbox(i) : nullptr,
      .input = st.input.get(),
      .output = out,
      .stats = &st.stats,
      .sink = &sink_,
      .record_bytes = cluster_->params().record_bytes});
  if (out != nullptr) out->producer_done();
  if (++finished_ == instances_) {
    t_end_ = cluster_->engine().now();
    done_.notify_all();
  }
}

sim::Task<> Program::join() {
  while (!finished()) co_await done_.wait();
}

ProgramStats Program::run() {
  start();
  sim::Engine& eng = cluster_->engine();
  eng.run();
  eng.require_drained("program");
  ProgramStats out;
  out.makespan = t_end_ - t_start_;
  for (const auto& st : stages_) out.stages.push_back(st.stats);
  out.sink_output = std::move(sink_);
  return out;
}

}  // namespace lmas::core
