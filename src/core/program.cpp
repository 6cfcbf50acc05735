#include "core/program.hpp"

#include <stdexcept>

#include "asu/asu.hpp"
#include "sim/sim.hpp"

namespace lmas::core {

struct Program::StageRt {
  ProgramStageSpec spec;
  std::unique_ptr<StageInboxes> inboxes;
  StageStats stats;
};

struct Program::Impl {
  explicit Impl(asu::Cluster& c) : cluster(&c), eng(&c.engine()) {}

  asu::Cluster* cluster;
  sim::Engine* eng;

  std::string src_name;
  std::vector<asu::Node*> src_nodes;
  SourceFn src;
  double src_per_record_cost = 0;
  StageStats src_stats;

  std::vector<std::unique_ptr<StageRt>> stages;
  std::vector<std::unique_ptr<StageOutput>> outputs;  // outputs[i] feeds stage i

  std::vector<Packet> sink_output;
  StageStats* sink_stats = nullptr;

  [[nodiscard]] std::size_t record_bytes() const {
    return cluster->params().record_bytes;
  }

  sim::Task<> drive_source(unsigned i) {
    asu::Node& node = *src_nodes[i];
    StageOutput* downstream = outputs.front().get();
    Packet p;
    while (src(i, p)) {
      // Degraded modes: a crashed source node stops producing until it
      // recovers (the healthy path costs one branch, no engine work).
      while (!node.running()) co_await node.health_wait();
      src_stats.packets_out++;
      src_stats.records_out += p.records.size();
      if (node.has_disk()) {
        co_await node.disk().read(p.wire_bytes(record_bytes()));
      }
      if (src_per_record_cost > 0) {
        const double cost = src_per_record_cost * double(p.records.size());
        src_stats.busy_seconds += cost;
        co_await node.compute(cost);
      }
      co_await downstream->emit(node, std::move(p));
      p = Packet{};
    }
    downstream->producer_done();
  }

  sim::Task<> drive_stage(std::size_t stage_index, unsigned i) {
    StageRt& st = *stages[stage_index];
    StageOutput* downstream = stage_index + 1 < stages.size()
                                  ? outputs[stage_index + 1].get()
                                  : nullptr;
    asu::Node* node = st.spec.placement[i];
    auto functor = st.spec.make(i);
    auto& inbox = st.inboxes->inbox(i);
    std::vector<Packet> outs;

    while (true) {
      auto p = co_await inbox.recv();
      if (!p) break;
      // A crashed instance keeps its accepted packets queued but pauses
      // processing until recovery (nothing is lost, work resumes).
      while (!node->running()) co_await node->health_wait();
      st.stats.packets_in++;
      st.stats.records_in += p->records.size();
      const double cost = functor->cost().packet_cost(p->records.size());
      st.stats.busy_seconds += cost;
      co_await node->compute(cost);
      outs.clear();
      functor->process(std::move(*p), outs);
      co_await emit_all(st, *node, outs, downstream);
    }
    outs.clear();
    functor->finish(outs);
    if (!outs.empty()) {
      // Flushing is real work too: charge the per-packet cost.
      double flush_cost = 0;
      for (const auto& o : outs) {
        flush_cost += functor->cost().packet_cost(o.records.size());
      }
      st.stats.busy_seconds += flush_cost;
      co_await node->compute(flush_cost);
      co_await emit_all(st, *node, outs, downstream);
    }
    if (downstream) downstream->producer_done();
  }

  sim::Task<> emit_all(StageRt& st, asu::Node& node, std::vector<Packet>& outs,
                       StageOutput* downstream) {
    for (auto& o : outs) {
      st.stats.packets_out++;
      st.stats.records_out += o.records.size();
      if (downstream) {
        co_await downstream->emit(node, std::move(o));
      } else {
        sink_output.push_back(std::move(o));
      }
    }
    outs.clear();
  }
};

Program::Program(asu::Cluster& cluster)
    : impl_(std::make_unique<Impl>(cluster)) {}

Program::~Program() = default;

void Program::set_source(std::string name, std::vector<asu::Node*> placement,
                         SourceFn source, double per_record_cost) {
  if (placement.empty()) {
    throw std::invalid_argument("source needs at least one instance");
  }
  impl_->src_name = std::move(name);
  impl_->src_nodes = std::move(placement);
  impl_->src = std::move(source);
  impl_->src_per_record_cost = per_record_cost;
}

void Program::add_stage(ProgramStageSpec spec) {
  if (spec.placement.empty()) {
    throw std::invalid_argument("stage '" + spec.name +
                                "' needs at least one instance");
  }
  // ASU eligibility: bounded state must fit the ASU memory bound.
  auto probe = spec.make(0);
  for (const auto* node : spec.placement) {
    if (node->is_asu() && probe->state_bytes() > node->memory_bytes()) {
      throw std::invalid_argument(
          "stage '" + spec.name +
          "': functor state exceeds the ASU memory bound");
    }
  }
  auto rt = std::make_unique<StageRt>();
  rt->spec = std::move(spec);
  rt->stats.name = rt->spec.name;
  impl_->stages.push_back(std::move(rt));
}

ProgramStats Program::run() {
  Impl& im = *impl_;
  if (!im.src || im.stages.empty()) {
    throw std::logic_error("program needs a source and at least one stage");
  }

  // Wire the pipeline: outputs[i] routes into stage i's inboxes.
  im.outputs.clear();
  for (std::size_t i = 0; i < im.stages.size(); ++i) {
    StageRt& st = *im.stages[i];
    st.inboxes = std::make_unique<StageInboxes>(
        *im.eng, st.spec.placement.size(), st.spec.inbox_packets);
    const unsigned producers =
        i == 0 ? unsigned(im.src_nodes.size())
               : unsigned(im.stages[i - 1]->spec.placement.size());
    im.outputs.push_back(std::make_unique<StageOutput>(
        *im.eng, im.cluster->network(),
        StageSpec{
            .record_bytes = im.record_bytes(),
            .endpoints = st.inboxes->endpoints(st.spec.placement),
            .router = make_router(
                {.kind = st.spec.router,
                 .rng = sim::Rng(0x9ab).stream(sim::stream_id("routing", i)),
                 .total_subsets = st.spec.router_subsets,
                 .instrument = im.eng,
                 .label = st.spec.name}),
            .producers = producers,
            .name = "to_" + st.spec.name}));
  }

  const double t0 = im.eng->now();
  for (unsigned i = 0; i < im.src_nodes.size(); ++i) {
    im.eng->spawn(im.drive_source(i), im.src_name + std::to_string(i));
  }
  for (std::size_t s = 0; s < im.stages.size(); ++s) {
    for (unsigned i = 0; i < im.stages[s]->spec.placement.size(); ++i) {
      im.eng->spawn(im.drive_stage(s, i),
                    im.stages[s]->spec.name + std::to_string(i));
    }
  }
  im.eng->run();
  if (im.eng->unfinished_tasks() != 0) {
    std::string who;
    for (const auto& n : im.eng->unfinished_task_names()) {
      if (!who.empty()) who += ", ";
      who += n;
    }
    throw std::logic_error("program deadlocked; unfinished: " + who);
  }

  ProgramStats out;
  out.makespan = im.eng->now() - t0;
  im.src_stats.name = im.src_name;
  out.stages.push_back(im.src_stats);
  for (const auto& st : im.stages) out.stages.push_back(st->stats);
  out.sink_output = std::move(im.sink_output);
  return out;
}

}  // namespace lmas::core
