#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "asu/network.hpp"
#include "asu/node.hpp"
#include "core/packet.hpp"
#include "core/packet_pool.hpp"
#include "core/routing.hpp"
#include "sim/channel.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace lmas::core {

/// Declared execution cost of a functor, in host-seconds. Bounded,
/// statically known per-record cost is what makes functors safe to place
/// on shared ASUs and lets the load manager predict placement effects
/// (Section 3.1).
struct FunctorCost {
  double per_record = 0;
  double per_packet = 0;

  [[nodiscard]] double packet_cost(std::size_t records) const noexcept {
    return per_packet + per_record * double(records);
  }
};

/// One instance of a (possibly replicated) downstream functor: its inbox
/// and the node it is pinned to. A null channel marks a REMOTE instance —
/// one owned by another simulation shard (sim::ShardedEngine, DESIGN.md
/// §14): it has no local inbox, is never offered to the router, and its
/// packets leave the engine through StageOutput::set_remote_sink.
struct Endpoint {
  sim::Channel<Packet>* ch = nullptr;
  asu::Node* node = nullptr;

  [[nodiscard]] bool remote() const noexcept { return ch == nullptr; }
};

/// Everything that shapes one outbound stage, as an options struct so
/// construction sites read as configuration, not as a seven-positional
/// argument puzzle. Designated-initializer friendly:
///
///   StageOutput out(eng, net, {.record_bytes = mp.record_bytes,
///                              .endpoints = inboxes.endpoints(nodes),
///                              .router = make_router({.kind = ...}),
///                              .producers = 4,
///                              .name = "to_sort"});
///
/// Fields not named fall back to the defaults below. The struct is
/// move-only (it carries the routing policy) and is consumed by the
/// StageOutput constructor.
struct StageSpec {
  /// Modeled on-the-wire size of one record (transfer charging).
  std::size_t record_bytes = 0;

  /// Downstream instances: one inbox + pinned node per replica.
  std::vector<Endpoint> endpoints;

  /// Routing policy across the replicas (required).
  std::unique_ptr<RoutingPolicy> router;

  /// Number of upstream producers that will call producer_done().
  /// Must be >= 1: the in-flight window is per-producer, so zero
  /// producers would grant a zero window and the first emit would block
  /// forever. StageOutput validates this at construction. The default
  /// stays 0 so forgetting the field is a loud construction-time error,
  /// not a silently single-producer stage.
  unsigned producers = 0;

  /// In-flight packet window granted per producer (backpressure bound).
  std::size_t window_per_producer = 32;

  /// Metric/trace prefix for this stage's instruments.
  std::string name = "stage";

  /// Fair-share charge scaling for this stage's transfers (multi-tenant
  /// serving): a tenant with fair-share weight w is charged at 1/w for
  /// NIC serialization and link occupancy, approximating a weighted
  /// share of the wire. 1.0 (the default) multiplies exactly, so
  /// single-tenant stages stay bit-identical to the unscaled path.
  double charge_scale = 1.0;

  /// Distribution-level telemetry: registers `<name>.delivery_seconds`
  /// (emit → consumer-inbox arrival) and `<name>.queue_wait_seconds`
  /// (inbox arrival → consumption, via consumed()) latency histograms
  /// and stamps packet timestamps. Off by default: the pinned golden
  /// metrics fingerprints require that no instruments appear unless a
  /// run opts in.
  bool telemetry = false;
};

/// The outbound side of a functor stage: routes packets across the
/// replicated instances of the next stage, charging network transfer
/// between nodes. Producers must call producer_done(); when the last
/// producer finishes and the last in-flight packet lands, all downstream
/// inboxes are closed.
///
/// Sends are windowed-asynchronous: the sender is occupied only for its
/// own NIC serialization, while link occupancy, propagation latency and
/// receiver-side NIC time play out in flight (DMA-style). A bounded
/// in-flight window keeps memory finite and re-imposes backpressure when
/// the receiver or the wire is the bottleneck.
class StageOutput {
 public:
  StageOutput(sim::Engine& eng, asu::Network& net, StageSpec spec)
      : eng_(&eng),
        net_(&net),
        record_bytes_(spec.record_bytes),
        endpoints_(std::move(spec.endpoints)),
        router_(std::move(spec.router)),
        producers_left_(spec.producers),
        window_(std::max<std::size_t>(1, spec.window_per_producer) *
                spec.producers),
        charge_scale_(spec.charge_scale),
        slot_free_(eng),
        drained_(eng),
        name_(std::move(spec.name)) {
    // producers == 0 would make window_ zero and the first emit_to spin
    // on `inflight_ >= window_` forever; catch the misconfiguration here.
    // A throw, not an assert: the default build defines NDEBUG, where an
    // assert-only guard degrades back into the silent hang.
    if (spec.producers == 0) {
      throw std::invalid_argument("StageOutput '" + name_ +
                                  "': StageSpec.producers must be >= 1 "
                                  "(the in-flight window is per-producer)");
    }
    targets_.reserve(endpoints_.size());
    for (const auto& ep : endpoints_) targets_.push_back({ep.node});
    // Per-channel instruments: total traffic, batch-size shape, and one
    // counter per downstream instance (= packets routed per choice).
    auto& reg = eng.metrics();
    packets_counter_ = &reg.counter(name_ + ".packets");
    records_counter_ = &reg.counter(name_ + ".records");
    bytes_counter_ = &reg.counter(name_ + ".bytes");
    batch_hist_ = &reg.histogram(name_ + ".packet_records",
                                 {16, 64, 256, 1024, 4096});
    routed_.reserve(endpoints_.size());
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      routed_.push_back(
          &reg.counter(name_ + ".routed." + std::to_string(i)));
    }
    if (spec.telemetry) {
      delivery_hist_ = &reg.latency(name_ + ".delivery_seconds");
      queue_wait_hist_ = &reg.latency(name_ + ".queue_wait_seconds");
    }
    track_ = eng.tracer().track(name_);
  }

  StageOutput(const StageOutput&) = delete;
  StageOutput& operator=(const StageOutput&) = delete;

  [[nodiscard]] std::size_t target_count() const noexcept {
    return endpoints_.size();
  }
  [[nodiscard]] asu::Node& target_node(std::size_t i) {
    return *endpoints_.at(i).node;
  }

  /// Cross-shard delivery hook (sim::ShardedEngine integration): called
  /// with (instance index, arrival sim-time, packet) when a packet is
  /// emitted to a remote endpoint. The sender side of the transfer — its
  /// NIC serialization and the wire propagation latency — is charged in
  /// THIS engine before the sink fires; receiver-side charging (NIC,
  /// inbox backpressure) belongs to the shard that owns the instance and
  /// happens when it applies the message at a window boundary. Remote
  /// endpoints are reachable via emit_to only: routing policies need
  /// receiver-local load state this shard cannot see, so the router's
  /// active set never includes them.
  using RemoteSink = std::function<void(std::size_t, double, Packet&&)>;
  void set_remote_sink(RemoteSink sink) { remote_sink_ = std::move(sink); }

  /// Re-pin an instance's inbox to a new node (functor migration):
  /// subsequent transfers are charged to the new location. Packets
  /// already in flight complete against the old accounting.
  void set_target_node(std::size_t i, asu::Node& node) {
    endpoints_.at(i).node = &node;
    targets_.at(i).node = &node;
    targets_dirty_ = true;
  }

  /// Degraded-mode delivery contract (see fault::FaultPlan): how long an
  /// in-flight packet waits before re-entering the router when its target
  /// crashes under it, and how many re-routes it attempts before parking
  /// until that replica recovers.
  void set_fault_retry(double timeout, std::size_t max_retries) {
    assert(timeout > 0);
    retry_timeout_ = timeout;
    max_retries_ = max_retries;
  }
  [[nodiscard]] std::uint64_t packets_sent() const noexcept {
    return packets_sent_;
  }
  [[nodiscard]] std::uint64_t records_sent() const noexcept {
    return records_sent_;
  }

  /// Record-buffer recycler for this stage's traffic: producers acquire
  /// staging buffers here and the consumers on the other end of the
  /// channel release spent ones back, closing the allocation loop.
  /// Same-engine (single-thread) use only — see PacketPool.
  [[nodiscard]] PacketPool& pool() noexcept { return pool_; }

  /// Route `p` with this stage's policy, pay the transfer, deliver.
  /// Routing sees only instances whose node is currently running
  /// (Section 3.3: the target set of a set-typed functor shrinks and
  /// grows); if every replica is down the sender parks on the health
  /// board until one recovers.
  [[nodiscard]] sim::Task<> emit(asu::Node& from, Packet p) {
    refresh_active();
    while (active_.empty()) {
      // Without a health board there is no recovery signal to park on:
      // waiting would be an unbounded spin through the event queue. This
      // must stay a throw, not an assert — under NDEBUG an assert-only
      // guard degrades into a silent infinite loop.
      if (net_->health_board() == nullptr) {
        throw std::logic_error(
            "StageOutput '" + name_ +
            "': every target is down and the network has no health board "
            "to wait on");
      }
      co_await net_->health_board()->wait();
      refresh_active();
    }
    const std::size_t idx = active_index_[router_->pick(p, active_)];
    co_await emit_to(idx, from, std::move(p));
  }

  /// Deliver to an explicit instance (ordered streams pin their route).
  [[nodiscard]] sim::Task<> emit_to(std::size_t idx, asu::Node& from,
                                    Packet p) {
    // Fail at the emit site, not in the spawned deliver() task: the
    // producer coroutine holds the context a debugger needs.
    if (endpoints_.at(idx).remote() && !remote_sink_) {
      throw std::logic_error("StageOutput '" + name_ +
                             "': emit_to targeted a remote endpoint but no "
                             "remote sink is installed (set_remote_sink)");
    }
    while (inflight_ >= window_) {
      co_await slot_free_.wait();
    }
    ++inflight_;
    ++packets_sent_;
    records_sent_ += p.records.size();
    const std::size_t bytes = p.wire_bytes(record_bytes_);
    packets_counter_->inc();
    records_counter_->inc(p.records.size());
    bytes_counter_->inc(bytes);
    batch_hist_->observe(double(p.records.size()));
    routed_[idx]->inc();
    if (delivery_hist_ != nullptr) p.t_emit = eng_->now();
    if (eng_->tracer().enabled()) {
      // Open (or continue) the packet's causal flow lane. Packets that
      // already carry a flow id — e.g. re-emitted after a retry — keep
      // it; fresh packets get a new id, parented to whatever upstream
      // flow fed them (parent_id set by the producer, 0 = root).
      if (p.trace_id == 0) p.trace_id = eng_->next_trace_id();
      eng_->tracer().flow_begin(track_,
                                "pkt s" + std::to_string(p.subset) + "->" +
                                    std::to_string(idx),
                                eng_->now(), p.trace_id, p.parent_id);
    }
    // Sender occupancy: its own NIC only.
    co_await from.nic_transfer(bytes, charge_scale_);
    eng_->spawn(deliver(idx, &from, std::move(p), bytes));
  }

  void producer_done() {
    assert(producers_left_ > 0);
    if (--producers_left_ == 0) {
      eng_->spawn(close_when_drained());
    }
  }

  /// Consumer-side bookkeeping: call once per packet received from this
  /// stage's inboxes, as close to the recv as possible. Closes the
  /// packet's queue-wait measurement (inbox arrival → here, including
  /// any time the channel was full) and terminates its causal flow lane
  /// on the consumer's track. Free when telemetry and tracing are off.
  void consumed(const Packet& p, std::uint32_t consumer_track) {
    if (queue_wait_hist_ != nullptr) {
      queue_wait_hist_->observe(eng_->now() - p.t_enqueue);
    }
    if (p.trace_id != 0 && eng_->tracer().enabled()) {
      eng_->tracer().flow_end(consumer_track,
                              "consume s" + std::to_string(p.subset),
                              eng_->now(), p.trace_id);
    }
  }

 private:
  /// Rebuild the healthy target subset when the cluster health epoch (or
  /// a migration) changed. Fault-free cost per emit: one integer compare.
  void refresh_active() {
    const asu::HealthBoard* board = net_->health_board();
    const std::uint64_t epoch = board ? board->epoch() : 1;
    if (!targets_dirty_ && epoch == seen_epoch_) return;
    seen_epoch_ = epoch;
    targets_dirty_ = false;
    active_.clear();
    active_index_.clear();
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      // Remote instances never enter the active set (emit_to-only).
      if (endpoints_[i].remote()) continue;
      if (targets_[i].node->running()) {
        active_.push_back(targets_[i]);
        active_index_.push_back(i);
      }
    }
  }

  /// Lazily registered so fault-free runs publish no fault metrics (the
  /// golden harness pins the metrics fingerprint).
  obs::Counter& fault_retries() {
    if (!retries_counter_) {
      retries_counter_ = &eng_->metrics().counter(name_ + ".fault_retries");
    }
    return *retries_counter_;
  }

  [[nodiscard]] sim::Task<> deliver(std::size_t idx, asu::Node* from,
                                    Packet p, std::size_t bytes) {
    if (endpoints_[idx].remote()) {
      // The packet leaves this engine: sender NIC was charged in emit_to,
      // the wire latency elapses here, and the sink takes ownership.
      // Delivery/queue-wait telemetry is the receiving shard's to
      // measure — it sees the inbox this shard does not have.
      co_await eng_->sleep(net_->sample_latency());
      if (p.trace_id != 0 && eng_->tracer().enabled()) {
        eng_->tracer().flow_step(track_, "remote i" + std::to_string(idx),
                                 eng_->now(), p.trace_id);
      }
      remote_sink_(idx, eng_->now(), std::move(p));
      --inflight_;
      slot_free_.notify_one();
      if (inflight_ == 0) drained_.notify_all();
      co_return;
    }
    std::size_t tries = 0;
    for (;;) {
      Endpoint& ep = endpoints_[idx];
      if (from != ep.node) {
        if (from->is_asu() != ep.node->is_asu()) {
          co_await net_->link(*from, *ep.node)
              .use(charge_scale_ * double(bytes) / link_bandwidth());
        }
        // Cross-rack hop on a hierarchical topology: occupy both racks'
        // oversubscribed spine uplinks and pay the spine tier's latency,
        // mirroring Network::transfer. Flat topologies take neither
        // branch nor any extra charge (pinned goldens are all flat).
        const asu::TopologySpec& topo = net_->topology();
        if (topo.hierarchical()) {
          const unsigned ra = net_->rack_of(*from);
          const unsigned rb = net_->rack_of(*ep.node);
          if (ra != rb) {
            co_await net_->spine(ra).use(charge_scale_ *
                                         topo.spine.seconds(bytes));
            co_await net_->spine(rb).use(charge_scale_ *
                                         topo.spine.seconds(bytes));
            co_await eng_->sleep(topo.spine.latency);
          }
        }
        co_await eng_->sleep(net_->sample_latency());
        co_await ep.node->nic_transfer(bytes, charge_scale_);
      }
      if (ep.node->running()) break;
      // The receiver crashed while this packet was in flight. Retry with
      // timeout: wait, then re-enter the router over the healthy actives
      // and physically move the packet there (transfer is re-paid). After
      // max_retries_ park until *this* replica recovers — the packet is
      // owned either way, never dropped, so record conservation holds.
      if (tries < max_retries_) {
        ++tries;
        fault_retries().inc();
        if (p.trace_id != 0 && eng_->tracer().enabled()) {
          eng_->tracer().flow_step(track_, "retry i" + std::to_string(idx),
                                   eng_->now(), p.trace_id);
        }
        co_await eng_->sleep(retry_timeout_);
        refresh_active();
        if (!active_.empty()) {
          idx = active_index_[router_->pick(p, active_)];
        }
      } else {
        if (p.trace_id != 0 && eng_->tracer().enabled()) {
          eng_->tracer().flow_step(track_, "park i" + std::to_string(idx),
                                   eng_->now(), p.trace_id);
        }
        while (!ep.node->running()) co_await ep.node->health_wait();
      }
    }
    if (delivery_hist_ != nullptr) {
      // Arrival at the inbox boundary. Queue wait (measured at
      // consumed()) starts here, so time blocked on a full channel
      // counts as queueing, not delivery — backpressure is a property
      // of the consumer side.
      p.t_enqueue = eng_->now();
      delivery_hist_->observe(p.t_enqueue - p.t_emit);
    }
    if (p.trace_id != 0 && eng_->tracer().enabled()) {
      eng_->tracer().flow_step(track_, "deliver i" + std::to_string(idx),
                               eng_->now(), p.trace_id);
    }
    // A failed send means the inbox closed with this packet in flight —
    // the records are gone and conservation is silently broken for
    // whoever closed early. Surface it: deliver() runs as a spawned root
    // task, so the throw lands in Engine::run()'s root-failure check.
    const bool delivered = co_await endpoints_[idx].ch->send(std::move(p));
    if (!delivered) {
      throw std::logic_error(
          "StageOutput '" + name_ +
          "': packet dropped — target inbox closed while the packet was "
          "in flight (close the stage via producer_done/close_when_drained"
          ", not by closing inboxes directly)");
    }
    --inflight_;
    slot_free_.notify_one();
    if (inflight_ == 0) drained_.notify_all();
  }

  [[nodiscard]] sim::Task<> close_when_drained() {
    while (inflight_ > 0) {
      co_await drained_.wait();
    }
    // Remote instances have no local inbox to close; their stream
    // termination is coordinated by whoever owns the remote sink.
    for (auto& ep : endpoints_) {
      if (!ep.remote()) ep.ch->close();
    }
  }

  [[nodiscard]] double link_bandwidth() const noexcept {
    return net_->params().link_bandwidth;
  }

  sim::Engine* eng_;
  asu::Network* net_;
  std::size_t record_bytes_;
  std::vector<Endpoint> endpoints_;
  std::vector<RouteTarget> targets_;
  std::vector<RouteTarget> active_;
  std::vector<std::size_t> active_index_;
  std::uint64_t seen_epoch_ = 0;  ///< 0 forces the first refresh
  bool targets_dirty_ = false;
  double retry_timeout_ = 1e-3;
  std::size_t max_retries_ = 8;
  std::unique_ptr<RoutingPolicy> router_;
  unsigned producers_left_;
  std::size_t window_;
  double charge_scale_ = 1.0;
  std::size_t inflight_ = 0;
  sim::Condition slot_free_;
  sim::Condition drained_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t records_sent_ = 0;
  PacketPool pool_;
  std::string name_;
  obs::Counter* packets_counter_ = nullptr;
  obs::Counter* records_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Histogram* batch_hist_ = nullptr;
  obs::LatencyHistogram* delivery_hist_ = nullptr;
  obs::LatencyHistogram* queue_wait_hist_ = nullptr;
  obs::Counter* retries_counter_ = nullptr;
  RemoteSink remote_sink_;
  std::vector<obs::Counter*> routed_;
  std::uint32_t track_ = 0;
};

/// Inboxes for one stage: one bounded channel per instance. Bounded
/// capacity gives backpressure, modeling the bounded buffers that the
/// model requires of ASU-resident functors.
class StageInboxes {
 public:
  StageInboxes(sim::Engine& eng, std::size_t instances,
               std::size_t capacity_packets = 8) {
    chans_.reserve(instances);
    for (std::size_t i = 0; i < instances; ++i) {
      chans_.push_back(
          std::make_unique<sim::Channel<Packet>>(eng, capacity_packets));
    }
  }

  [[nodiscard]] sim::Channel<Packet>& inbox(std::size_t i) {
    return *chans_.at(i);
  }
  [[nodiscard]] std::size_t size() const noexcept { return chans_.size(); }

  /// Build the endpoint list for a StageOutput feeding these inboxes.
  [[nodiscard]] std::vector<Endpoint> endpoints(
      const std::vector<asu::Node*>& nodes) {
    assert(nodes.size() == chans_.size());
    std::vector<Endpoint> eps;
    eps.reserve(chans_.size());
    for (std::size_t i = 0; i < chans_.size(); ++i) {
      eps.push_back({chans_[i].get(), nodes[i]});
    }
    return eps;
  }

 private:
  std::vector<std::unique_ptr<sim::Channel<Packet>>> chans_;
};

}  // namespace lmas::core
