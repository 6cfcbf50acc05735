/// Microbenchmarks for the discrete-event simulation kernel: raw event
/// throughput bounds how large an emulated machine/workload is practical.
/// (The paper's emulator had the same concern: timing accuracy vs. the
/// cost of maintaining the global event queue.)

#include <benchmark/benchmark.h>

#include <cstdint>

#include "gbench_tee.hpp"

#include "sim/event_heap.hpp"
#include "sim/sim.hpp"

namespace sim = lmas::sim;

namespace {

sim::Task<> sleeper_chain(sim::Engine& eng, int hops) {
  for (int i = 0; i < hops; ++i) co_await eng.sleep(0.001);
}

void BM_EventQueueThroughput(benchmark::State& state) {
  const int tasks = int(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    for (int t = 0; t < tasks; ++t) eng.spawn(sleeper_chain(eng, 100));
    const auto events = eng.run();
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * tasks * 100);
}
BENCHMARK(BM_EventQueueThroughput)->Arg(10)->Arg(100)->Arg(1000);

sim::Task<> ping(sim::Engine&, sim::Channel<int>& tx, sim::Channel<int>& rx,
                 int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await tx.send(i);
    (void)co_await rx.recv();
  }
  tx.close();
}

sim::Task<> pong(sim::Engine&, sim::Channel<int>& rx, sim::Channel<int>& tx) {
  while (auto v = co_await rx.recv()) {
    co_await tx.send(*v);
  }
  tx.close();
}

void BM_ChannelPingPong(benchmark::State& state) {
  const int rounds = int(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    sim::Channel<int> a(eng), b(eng);
    eng.spawn(ping(eng, a, b, rounds));
    eng.spawn(pong(eng, a, b));
    eng.run();
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * rounds * 2);
}
BENCHMARK(BM_ChannelPingPong)->Arg(1000)->Arg(10000);

sim::Task<> resource_user(sim::Resource& res, int uses) {
  for (int i = 0; i < uses; ++i) co_await res.use(0.0001);
}

void BM_ResourceContention(benchmark::State& state) {
  const int users = int(state.range(0));
  constexpr int kUses = 200;
  for (auto _ : state) {
    sim::Engine eng;
    sim::Resource res(eng, "shared");
    for (int u = 0; u < users; ++u) eng.spawn(resource_user(res, kUses));
    eng.run();
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * users * kUses);
}
BENCHMARK(BM_ResourceContention)->Arg(2)->Arg(16)->Arg(128);

/// The engine's hot path in isolation: steady-state push+pop churn on the
/// four-ary event heap at a fixed pending-event depth. This is the
/// structure every simulated event flows through; items/sec here is the
/// hard ceiling on engine events/sec.
void BM_EventHeapChurn(benchmark::State& state) {
  struct Ev {
    double t;
    std::uint64_t seq;
  };
  struct Before {
    bool operator()(const Ev& a, const Ev& b) const noexcept {
      if (a.t != b.t) return a.t < b.t;
      return a.seq < b.seq;
    }
  };
  const std::size_t depth = std::size_t(state.range(0));
  sim::Rng rng(7);
  sim::FourAryHeap<Ev, Before> heap;
  heap.reserve(depth);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    heap.push(Ev{rng.uniform(0.0, 1.0), seq++});
  }
  double now = 0;
  for (auto _ : state) {
    const Ev ev = heap.pop_min();
    now = ev.t;
    // Re-arm like a sleeping process does: schedule a bit in the future.
    heap.push(Ev{now + rng.uniform(0.0, 0.01), seq++});
    benchmark::DoNotOptimize(heap);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_EventHeapChurn)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

/// End-to-end engine throughput in events/sec: the number every sweep's
/// events_per_sec artifact field should roughly track. A wide machine of
/// independent sleepers keeps the queue deep without channel or resource
/// overhead dominating.
void BM_EngineEventsPerSec(benchmark::State& state) {
  const int tasks = int(state.range(0));
  constexpr int kHops = 64;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine eng;
    for (int t = 0; t < tasks; ++t) eng.spawn(sleeper_chain(eng, kHops));
    events += eng.run();
  }
  state.SetItemsProcessed(std::int64_t(events));
  state.counters["events_per_sec"] = benchmark::Counter(
      double(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineEventsPerSec)->Arg(256)->Arg(4096)->Arg(32768);

/// Sharded-engine throughput on a PHOLD-style topology: mostly-local
/// event churn with a few percent cross-node hops (delay >= lookahead =
/// the MachineParams default link latency, 50us), the regime the
/// conservative window design targets. Args are {nodes, shards};
/// shards=1 is the serial fast path, and BM_EngineEventsPerSec above is
/// the serial coroutine-engine baseline the speedup claim compares
/// against. Sharding wins twice: worker threads process shards in
/// parallel, and each shard's event heap is nodes/shards deep, so every
/// pop sifts through fewer levels — which is why shards well beyond the
/// worker count keep helping. UseRealTime makes events_per_sec an
/// honest wall-clock aggregate (the default CPU-time rate only meters
/// the coordinating thread, which sleeps while workers run).
void BM_ShardedEventsPerSec(benchmark::State& state) {
  const auto nodes = std::uint32_t(state.range(0));
  const auto shards = std::uint32_t(state.range(1));
  constexpr double kLookahead = 50e-6;
  const auto handler = [](sim::ShardContext& ctx, const sim::ShardEvent& ev) {
    if ((ev.payload & 0x1F) == 0) {  // ~3% of events hop to another node
      sim::Rng& rng = ctx.rng();
      const std::uint32_t n = ctx.engine().node_count();
      auto dst = sim::LogicalNode(rng.below(n));
      if (dst == ctx.node()) dst = (dst + 1) % n;
      ctx.send(dst, kLookahead * (1.0 + rng.uniform()), ev.payload + 1);
    } else {
      ctx.post(1.1e-6, ev.payload + 1);
    }
  };
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::ShardedEngine eng(nodes, {.shards = shards, .lookahead = kLookahead},
                           handler);
    for (std::uint32_t n = 0; n < nodes; ++n) {
      eng.inject(n, n, 1e-9 * double(n), n);
    }
    events += eng.run(2e-3);
    benchmark::DoNotOptimize(eng.digest());
  }
  state.SetItemsProcessed(std::int64_t(events));
  state.counters["events_per_sec"] =
      benchmark::Counter(double(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShardedEventsPerSec)
    ->Args({256, 1})
    ->Args({256, 32})
    ->Args({1024, 1})
    ->Args({1024, 32})
    ->Args({1024, 128})
    ->UseRealTime();

sim::Task<> detached_hop(sim::Engine& eng) { co_await eng.sleep(0.001); }

sim::Task<> churn_spawner(sim::Engine& eng, int roots) {
  for (int i = 0; i < roots; ++i) {
    eng.spawn(detached_hop(eng));
    co_await eng.sleep(0.0001);  // ~10 detached roots in flight
  }
}

/// Root lifecycle under the packet pipeline's pattern: one long-lived
/// producer spawning a short detached root per item (StageOutput spawns
/// one deliver() per packet). roots_per_sec meters spawn + complete +
/// free; roots_retained is what the engine still holds once run()
/// returns, which must be 0 — a returned root frees its own frame.
void BM_SpawnChurn(benchmark::State& state) {
  const int roots = int(state.range(0));
  std::size_t retained = 0;
  for (auto _ : state) {
    sim::Engine eng;
    eng.spawn(churn_spawner(eng, roots));
    eng.run();
    retained = eng.retained_roots();
  }
  state.counters["roots_per_sec"] = benchmark::Counter(
      double(state.iterations()) * roots, benchmark::Counter::kIsRate);
  state.counters["roots_retained"] = double(retained);
}
BENCHMARK(BM_SpawnChurn)->Arg(1000)->Arg(100000);

void BM_RngThroughput(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_RngThroughput);

}  // namespace

int main(int argc, char** argv) {
  return lmas::benchio::run_with_artifact(argc, argv, "micro_sim");
}
