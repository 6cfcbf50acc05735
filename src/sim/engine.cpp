#include "sim/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>
#include <stdexcept>

namespace lmas::sim {

namespace detail {

#if LMAS_FRAME_POOL
namespace {

// Frames are rounded up to 64-byte classes; larger ones go to malloc.
// The cache is not capped: an engine runs on one thread, so a thread's
// cache holds at most the frames its engines had live at once.
constexpr std::size_t kGranule = 64;
constexpr std::size_t kClasses = 64;  // up to 4 KiB

struct FreeFrame {
  FreeFrame* next;
};

// Trivially destructible on purpose: the cache stays readable after the
// thread's destructors ran (static Engines are destroyed after the main
// thread's thread_locals), and `retired` then routes frees to malloc.
struct FrameCache {
  FreeFrame* head[kClasses];
  bool drain_registered;
  bool retired;
};
constinit thread_local FrameCache tls_frames{};

void drain(FrameCache& c) noexcept {
  for (std::size_t k = 0; k < kClasses; ++k) {
    while (FreeFrame* f = c.head[k]) {
      c.head[k] = f->next;
      ::operator delete(f, (k + 1) * kGranule);
    }
  }
}

// Returns the thread's cached frames to the allocator at thread exit.
struct FrameCacheDrain {
  ~FrameCacheDrain() {
    drain(tls_frames);
    tls_frames.retired = true;
  }
};

void register_drain() {
  static thread_local FrameCacheDrain drain_at_exit;
  (void)drain_at_exit;
  tls_frames.drain_registered = true;
}

}  // namespace

void* frame_alloc(std::size_t bytes) {
  const std::size_t k = (bytes - 1) / kGranule;
  if (k >= kClasses) return ::operator new(bytes);
  FrameCache& c = tls_frames;
  if (FreeFrame* f = c.head[k]) {
    c.head[k] = f->next;
    return f;
  }
  return ::operator new((k + 1) * kGranule);
}

void frame_free(void* p, std::size_t bytes) noexcept {
  const std::size_t k = (bytes - 1) / kGranule;
  if (k >= kClasses) {
    ::operator delete(p, bytes);
    return;
  }
  const std::size_t size = (k + 1) * kGranule;
  FrameCache& c = tls_frames;
  if (c.retired) {
    ::operator delete(p, size);
    return;
  }
  if (!c.drain_registered) register_drain();
  auto* f = static_cast<FreeFrame*>(p);
  f->next = c.head[k];
  c.head[k] = f;
}
#else
void* frame_alloc(std::size_t bytes) { return ::operator new(bytes); }
void frame_free(void* p, std::size_t bytes) noexcept {
  ::operator delete(p, bytes);
}
#endif

void root_finished(Engine& eng, std::uint32_t slot, bool failed) noexcept {
  // The run loops check both after the resume returns, so a failure
  // latched here still stops the queue at the event that killed the root
  // instead of committing (and digesting) everything behind it.
  if (failed) {
    eng.root_failed_ = true;
  } else {
    eng.returned_roots_.push_back(slot);
  }
}

}  // namespace detail

Engine::Engine() {
  // Publish the event count and every registered MetricsSource only when
  // a snapshot asks; the run loop touches nothing but events_processed_.
  metrics_.add_collector([this] {
    auto& c = metrics_.counter("engine.events");
    c.inc(events_processed_ - c.value());
    // Lazily registered so runs whose traces fit the cap publish no
    // drop counter (the golden harness pins the metrics fingerprint).
    if (tracer_.dropped_events() > 0) {
      auto& d = metrics_.counter("trace.dropped_events");
      d.inc(tracer_.dropped_events() - d.value());
    }
    // Same lazy registration: a correctly modeled run never clamps, so
    // the counter must not perturb the pinned fingerprints.
    if (clamped_schedules_ > 0) {
      auto& cl = metrics_.counter("engine.clamped_schedules");
      cl.inc(clamped_schedules_ - cl.value());
    }
    for (MetricsSource* s = sources_; s != nullptr; s = s->next_) {
      s->publish_metrics(metrics_);
    }
  });
  engine_track_ = tracer_.track("engine");
  if constexpr (obs::kTraceCompiled) {
    if (const char* e = std::getenv("LMAS_TRACE")) {
      if (e[0] == '1') tracer_.enable();
    }
  }
}

void Engine::spawn(Task<> task, std::string name) {
  auto handle = task.handle();
  // Root tasks are never awaited: the promise reports its failure or its
  // return to the engine directly, naming its slot for the unlink.
  handle.promise().root_engine = this;
  handle.promise().root_slot = std::uint32_t(roots_.size());
  fold(fnv1a64(name));
  if (!name.empty() && tracer_.enabled()) {
    // Only traces consult the handle->name map, and enablement precedes
    // spawning in every traced flow (env at construction, config before
    // the run), so the map stays empty — and unmaintained — otherwise.
    named_roots_[handle.address()] = name;
    tracer_.instant(engine_track_, "spawn " + name, now_);
  }
  roots_.push_back({std::move(task), std::move(name)});
  schedule_at(handle, now_);
}

std::size_t Engine::run(SimTime until) {
  // The traced loop is kept out of line so the common path stays as tight
  // as the uninstrumented kernel (the tier-1 microbenches gate this).
  const std::size_t processed =
      tracer_.enabled() ? run_traced(until) : run_fast(until);
  events_processed_ += processed;
  rethrow_root_failure();
  return processed;
}

void Engine::rethrow_root_failure() const {
  // Spawn order makes the choice deterministic when several roots failed
  // in the same run (their failure order is replay-stable anyway, but the
  // scan must not depend on it).
  for (const auto& r : roots_) {
    if (r.task.valid() && r.task.exception()) {
      std::rethrow_exception(r.task.exception());
    }
  }
}

std::size_t Engine::run_fast(SimTime until) {
  std::size_t processed = 0;
  while (!events_.empty() && !root_failed_) {
    if (events_.top().t > until) break;
    const Event ev = events_.pop_min();
    // Sim-time sampling: park the clock on each period boundary the next
    // event is about to cross, so probes read backlog/state at exact
    // boundary instants. No events are scheduled or consumed — the
    // digest fold below sees the identical (t, seq) stream either way.
    if (sampler_ != nullptr) {
      while (sampler_->due(ev.t)) {
        now_ = sampler_->next_time();
        sampler_->sample(now_);
      }
    }
    now_ = ev.t;
    ++processed;
    fold(std::bit_cast<std::uint64_t>(ev.t) ^ std::rotl(ev.seq, 31));
    if (ev.h && !ev.h.done()) {
      ev.h.resume();
      if (!returned_roots_.empty()) reap_returned();
    }
  }
  return processed;
}

std::size_t Engine::run_traced(SimTime until) {
  std::size_t processed = 0;
  while (!events_.empty() && !root_failed_) {
    if (events_.top().t > until) break;
    const Event ev = events_.pop_min();
    if (sampler_ != nullptr) {  // see run_fast: digest-neutral by design
      while (sampler_->due(ev.t)) {
        now_ = sampler_->next_time();
        sampler_->sample(now_);
      }
    }
    now_ = ev.t;
    ++processed;
    fold(std::bit_cast<std::uint64_t>(ev.t) ^ std::rotl(ev.seq, 31));
    if (ev.h && !ev.h.done()) {
      // Bracket the resume of a *named* root so traces show which
      // process the nested resource spans belong to. (Anonymous events
      // would only add noise: one instant per queue pop.)
      const auto it = named_roots_.find(ev.h.address());
      const std::string* name =
          it == named_roots_.end() ? nullptr : &it->second;
      if (name) tracer_.begin(engine_track_, *name, now_);
      ev.h.resume();
      if (name) tracer_.end(engine_track_, *name, now_);
      if (!returned_roots_.empty()) reap_returned();
    }
  }
  return processed;
}

std::size_t Engine::unfinished_tasks() const noexcept {
  std::size_t n = 0;
  for (const auto& r : roots_) {
    if (r.task.valid() && !r.task.done()) ++n;
  }
  return n;
}

std::vector<std::string> Engine::unfinished_task_names() const {
  std::vector<std::string> out;
  for (const auto& r : roots_) {
    if (r.task.valid() && !r.task.done()) {
      out.push_back(r.name.empty() ? "<anonymous>" : r.name);
    }
  }
  return out;
}

void Engine::require_drained(std::string_view what) const {
  if (unfinished_tasks() == 0) return;
  std::string msg(what);
  msg += " deadlocked; unfinished: ";
  bool first = true;
  for (const auto& n : unfinished_task_names()) {
    if (!first) msg += ", ";
    msg += n;
    first = false;
  }
  throw std::logic_error(msg);
}

void Engine::free_root(std::size_t slot) {
  Root& r = roots_[slot];
  // The frame is about to be freed and its address recycled by a later
  // coroutine allocation; a stale entry here would label the newcomer
  // with the dead task's name in every trace.
  if (!named_roots_.empty()) named_roots_.erase(r.task.handle().address());
  Task<> frame = std::move(r.task);
  r.name = std::string();
  ++root_holes_;
  // `frame` is destroyed last: the by-value parameters it still holds may
  // run destructors that spawn, and a spawn can move roots_.
}

void Engine::reap_returned() {
  for (const std::uint32_t slot : returned_roots_) free_root(slot);
  returned_roots_.clear();
  // Compact once holes are the majority: amortized O(1) per reaped root,
  // and the table stays within twice the roots still held.
  if (root_holes_ >= 64 && 2 * root_holes_ >= roots_.size()) compact_roots();
}

void Engine::compact_roots() {
  std::erase_if(roots_, [](const Root& r) { return !r.task.valid(); });
  root_holes_ = 0;
  for (std::size_t i = 0; i < roots_.size(); ++i) {
    roots_[i].task.handle().promise().root_slot = std::uint32_t(i);
  }
}

void Engine::reap_completed() {
  reap_returned();  // clears returned_roots_ before slots are renumbered
  for (std::size_t i = 0; i < roots_.size(); ++i) {
    if (roots_[i].task.done()) free_root(i);
  }
  compact_roots();
  // Reaping a failed root is how a caller acknowledges the failure after
  // run() rethrew it; only the ones that fail later can latch it again.
  root_failed_ = false;
}

}  // namespace lmas::sim
