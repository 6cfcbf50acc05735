#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>

namespace lmas::sim {

template <typename T = void>
class Task;

class Engine;

namespace detail {

// The frame pool is compiled out under AddressSanitizer, which can only
// see a use-after-free of a frame whose memory really went back to it.
#if defined(__SANITIZE_ADDRESS__)
#define LMAS_FRAME_POOL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LMAS_FRAME_POOL 0
#endif
#endif
#ifndef LMAS_FRAME_POOL
#define LMAS_FRAME_POOL 1
#endif

/// Coroutine frame storage: a per-thread free list per size class, so the
/// steady churn of short-lived frames (one detached deliver() root per
/// packet, one child task per resource charge) recycles memory instead of
/// going to malloc each time. Engine-independent and safe across threads:
/// a frame freed on another thread joins that thread's cache. Defined in
/// engine.cpp; with LMAS_FRAME_POOL 0 both pass straight through to
/// ::operator new/delete.
[[nodiscard]] void* frame_alloc(std::size_t bytes);
void frame_free(void* p, std::size_t bytes) noexcept;

/// Engine hook for root tasks (engine.cpp), called at a root's final
/// suspend: a root that returned queues its slot to be unlinked and
/// freed; a root that threw latches the engine's failure flag.
void root_finished(Engine& eng, std::uint32_t slot, bool failed) noexcept;

/// Shared state for all task promises: completion continuation and
/// exception propagation. Tasks are lazily started (suspend at entry) so
/// the Engine or an awaiting parent decides when they first run.
struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  /// Set by Engine::spawn on root tasks only: the owning engine and the
  /// root's slot in its root table. Child tasks leave it null — their
  /// exceptions rethrow into the awaiting parent, and the parent's frame
  /// owns theirs.
  Engine* root_engine = nullptr;
  std::uint32_t root_slot = 0;

  static void* operator new(std::size_t bytes) { return frame_alloc(bytes); }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    frame_free(p, bytes);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) noexcept {
      PromiseBase& p = h.promise();
      if (p.continuation) return p.continuation;
      // Roots are never awaited, so they report to the engine: a returned
      // root's frame is freed once this resume unwinds; a failed root
      // stays linked so run() can rethrow its exception.
      if (p.root_engine != nullptr) {
        root_finished(*p.root_engine, p.root_slot, p.exception != nullptr);
      }
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept {
    exception = std::current_exception();
  }
};

template <typename T>
struct Promise : PromiseBase {
  T value{};
  Task<T> get_return_object() noexcept;
  void return_value(T v) noexcept(std::is_nothrow_move_assignable_v<T>) {
    value = std::move(v);
  }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object() noexcept;
  void return_void() const noexcept {}
};

}  // namespace detail

/// A lazily-started coroutine owned by its handle. Awaiting a Task starts
/// it via symmetric transfer; when it finishes, control returns to the
/// awaiter at the same virtual time. Root tasks are owned by the Engine,
/// which frees each one's frame as soon as it returns.
template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(Handle h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return bool(handle_); }
  [[nodiscard]] bool done() const noexcept { return handle_ && handle_.done(); }

  /// Release ownership of the underlying handle (Engine::spawn uses this).
  Handle release() noexcept { return std::exchange(handle_, {}); }
  Handle handle() const noexcept { return handle_; }

  /// Exception the coroutine exited with, if any. Awaited tasks rethrow
  /// through await_resume; root tasks are never awaited, so the Engine
  /// inspects this after its run loop — otherwise a throw inside a
  /// spawned process would vanish into the stored exception_ptr.
  [[nodiscard]] std::exception_ptr exception() const noexcept {
    return handle_ ? handle_.promise().exception : nullptr;
  }

  auto operator co_await() noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;  // start the child now, at the same virtual time
      }
      T await_resume() {
        if (h.promise().exception) {
          std::rethrow_exception(h.promise().exception);
        }
        if constexpr (!std::is_void_v<T>) {
          return std::move(h.promise().value);
        }
      }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }
  Handle handle_{};
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() noexcept {
  return Task<T>{std::coroutine_handle<Promise<T>>::from_promise(*this)};
}

inline Task<void> Promise<void>::get_return_object() noexcept {
  return Task<void>{std::coroutine_handle<Promise<void>>::from_promise(*this)};
}

}  // namespace detail

}  // namespace lmas::sim
