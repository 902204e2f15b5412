// Coroutine task type for simulated GPU kernels.
//
// A kernel is a C++20 coroutine executed per wavefront. Device operations
// (loads, stores, atomics, compute bursts — see wave.h) are awaitables
// that advance the wave's simulated clock and suspend until the
// discrete-event engine resumes the wave at the operation's completion
// time. Kernels compose: a kernel may `co_await` a sub-kernel (e.g. a
// queue operation), with completion propagated by symmetric transfer.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>

#include "sim/frame_pool.h"

namespace simt {

class Wave;

namespace detail {

inline thread_local std::uint64_t tls_frames_created = 0;

struct PromiseBase {
  // Counted here rather than in operator new: see frames_created().
  PromiseBase() noexcept { ++tls_frames_created; }

  // Set on the top-level kernel of a wave; used to notify the engine.
  Wave* wave = nullptr;
  // Parent coroutine awaiting this kernel (nested kernels only).
  std::coroutine_handle<> continuation{};
  std::exception_ptr error{};

  std::suspend_always initial_suspend() noexcept { return {}; }
  void unhandled_exception() { error = std::current_exception(); }

  // Kernel frames allocate constantly (every queue op a wave co_awaits
  // is a nested kernel) and are uniform in size, so they recycle
  // through the thread-local pool instead of global malloc/free.
  static void* operator new(std::size_t bytes) {
    return frame_allocate(bytes);
  }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    frame_deallocate(p, bytes);
  }
};

// Declared in wave.cc — marks the wave's top-level kernel finished.
void notify_wave_complete(Wave& wave);

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    PromiseBase& p = h.promise();
    if (p.continuation) return p.continuation;
    if (p.wave != nullptr) notify_wave_complete(*p.wave);
    return std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

// The promise's return slot: the one part of Kernel<T> that depends on T.
template <typename T>
struct ReturnSlot {
  T value{};
  void return_value(T v) { value = std::move(v); }
  T take() { return std::move(value); }
};
template <>
struct ReturnSlot<void> {
  void return_void() {}
  void take() {}
};

}  // namespace detail

// Coroutine frames this thread has created, counted where each promise
// is constructed, so a compiler that elides a frame's heap allocation
// cannot change the count. The schedule fixes it exactly; bench/
// sim_throughput pins it.
[[nodiscard]] inline std::uint64_t frames_created() {
  return detail::tls_frames_created;
}

// Kernel<T>: coroutine returning T; Kernel<> (void) for procedures.
template <typename T = void>
class [[nodiscard]] Kernel {
 public:
  struct promise_type : detail::PromiseBase, detail::ReturnSlot<T> {
    Kernel get_return_object() {
      return Kernel{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    detail::FinalAwaiter final_suspend() noexcept { return {}; }
  };

  Kernel() = default;
  Kernel(Kernel&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Kernel& operator=(Kernel&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;
  ~Kernel() { destroy(); }

  // Awaiting a kernel starts it (symmetric transfer) and yields its value.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        h.promise().continuation = parent;
        return h;
      }
      T await_resume() {
        if (h.promise().error) std::rethrow_exception(h.promise().error);
        return h.promise().take();
      }
    };
    return Awaiter{h_};
  }

  [[nodiscard]] std::coroutine_handle<promise_type> handle() const { return h_; }
  [[nodiscard]] std::coroutine_handle<promise_type> release() {
    return std::exchange(h_, {});
  }

 private:
  explicit Kernel(std::coroutine_handle<promise_type> h) : h_(h) {}
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  std::coroutine_handle<promise_type> h_{};
};

}  // namespace simt
