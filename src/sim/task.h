// Async<T>: a lazily-started coroutine task for the discrete-event simulator.
//
// An Async<T> does nothing until awaited; awaiting starts it and suspends the
// awaiter until the task completes (symmetric transfer, no stack growth).
// Root tasks are launched with Scheduler::Spawn, which owns the frame and
// frees it on completion.
//
// Frames come from a per-host-thread SlabPool (AllocateFrame / FreeFrame in
// scheduler.cc), not from the global allocator: a simulation starts and
// finishes a coroutine for nearly every message, lock and log force, and a
// warm pool serves each of those frames without a malloc.
//
// The simulator is strictly single-threaded, so no synchronization appears
// anywhere in this file.
#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

namespace camelot {

template <typename T>
class Async;

// Coroutine frame storage from the calling thread's frame pool. A frame may
// be freed on another thread than the one that allocated it; it then joins
// that thread's pool.
void* AllocateFrame(size_t size);
void FreeFrame(void* frame, size_t size);

// Promise storage: value case and void case.
template <typename T>
struct AsyncPromiseStorage {
  std::optional<T> value;
  void return_value(T v) { value.emplace(std::move(v)); }
  T Take() { return std::move(*value); }
};

template <>
struct AsyncPromiseStorage<void> {
  void return_void() {}
  void Take() {}
};

template <typename T>
struct AsyncPromise : AsyncPromiseStorage<T> {
  std::coroutine_handle<> continuation;

  static void* operator new(size_t size) { return AllocateFrame(size); }
  static void operator delete(void* frame, size_t size) { FreeFrame(frame, size); }

  Async<T> get_return_object();

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<AsyncPromise> h) noexcept {
      // Resume whoever awaited us; if nobody did (detached root), finish here.
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { std::terminate(); }
};

// A lazily-started simulation task yielding a T.
template <typename T = void>
class Async {
 public:
  using promise_type = AsyncPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Async() = default;
  explicit Async(Handle h) : handle_(h) {}

  Async(Async&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Async& operator=(Async&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Async(const Async&) = delete;
  Async& operator=(const Async&) = delete;

  ~Async() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  // Awaiting starts the task and resumes the awaiter when it finishes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;  // Symmetric transfer: start the child now.
      }
      T await_resume() { return handle.promise().Take(); }
    };
    return Awaiter{handle_};
  }

  // Used by Scheduler::Spawn; transfers frame ownership to the caller.
  Handle Release() { return std::exchange(handle_, {}); }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

template <typename T>
Async<T> AsyncPromise<T>::get_return_object() {
  return Async<T>(std::coroutine_handle<AsyncPromise<T>>::from_promise(*this));
}

}  // namespace camelot

#endif  // SRC_SIM_TASK_H_
