// Synchronization helpers for simulation coroutines: a FIFO mutex (models an
// exclusive resource such as the log disk arm), and fork/join over Async tasks
// (models "identical parallel operations" in the paper's protocol analysis).
#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <coroutine>
#include <deque>
#include <optional>
#include <vector>

#include "src/sim/channel.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"

namespace camelot {

// Exclusive, FIFO-fair simulated mutex. Not recursive (the paper notes that
// Camelot's spin locks could self-deadlock; ours simply must not be re-locked
// by the holder).
class SimMutex {
 public:
  explicit SimMutex(Scheduler& sched) : sched_(&sched) {}

  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  // co_await mu.Lock();  ...  mu.Unlock();
  auto Lock() {
    struct Awaiter {
      SimMutex* mu;
      bool await_ready() {
        if (!mu->held_) {
          mu->held_ = true;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { mu->waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  // Ownership passes directly to the next waiter, preserving FIFO order.
  void Unlock() {
    CAMELOT_CHECK(held_);
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sched_->Post(0, [h] { h.resume(); });
    } else {
      held_ = false;
    }
  }

  bool held() const { return held_; }
  size_t waiter_count() const { return waiters_.size(); }

 private:
  Scheduler* sched_;
  bool held_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

// Fork/join: run all tasks concurrently, return their results in input order.
namespace internal {

template <typename T>
Async<void> JoinRunner(Async<T> task, std::vector<std::optional<T>>* out, size_t index,
                       Channel<size_t>* done) {
  T value = co_await std::move(task);
  (*out)[index].emplace(std::move(value));
  done->Send(index);
}

}  // namespace internal

template <typename T>
Async<std::vector<T>> JoinAll(Scheduler& sched, std::vector<Async<T>> tasks) {
  const size_t n = tasks.size();
  std::vector<std::optional<T>> results(n);
  Channel<size_t> done(sched);
  for (size_t i = 0; i < n; ++i) {
    sched.Spawn(internal::JoinRunner(std::move(tasks[i]), &results, i, &done));
  }
  for (size_t i = 0; i < n; ++i) {
    co_await done.Receive();
  }
  std::vector<T> out;
  out.reserve(n);
  for (auto& r : results) {
    out.push_back(std::move(*r));
  }
  co_return out;
}

}  // namespace camelot

#endif  // SRC_SIM_SYNC_H_
