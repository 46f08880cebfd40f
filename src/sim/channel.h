// Channel<T>: the simulator's message queue / mailbox.
//
// Unbounded FIFO. Receivers suspend when empty; Send hands an item directly to
// the oldest pending receiver (scheduling its resumption at the current
// virtual time) or queues it. Close() wakes all receivers with nullopt;
// further Sends are dropped — this is how a crashed site's mailboxes behave.
//
// Receive returns std::optional<T>: nullopt means the channel was closed (or,
// for ReceiveTimeout, that the timeout elapsed first).
#ifndef SRC_SIM_CHANNEL_H_
#define SRC_SIM_CHANNEL_H_

#include <coroutine>
#include <memory>
#include <optional>

#include "src/base/logging.h"
#include "src/sim/fifo.h"
#include "src/sim/scheduler.h"

namespace camelot {

template <typename T>
class Channel {
 public:
  explicit Channel(Scheduler& sched) : sched_(&sched) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Destroying a channel with pending timed receivers must neutralize their
  // timer thunks (which hold a raw back-pointer): closing marks every waiter
  // non-pending, so a later timer firing returns without touching the dead
  // channel, and the receivers resume with nullopt.
  ~Channel() { Close(); }

  void Send(T item) {
    if (closed_) {
      return;  // Receiver is gone (site crashed); drop on the floor.
    }
    // Hand off to the oldest live waiter, if any.
    while (!waiters_.empty()) {
      std::shared_ptr<Waiter> waiter = waiters_.pop_front();
      if (waiter->state != WaiterState::kPending) {
        continue;  // Timed out; its resume is already scheduled.
      }
      waiter->state = WaiterState::kFilled;
      waiter->slot.emplace(std::move(item));
      sched_->Post(0, [h = waiter->handle] { h.resume(); });
      return;
    }
    items_.push_back(std::move(item));
    if (items_.size() > high_watermark_) {
      high_watermark_ = items_.size();
    }
  }

  // Wake every pending receiver with nullopt and drop queued items. Idempotent.
  void Close() {
    if (closed_) {
      return;
    }
    closed_ = true;
    items_.clear();
    for (auto& waiter : waiters_) {
      if (waiter->state == WaiterState::kPending) {
        waiter->state = WaiterState::kClosed;
        sched_->Post(0, [h = waiter->handle] { h.resume(); });
      }
    }
    waiters_.clear();
  }

  bool closed() const { return closed_; }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  // Deepest the queue of undelivered items has ever been (queue-health
  // instrumentation; never reset by Close).
  size_t high_watermark() const { return high_watermark_; }

  // co_await ch.Receive() -> std::optional<T> (nullopt iff closed).
  auto Receive() { return ReceiveAwaiter{this, -1, {}}; }

  // co_await ch.ReceiveTimeout(d) -> std::optional<T> (nullopt on close OR timeout).
  auto ReceiveTimeout(SimDuration timeout) { return ReceiveAwaiter{this, timeout, {}}; }

 private:
  enum class WaiterState { kPending, kFilled, kClosed, kTimedOut };

  struct Waiter {
    std::coroutine_handle<> handle;
    WaiterState state = WaiterState::kPending;
    std::optional<T> slot;
  };

  struct ReceiveAwaiter {
    Channel* ch;
    SimDuration timeout;  // < 0 means wait forever.
    // Shared so the timer thunk stays valid even after the awaiter resumes.
    std::shared_ptr<Waiter> waiter;

    bool await_ready() const { return !ch->items_.empty() || ch->closed_; }

    void await_suspend(std::coroutine_handle<> h) {
      waiter = std::make_shared<Waiter>();
      waiter->handle = h;
      ch->waiters_.push_back(waiter);
      if (timeout >= 0) {
        ch->sched_->Post(timeout, [w = waiter, channel = ch] {
          if (w->state != WaiterState::kPending) {
            return;  // Already filled or closed.
          }
          w->state = WaiterState::kTimedOut;
          channel->RemoveWaiter(w.get());
          w->handle.resume();
        });
      }
    }

    std::optional<T> await_resume() {
      if (waiter) {
        // We suspended: outcome is in the waiter node.
        if (waiter->state == WaiterState::kFilled) {
          return std::move(waiter->slot);
        }
        return std::nullopt;  // Closed or timed out.
      }
      // Fast path: never suspended.
      if (!ch->items_.empty()) {
        return ch->items_.pop_front();
      }
      return std::nullopt;  // Closed.
    }
  };

  void RemoveWaiter(const Waiter* w) {
    waiters_.erase_if([w](const std::shared_ptr<Waiter>& x) { return x.get() == w; });
  }

  Scheduler* sched_;
  Fifo<T> items_;
  Fifo<std::shared_ptr<Waiter>> waiters_;
  size_t high_watermark_ = 0;
  bool closed_ = false;
};

}  // namespace camelot

#endif  // SRC_SIM_CHANNEL_H_
