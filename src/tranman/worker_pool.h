// The transaction manager's thread pool (paper, Section 3.4).
//
// Camelot's TranMan keeps a pool of threads; no thread is tied to a function
// or transaction — "every thread waits for any type of input, processes the
// input, and resumes waiting". We model exactly that queueing behaviour: each
// protocol event (client call, server upcall, incoming datagram) must pass
// through Run(), which occupies one worker for the event's CPU burst. Long
// synchronous operations (log forces, network waits) happen OUTSIDE the pool,
// just as a Camelot thread is free while another thread's log force is in
// progress.
//
// Admission comes in two classes. Completion work — votes, outcomes, acks,
// the forces that finish an already-admitted transaction — goes through
// Run()/Acquire() and is never shed: dropping it would stall the commit
// protocols and hold locks longer, making overload worse. New work (begins,
// incoming prepares) goes through Admit(), which is bounded: when the queue
// is full the event is rejected immediately (kOverloaded fast-reject), and
// work whose client deadline has already passed is shed at grant time,
// before it occupies a worker. The queue discipline under overload is
// pluggable: FIFO, LIFO (newest-first, so fresh requests that can still meet
// their deadlines run ahead of a stale backlog), or deadline-aware drop
// (evict the queued entry closest to expiry to admit a newcomer with more
// slack).
#ifndef SRC_TRANMAN_WORKER_POOL_H_
#define SRC_TRANMAN_WORKER_POOL_H_

#include <coroutine>
#include <deque>
#include <memory>

#include "src/base/logging.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/stats/summary.h"

namespace camelot {

// Queue discipline applied to the bounded Admit() queue under overload.
enum class AdmissionPolicy {
  kFifo,          // Oldest first; newcomers rejected when full.
  kLifo,          // Newest first; newcomers rejected when full.
  kDeadlineDrop,  // FIFO grant order, but when full evict the queued entry
                  // nearest its deadline if the newcomer has more slack.
};

// Outcome of a bounded admission attempt.
enum class Admission {
  kRun,       // Ran to completion on a worker.
  kRejected,  // Queue full at arrival (or evicted to admit a later event).
  kExpired,   // Deadline passed before a worker was granted; shed unrun.
};

class WorkerPool {
 public:
  WorkerPool(Scheduler& sched, size_t workers) : sched_(sched), workers_(workers) {}

  // Occupies one worker for `cpu` of virtual time (FIFO admission, never
  // shed). Protocol-completion work uses this.
  Async<void> Run(SimDuration cpu) {
    co_await Acquire();
    if (cpu > 0) {
      co_await sched_.Delay(cpu);
    }
    Release();
  }

  // Bounded admission for NEW work. Returns kRejected without queueing when
  // the admission queue is at its limit (under kDeadlineDrop, an expiring
  // queued entry may be evicted instead), and kExpired — without ever
  // occupying a worker — when `deadline` (virtual time, 0 = none) passes
  // while queued. Only on kRun did the event consume `cpu` on a worker.
  Async<Admission> Admit(SimDuration cpu, SimTime deadline = 0) {
    ++events_;
    if (deadline > 0 && sched_.now() > deadline) {
      ++shed_expired_;
      co_return Admission::kExpired;
    }
    if (in_use_ < workers_ && critical_.empty() && admit_.empty()) {
      ++in_use_;
    } else {
      if (admit_limit_ > 0 && admit_.size() >= admit_limit_ && !TryEvictFor(deadline)) {
        ++shed_rejected_;
        co_return Admission::kRejected;
      }
      ++queued_events_;
      auto w = std::make_shared<AdmitWaiter>();
      w->deadline = deadline;
      w->enqueued_at = sched_.now();
      SampleDepth();
      co_await AdmitAwaiter{this, w.get(), &w};
      if (w->outcome != Admission::kRun) {
        co_return w->outcome;  // Shed; no worker was taken.
      }
      queued_time_us_.Add(static_cast<double>(sched_.now() - w->enqueued_at));
    }
    if (cpu > 0) {
      co_await sched_.Delay(cpu);
    }
    Release();
    co_return Admission::kRun;
  }

  // Claims a worker without consuming time; the caller occupies it (e.g. for
  // a synchronous log force — a Camelot thread blocks for the whole force,
  // which is exactly why multithreading pays off only with group commit).
  // Never shed.
  Async<void> Acquire() {
    ++events_;
    if (in_use_ < workers_ && critical_.empty()) {
      ++in_use_;
      co_return;
    }
    ++queued_events_;
    auto w = std::make_shared<CriticalWaiter>();
    w->enqueued_at = sched_.now();
    SampleDepth();
    co_await CriticalAwaiter{this, w.get(), &w};
    queued_time_us_.Add(static_cast<double>(sched_.now() - w->enqueued_at));
  }

  // Hands the worker to the next queued event, if any: completion work
  // first, then admitted new work per the policy.
  void Release() {
    CAMELOT_CHECK(in_use_ > 0);
    --in_use_;
    Grant();
  }

  // Resize the pool; legal with events queued (shrink takes effect as
  // in-flight work releases, growth dispatches waiters immediately).
  void Resize(size_t n) {
    workers_ = n;
    Grant();
  }

  // Admission-queue bound for Admit() (0 = unbounded) and overload policy.
  void set_admission_limit(size_t n) { admit_limit_ = n; }
  void set_admission_policy(AdmissionPolicy p) { policy_ = p; }

  size_t workers() const { return workers_; }
  size_t available() const { return workers_ > in_use_ ? workers_ - in_use_ : 0; }
  size_t queued() const { return critical_.size() + admit_.size(); }
  uint64_t events() const { return events_; }
  uint64_t queued_events() const { return queued_events_; }
  uint64_t shed_rejected() const { return shed_rejected_; }
  uint64_t shed_expired() const { return shed_expired_; }

  // Queue health: wait times (us) of events that had to queue, queue depth
  // sampled at each enqueue, and the deepest the queue has ever been.
  const Summary& queued_time_us() const { return queued_time_us_; }
  const Summary& queue_depth() const { return queue_depth_; }
  size_t depth_high_watermark() const { return depth_hwm_; }

  void ResetQueueStats() {
    queued_time_us_.Clear();
    queue_depth_.Clear();
    depth_hwm_ = 0;
  }

 private:
  struct CriticalWaiter {
    std::coroutine_handle<> handle;
    SimTime enqueued_at = 0;
  };

  struct AdmitWaiter {
    std::coroutine_handle<> handle;
    SimTime deadline = 0;  // 0 = none.
    SimTime enqueued_at = 0;
    Admission outcome = Admission::kRun;
  };

  // Both awaiters hold raw pointers on purpose: they MUST stay trivially
  // destructible. GCC 12 destroys a non-trivially-destructible awaiter (and
  // with it the whole co_await operand temporary, i.e. the suspended child
  // frame) at the suspend point instead of at resume, so a shared_ptr member
  // here turns every queued waiter into a use-after-free. Ownership lives in
  // the coroutine frame's local shared_ptr plus the pool's deque; the frame
  // outlives the grant because only the granted resume can complete it.
  struct CriticalAwaiter {
    WorkerPool* pool;
    CriticalWaiter* w;
    std::shared_ptr<CriticalWaiter>* owner;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      w->handle = h;
      pool->critical_.push_back(*owner);
    }
    void await_resume() const noexcept {}
  };

  struct AdmitAwaiter {
    WorkerPool* pool;
    AdmitWaiter* w;
    std::shared_ptr<AdmitWaiter>* owner;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      w->handle = h;
      pool->admit_.push_back(*owner);
    }
    void await_resume() const noexcept {}
  };

  // Called as an event enqueues (before its awaiter pushes it), so the
  // sample counts the event itself.
  void SampleDepth() {
    size_t depth = queued() + 1;
    queue_depth_.Add(static_cast<double>(depth));
    if (depth > depth_hwm_) {
      depth_hwm_ = depth;
    }
  }

  // kDeadlineDrop when full: evict the queued entry nearest its deadline iff
  // it expires no later than the newcomer (an entry with no deadline is
  // never evicted). Returns true if a slot was made.
  bool TryEvictFor(SimTime newcomer_deadline) {
    if (policy_ != AdmissionPolicy::kDeadlineDrop) {
      return false;
    }
    auto victim = admit_.end();
    for (auto it = admit_.begin(); it != admit_.end(); ++it) {
      if ((*it)->deadline == 0) {
        continue;
      }
      if (victim == admit_.end() || (*it)->deadline < (*victim)->deadline) {
        victim = it;
      }
    }
    if (victim == admit_.end()) {
      return false;
    }
    if (newcomer_deadline != 0 && (*victim)->deadline > newcomer_deadline) {
      return false;  // Everyone queued has more slack than the newcomer.
    }
    Shed(std::move(*victim), Admission::kRejected);
    admit_.erase(victim);
    ++shed_rejected_;
    return true;
  }

  // Resume a waiter that will NOT get a worker.
  void Shed(std::shared_ptr<AdmitWaiter> w, Admission outcome) {
    w->outcome = outcome;
    sched_.Post(0, [h = w->handle] { h.resume(); });
  }

  // Drop queued admits whose deadline has already passed (zombie work shed
  // before it ever occupies a worker).
  void ShedExpired() {
    SimTime now = sched_.now();
    for (auto it = admit_.begin(); it != admit_.end();) {
      if ((*it)->deadline > 0 && now > (*it)->deadline) {
        Shed(std::move(*it), Admission::kExpired);
        it = admit_.erase(it);
        ++shed_expired_;
      } else {
        ++it;
      }
    }
  }

  void Grant() {
    while (in_use_ < workers_) {
      if (!critical_.empty()) {
        auto w = std::move(critical_.front());
        critical_.pop_front();
        ++in_use_;
        sched_.Post(0, [h = w->handle] { h.resume(); });
        continue;
      }
      ShedExpired();
      if (admit_.empty()) {
        return;
      }
      std::shared_ptr<AdmitWaiter> w;
      if (policy_ == AdmissionPolicy::kLifo) {
        w = std::move(admit_.back());
        admit_.pop_back();
      } else {
        w = std::move(admit_.front());
        admit_.pop_front();
      }
      ++in_use_;
      w->outcome = Admission::kRun;
      sched_.Post(0, [h = w->handle] { h.resume(); });
    }
  }

  Scheduler& sched_;
  size_t workers_;
  size_t in_use_ = 0;
  size_t admit_limit_ = 0;  // 0 = unbounded.
  AdmissionPolicy policy_ = AdmissionPolicy::kFifo;
  std::deque<std::shared_ptr<CriticalWaiter>> critical_;
  std::deque<std::shared_ptr<AdmitWaiter>> admit_;
  uint64_t events_ = 0;
  uint64_t queued_events_ = 0;
  uint64_t shed_rejected_ = 0;
  uint64_t shed_expired_ = 0;
  Summary queued_time_us_;
  Summary queue_depth_;
  size_t depth_hwm_ = 0;
};

}  // namespace camelot

#endif  // SRC_TRANMAN_WORKER_POOL_H_
