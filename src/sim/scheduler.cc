#include "src/sim/scheduler.h"

#include <algorithm>
#include <new>
#include <utility>

namespace camelot {

namespace {

// The calling thread's coroutine frame pool. It is destroyed at thread exit,
// before any static object; a frame freed after that (by a static object's
// destructor) goes back to the global allocator.
struct FramePool {
  SlabPool pool;
  ~FramePool();
};
thread_local bool frame_pool_gone = false;
thread_local FramePool frame_pool;
FramePool::~FramePool() { frame_pool_gone = true; }

// A self-destroying wrapper that drives a detached root Async<void>.
struct Detached {
  struct promise_type {
    static void* operator new(size_t size) { return AllocateFrame(size); }
    static void operator delete(void* frame, size_t size) { FreeFrame(frame, size); }

    Detached get_return_object() {
      return Detached{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }  // Frame self-frees.
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
  std::coroutine_handle<promise_type> handle;
};

Detached RunDetached(Async<void> task) { co_await std::move(task); }

}  // namespace

void* AllocateFrame(size_t size) {
  return frame_pool_gone ? ::operator new(size) : frame_pool.pool.Allocate(size);
}

void FreeFrame(void* frame, size_t size) {
  if (frame_pool_gone) {
    ::operator delete(frame);
  } else {
    frame_pool.pool.Free(frame, size);
  }
}

Scheduler::Scheduler(uint64_t seed) : rng_(seed) {}

Scheduler::~Scheduler() {
  const auto destroy = [](const Handle& h) { h.fn->~EventFn(); };
  const auto drain = [&](HandleQueue& q) {
    if (!q.empty()) {
      Drain(q, destroy);
    }
  };
  drain(ready_);
  for (HandleQueue& slot : bottom_) {
    drain(slot);
  }
  for (Rung* r : {&rung1_, &rung2_}) {
    for (Bucket& b : r->buckets) {
      drain(b.queue);
    }
  }
  for (const Handle& h : overflow_) {
    destroy(h);
  }
  // Every pooled capture belonged to a pending or finished event.
  CAMELOT_CHECK(pool_.outstanding() == 0);
}

void Scheduler::Spawn(Async<void> task) {
  if (!task.valid()) {
    return;
  }
  Detached d = RunDetached(std::move(task));
  Post(0, [h = d.handle] { h.resume(); });
}

void Scheduler::Append(HandleQueue& q, const Handle& h) {
  Segment* tail = q.tail;
  if (tail == nullptr || tail->end == kSegmentHandles) {
    auto* seg = ::new (segments_.Take()) Segment;
    if (tail == nullptr) {
      q.head = seg;
    } else {
      tail->next = seg;
    }
    q.tail = tail = seg;
  }
  tail->handles[tail->end++] = h;
}

Scheduler::Handle Scheduler::PopFront(HandleQueue& q) {
  Segment* head = q.head;
  const Handle h = head->handles[head->begin++];
  if (head->begin == head->end) {
    q.head = head->next;
    if (q.head == nullptr) {
      q.tail = nullptr;
    }
    segments_.Give(head);
  }
  return h;
}

template <typename Sink>
void Scheduler::Drain(HandleQueue& q, Sink sink) {
  Segment* seg = q.head;
  q.head = q.tail = nullptr;
  while (seg != nullptr) {
    for (uint32_t i = seg->begin; i < seg->end; ++i) {
      sink(seg->handles[i]);
    }
    Segment* next = seg->next;
    segments_.Give(seg);
    seg = next;
  }
}

void Scheduler::Push(const Handle& h) {
  ++size_;
  if (h.time == now_) {
    Append(ready_, h);
    return;
  }
  if (h.time - ring_start_ < kWidth) {
    SlotAppend(h);
  } else if (h.time - rung1_.start < kSpan1) {
    RungAppend(rung1_, kShift0, h);
  } else if (h.time - rung2_.start < kSpan2) {
    RungAppend(rung2_, kShift1, h);
  } else {
    overflow_.push_back(h);
    std::push_heap(overflow_.begin(), overflow_.end(), HandleAfter{});
  }
}

void Scheduler::RungAppend(Rung& r, int shift, const Handle& h) {
  const size_t idx = static_cast<size_t>(h.time >> shift) & kBucketMask;
  Bucket& b = r.buckets[idx];
  if (b.queue.empty()) {
    r.bits.Set(idx);
    b.min_time = h.time;
  } else if (h.time < b.min_time) {
    b.min_time = h.time;
  }
  Append(b.queue, h);
  ++r.count;
}

void Scheduler::SlotAppend(const Handle& h) {
  const size_t off = static_cast<size_t>(h.time - ring_start_);
  HandleQueue& slot = bottom_[off];
  if (slot.empty()) {
    bits_.Set(off);
  } else {
    // A direct post carries the largest seq so far, and a spread fills an
    // empty bottom rung from a bucket whose equal-time handles are in seq
    // order, so appending keeps every slot FIFO-ordered.
    CAMELOT_CHECK(h.seq > slot.back().seq);
  }
  Append(slot, h);
  ++bottom_count_;
}

Scheduler::Handle Scheduler::TakeFromSlot(size_t off) {
  HandleQueue& slot = bottom_[off];
  const Handle h = PopFront(slot);
  if (slot.empty()) {
    bits_.Clear(off);
  }
  --bottom_count_;
  return h;
}

void Scheduler::MigrateOverflow() {
  // Called on a rung-2 epoch cross: pull everything that now falls inside the
  // new epoch into rung 2. Events landing in the epoch's entry bucket are
  // cascaded further down by the spreads that follow.
  const SimTime limit = rung2_.start + kSpan2;
  while (!overflow_.empty() && overflow_.front().time < limit) {
    std::pop_heap(overflow_.begin(), overflow_.end(), HandleAfter{});
    RungAppend(rung2_, kShift1, overflow_.back());
    overflow_.pop_back();
  }
}

void Scheduler::SpreadRung2Bucket(SimTime t) {
  const size_t idx = static_cast<size_t>(t >> kShift1) & kBucketMask;
  Bucket& b = rung2_.buckets[idx];
  if (b.queue.empty()) {
    return;
  }
  rung2_.bits.Clear(idx);
  Drain(b.queue, [this](const Handle& h) {
    --rung2_.count;
    RungAppend(rung1_, kShift0, h);
  });
}

void Scheduler::SpreadRung1Bucket(SimTime t) {
  const size_t idx = static_cast<size_t>(t >> kShift0) & kBucketMask;
  Bucket& b = rung1_.buckets[idx];
  if (b.queue.empty()) {
    return;
  }
  rung1_.bits.Clear(idx);
  Drain(b.queue, [this](const Handle& h) {
    --rung1_.count;
    SlotAppend(h);
  });
}

void Scheduler::OpenWindow(SimTime t) {
  const SimTime aligned0 = t & ~kWidthMask;
  if (aligned0 <= ring_start_) {
    return;
  }
  // Safe to jump: every pending event is >= t, so the bottom rung — and every
  // rung bucket between the old and new anchors — is empty.
  CAMELOT_CHECK(bottom_count_ == 0);
  const SimTime aligned2 = t & ~(kSpan2 - 1);
  if (aligned2 > rung2_.start) {
    CAMELOT_CHECK(rung1_.count == 0 && rung2_.count == 0);
    rung2_.start = aligned2;
    MigrateOverflow();
  }
  const SimTime aligned1 = t & ~(kSpan1 - 1);
  if (aligned1 > rung1_.start) {
    CAMELOT_CHECK(rung1_.count == 0);
    rung1_.start = aligned1;
    SpreadRung2Bucket(t);
  }
  ring_start_ = aligned0;
  SpreadRung1Bucket(t);
}

void Scheduler::AdvanceTo(SimTime t) {
  now_ = t;
  OpenWindow(t);
}

Scheduler::Handle Scheduler::PopMin() {
  if (!ready_.empty()) {
    // The minimum is at time now_. The only other place an event at now_ can
    // live is its bottom-rung slot (posted earlier, for what was then the
    // future) — it would carry a smaller seq than anything in ready_.
    const SimTime off = now_ - ring_start_;
    if (off < kWidth) {
      const HandleQueue& slot = bottom_[static_cast<size_t>(off)];
      if (!slot.empty() && slot.front().seq < ready_.front().seq) {
        return TakeFromSlot(static_cast<size_t>(off));
      }
    }
    return PopFront(ready_);
  }
  if (bottom_count_ == 0) {
    if (rung1_.count == 0 && rung2_.count == 0) {
      // All pending work is beyond the ladder; pull the next epoch's worth of
      // overflow in. (Ladder events always precede overflow events — the time
      // ranges are disjoint — so the rungs are checked first.)
      CAMELOT_CHECK(!overflow_.empty());
      OpenWindow(overflow_.front().time);
    }
    if (bottom_count_ == 0) {
      // The next event is in a future bucket: open that bucket's window, which
      // cascades it down into the bottom rung. Epoch-aligned indexing means
      // the first set bit is the earliest bucket — no wrap-around to reason
      // about.
      const Rung& r = rung1_.count > 0 ? rung1_ : rung2_;
      OpenWindow(r.buckets[r.bits.First()].min_time);
    }
    CAMELOT_CHECK(bottom_count_ > 0);
  }
  return TakeFromSlot(bits_.First());
}

SimTime Scheduler::PeekMinTime() const {
  if (!ready_.empty()) {
    return now_;
  }
  if (bottom_count_ > 0) {
    return ring_start_ + static_cast<SimTime>(bits_.First());
  }
  if (rung1_.count > 0) {
    return rung1_.buckets[rung1_.bits.First()].min_time;
  }
  if (rung2_.count > 0) {
    return rung2_.buckets[rung2_.bits.First()].min_time;
  }
  CAMELOT_CHECK(!overflow_.empty());
  return overflow_.front().time;
}

bool Scheduler::PopAndRun() {
  if (size_ == 0) {
    return false;
  }
  const Handle h = PopMin();
  --size_;
  CAMELOT_CHECK(h.time >= now_);
  if (h.time != now_) {
    AdvanceTo(h.time);
  }
  // The node stays put while it runs, whatever the callable posts.
  (*h.fn)();
  h.fn->~EventFn();
  nodes_.Give(h.fn);
  return true;
}

DrainResult Scheduler::RunUntilIdle(size_t max_events) {
  size_t processed = 0;
  while (processed < max_events && PopAndRun()) {
    ++processed;
  }
  return DrainResult{processed, size_ == 0};
}

size_t Scheduler::RunUntil(SimTime t) {
  size_t processed = 0;
  while (size_ > 0 && PeekMinTime() <= t) {
    PopAndRun();
    ++processed;
  }
  if (t > now_) {
    AdvanceTo(t);
  }
  return processed;
}

}  // namespace camelot
