#include "src/sim/scheduler.h"

#include <algorithm>
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

Scheduler::Scheduler(uint64_t seed)
    : rng_(seed), bottom_(static_cast<size_t>(kWidth)) {}

void Scheduler::Spawn(Async<void> task) {
  if (!task.valid()) {
    return;
  }
  Detached d = RunDetached(std::move(task));
  Post(0, [h = d.handle] { h.resume(); });
}

void Scheduler::PushEvent(SimTime t, EventFn fn) {
  CAMELOT_CHECK(t >= now_);
  if (fn.is_inline()) {
    ++inline_posts_;
  } else {
    ++pooled_posts_;
  }
  const uint64_t seq = next_seq_++;
  ++size_;
  if (t == now_) {
    ready_.emplace_back(t, seq, std::move(fn));
    return;
  }
  const SimTime off = t - ring_start_;
  if (off < kWidth) {
    // Current window: straight into the bottom rung. A direct post carries
    // the largest seq so far, so a plain append keeps the slot FIFO-ordered.
    Slot& s = bottom_[static_cast<size_t>(off)];
    if (s.events.empty()) {
      SetBit(bits_, static_cast<size_t>(off));
    }
    s.events.emplace_back(t, seq, std::move(fn));
    ++bottom_count_;
  } else if (t - rung1_.start < kSpan1) {
    RungAppend(rung1_, kShift0, Event(t, seq, std::move(fn)));
  } else if (t - rung2_.start < kSpan2) {
    RungAppend(rung2_, kShift1, Event(t, seq, std::move(fn)));
  } else {
    overflow_.emplace_back(t, seq, std::move(fn));
    std::push_heap(overflow_.begin(), overflow_.end(), EventAfter{});
  }
}

void Scheduler::RungAppend(Rung& r, int shift, Event ev) {
  const size_t idx = static_cast<size_t>(ev.time >> shift) & kBucketMask;
  Bucket& b = r.buckets[idx];
  if (b.events.empty()) {
    SetBit(r.bits, idx);
    b.min_time = ev.time;
  } else if (ev.time < b.min_time) {
    b.min_time = ev.time;
  }
  b.events.push_back(std::move(ev));
  ++r.count;
}

void Scheduler::SlotInsert(Event ev) {
  const size_t off = static_cast<size_t>(ev.time - ring_start_);
  Slot& s = bottom_[off];
  if (s.events.empty()) {
    SetBit(bits_, off);
  }
  // Spread and migrated events can carry smaller seqs than direct posts
  // already in the slot; walk back to the FIFO position (usually the end).
  auto pos = s.events.end();
  while (pos != s.events.begin() + static_cast<ptrdiff_t>(s.head) &&
         (pos - 1)->seq > ev.seq) {
    --pos;
  }
  s.events.insert(pos, std::move(ev));
  ++bottom_count_;
}

Scheduler::Event Scheduler::TakeFromSlot(size_t off) {
  Slot& s = bottom_[off];
  Event ev = std::move(s.events[s.head]);
  ++s.head;
  if (s.head == s.events.size()) {
    s.events.clear();
    s.head = 0;
    ClearBit(bits_, off);
  }
  --bottom_count_;
  return ev;
}

size_t Scheduler::FindFirstBit(const uint64_t* bits, size_t from) {
  size_t word = from >> 6;
  uint64_t w = bits[word] & (~uint64_t{0} << (from & 63));
  while (w == 0) {
    w = bits[++word];
  }
  return (word << 6) + static_cast<size_t>(__builtin_ctzll(w));
}

void Scheduler::MigrateOverflow() {
  // Called on a rung-2 epoch cross: pull everything that now falls inside the
  // new epoch into rung 2. Events landing in the epoch's entry bucket are
  // cascaded further down by the spreads that follow.
  const SimTime limit = rung2_.start + kSpan2;
  while (!overflow_.empty() && overflow_.front().time < limit) {
    std::pop_heap(overflow_.begin(), overflow_.end(), EventAfter{});
    Event ev = std::move(overflow_.back());
    overflow_.pop_back();
    RungAppend(rung2_, kShift1, std::move(ev));
  }
}

void Scheduler::SpreadRung2Bucket(SimTime t) {
  const size_t idx = static_cast<size_t>(t >> kShift1) & kBucketMask;
  Bucket& b = rung2_.buckets[idx];
  if (b.events.empty()) {
    return;
  }
  rung2_.count -= b.events.size();
  ClearBit(rung2_.bits, idx);
  for (Event& ev : b.events) {
    RungAppend(rung1_, kShift0, std::move(ev));
  }
  b.events.clear();
}

void Scheduler::SpreadRung1Bucket(SimTime t) {
  const size_t idx = static_cast<size_t>(t >> kShift0) & kBucketMask;
  Bucket& b = rung1_.buckets[idx];
  if (b.events.empty()) {
    return;
  }
  rung1_.count -= b.events.size();
  ClearBit(rung1_.bits, idx);
  for (Event& ev : b.events) {
    SlotInsert(std::move(ev));
  }
  b.events.clear();
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
  bottom_cursor_ = 0;
  SpreadRung1Bucket(t);
}

void Scheduler::AdvanceTo(SimTime t) {
  now_ = t;
  OpenWindow(t);
}

Scheduler::Event Scheduler::PopMin() {
  if (ready_head_ < ready_.size()) {
    // The minimum is at time now_. The only other place an event at now_ can
    // live is its bottom-rung slot (posted earlier, for what was then the
    // future) — it would carry a smaller seq than anything in ready_.
    const SimTime off = now_ - ring_start_;
    if (off < kWidth) {
      Slot& s = bottom_[static_cast<size_t>(off)];
      if (s.head < s.events.size() &&
          s.events[s.head].seq < ready_[ready_head_].seq) {
        return TakeFromSlot(static_cast<size_t>(off));
      }
    }
    Event ev = std::move(ready_[ready_head_]);
    ++ready_head_;
    if (ready_head_ == ready_.size()) {
      ready_.clear();
      ready_head_ = 0;
    }
    return ev;
  }
  if (bottom_count_ > 0) {
    const size_t off = FindFirstBit(bits_, bottom_cursor_);
    bottom_cursor_ = off;
    return TakeFromSlot(off);
  }
  if (rung1_.count == 0 && rung2_.count == 0) {
    // All pending work is beyond the ladder; pull the next epoch's worth of
    // overflow in. (Ladder events always precede overflow events — the time
    // ranges are disjoint — so the rungs are checked first.)
    CAMELOT_CHECK(!overflow_.empty());
    OpenWindow(overflow_.front().time);
  }
  if (bottom_count_ == 0) {
    // The next event is in a future bucket: open that bucket's window, which
    // cascades it down into the bottom rung. Epoch-aligned indexing means the
    // first set bit is the earliest bucket — no wrap-around to reason about.
    if (rung1_.count > 0) {
      const size_t idx = FindFirstBit(rung1_.bits, 0);
      OpenWindow(rung1_.buckets[idx].min_time);
    } else {
      const size_t idx = FindFirstBit(rung2_.bits, 0);
      OpenWindow(rung2_.buckets[idx].min_time);
    }
  }
  CAMELOT_CHECK(bottom_count_ > 0);
  const size_t off = FindFirstBit(bits_, bottom_cursor_);
  bottom_cursor_ = off;
  return TakeFromSlot(off);
}

SimTime Scheduler::PeekMinTime() const {
  if (ready_head_ < ready_.size()) {
    return now_;
  }
  if (bottom_count_ > 0) {
    return ring_start_ + static_cast<SimTime>(FindFirstBit(bits_, bottom_cursor_));
  }
  if (rung1_.count > 0) {
    return rung1_.buckets[FindFirstBit(rung1_.bits, 0)].min_time;
  }
  if (rung2_.count > 0) {
    return rung2_.buckets[FindFirstBit(rung2_.bits, 0)].min_time;
  }
  CAMELOT_CHECK(!overflow_.empty());
  return overflow_.front().time;
}

bool Scheduler::PopAndRun() {
  if (size_ == 0) {
    return false;
  }
  Event ev = PopMin();
  --size_;
  CAMELOT_CHECK(ev.time >= now_);
  if (ev.time != now_) {
    AdvanceTo(ev.time);
  }
  ev.fn();
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
