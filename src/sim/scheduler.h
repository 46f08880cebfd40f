// The discrete-event scheduler: a virtual clock plus an ordered queue of
// thunks. Coroutines suspend on awaitables (Delay, channel receives, mutexes)
// that post their resumption as future events.
//
// Determinism: events at equal times run in posting order (FIFO tie-break),
// and all randomness flows from the seed given at construction, so any run is
// exactly reproducible.
//
// An event never moves. PostAt constructs its EventFn thunk (src/sim/event.h)
// once, in a node taken from a per-scheduler chunked free list, and PopAndRun
// invokes and destroys it in that node. What the queue orders are 24-byte
// {time, seq, node} handles, and every queue of handles is a FIFO chain of
// fixed-capacity segments recycled through another per-scheduler free list.
// Captures are stored inline in the node or in a per-scheduler slab pool, so
// a warm scheduler posts and drains without heap allocation.
//
// The queue is a multi-rung ladder: a ready list for events at the current
// instant, a bottom rung of one-microsecond slots covering the 1.024ms bucket
// of virtual time now executing, two rungs of epoch-aligned buckets (1.024ms
// buckets spanning the current ~1.05s epoch, then 1.05s buckets spanning the
// current ~18min epoch), and a min-heap of handles for the rare events beyond
// that. As the clock crosses an epoch or bucket boundary, the bucket it
// enters is spread one rung down, into a rung that is then empty; because
// SimTime has microsecond resolution, a bottom slot holds only equal-time
// events, whose FIFO order is exactly ascending-seq order — so steady-state
// post and pop are O(1) appends and pops, with no comparisons on any rung. A
// spread reads a bucket's handles segment by segment, in sequence, and
// touches no node. The ordering contract is identical to the old binary heap
// (see legacy_heap_scheduler.h, kept as the A/B reference): strict
// (time, seq) order everywhere.
#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <coroutine>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/types.h"
#include "src/sim/event.h"
#include "src/sim/task.h"

namespace camelot {

// Result of a drain call. Converts to the processed count so existing
// arithmetic call sites keep working; `drained` distinguishes a genuinely
// empty queue from stopping at the max_events runaway guard.
struct DrainResult {
  size_t processed = 0;
  bool drained = true;

  operator size_t() const { return processed; }  // NOLINT(google-explicit-constructor)
};

class Scheduler {
 public:
  explicit Scheduler(uint64_t seed = 1);
  // Destroys every pending event's callable without running it (a pending
  // coroutine resume leaves its frame suspended; see Spawn).
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const { return now_; }
  Rng& rng() { return rng_; }

  // Run `fn` after `delay` of virtual time (delay >= 0).
  template <typename F>
  void Post(SimDuration delay, F&& fn) {
    CAMELOT_CHECK(delay >= 0);
    PostAt(now_ + delay, std::forward<F>(fn));
  }

  // Run `fn` at absolute virtual time `t` (>= now).
  template <typename F>
  void PostAt(SimTime t, F&& fn) {
    CAMELOT_CHECK(t >= now_);
    if constexpr (EventFn::kStoresInline<std::decay_t<F>>) {
      ++inline_posts_;
    } else {
      ++pooled_posts_;
    }
    auto* node = ::new (nodes_.Take()) EventFn(std::forward<F>(fn), &pool_);
    Push(Handle{t, next_seq_++, node});
  }

  // Awaitable: suspend the current coroutine for `delay` of virtual time.
  auto Delay(SimDuration delay) {
    struct Awaiter {
      Scheduler* sched;
      SimDuration delay;
      bool await_ready() const noexcept { return delay <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        sched->Post(delay, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, delay};
  }

  // Launch a root task. The frame is freed when the task completes; tasks
  // still suspended when the simulation stops are leaked (the simulator never
  // destroys a suspended coroutine, so dangling-waiter bugs cannot occur).
  void Spawn(Async<void> task);

  // Drain the event queue. Stops after max_events as a runaway guard; the
  // result's `drained` flag tells the two apart.
  DrainResult RunUntilIdle(size_t max_events = SIZE_MAX);

  // Process events with time <= t, then set now to t. Returns events processed.
  size_t RunUntil(SimTime t);

  size_t pending_events() const { return size_; }

  // Event-representation observability (allocation-free hot-path tests and
  // bench_engine): how many posts stored their capture inline vs in the slab
  // pool, and the pool's own alloc/reuse counters.
  uint64_t inline_posts() const { return inline_posts_; }
  uint64_t pooled_posts() const { return pooled_posts_; }
  const SlabPool& slab_pool() const { return pool_; }

 private:
  // Fixed-size blocks for T, carved from chunks of kPerChunk and recycled
  // through a LIFO free list; the chunks go back to the global allocator
  // only when the list is destroyed. A free block is poisoned under ASan.
  template <typename T, size_t kPerChunk>
  class BlockList {
   public:
    BlockList() = default;
    BlockList(const BlockList&) = delete;
    BlockList& operator=(const BlockList&) = delete;

    ~BlockList() {
      while (chunks_ != nullptr) {
        Chunk* chunk = chunks_;
        ASAN_UNPOISON_MEMORY_REGION(chunk, sizeof(Chunk));
        chunks_ = chunk->next;
        delete chunk;
      }
    }

    // Storage for one T; the caller constructs it.
    void* Take() {
      if (free_ == nullptr) {
        Grow();
      }
      Block* block = free_;
      ASAN_UNPOISON_MEMORY_REGION(block, sizeof(Block));
      free_ = block->next;
      return block->bytes;
    }

    // Returns storage from Take; the caller has destroyed its T.
    void Give(void* storage) {
      auto* block = std::launder(static_cast<Block*>(storage));
      block->next = free_;
      free_ = block;
      ASAN_POISON_MEMORY_REGION(block, sizeof(Block));
    }

   private:
    union Block {
      Block* next;
      alignas(T) unsigned char bytes[sizeof(T)];
    };
    struct Chunk {
      Chunk* next;
      Block blocks[kPerChunk];
    };

    void Grow() {
      auto* chunk = new Chunk;
      chunk->next = chunks_;
      chunks_ = chunk;
      for (size_t i = kPerChunk; i-- > 0;) {
        chunk->blocks[i].next = free_;
        free_ = &chunk->blocks[i];
      }
      ASAN_POISON_MEMORY_REGION(chunk->blocks, sizeof(chunk->blocks));
    }

    Block* free_ = nullptr;
    Chunk* chunks_ = nullptr;
  };

  // A pending event as the queues see it. `fn` is the node that holds the
  // callable; it stays put from PostAt until PopAndRun has run it.
  struct Handle {
    SimTime time;
    uint64_t seq;
    EventFn* fn;
  };
  static_assert(sizeof(Handle) == 24 && std::is_trivially_copyable_v<Handle>);

  // Comparator for the overflow min-heap ("a runs after b"), identical to the
  // old binary-heap engine's.
  struct HandleAfter {
    bool operator()(const Handle& a, const Handle& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  // Up to kSegmentHandles handles of one queue, in order: the live ones are
  // handles[begin, end).
  static constexpr uint32_t kSegmentHandles = 20;
  struct Segment {
    Segment* next = nullptr;
    uint32_t begin = 0;
    uint32_t end = 0;
    Handle handles[kSegmentHandles];
  };

  // A FIFO of handles: a chain of segments, oldest first. An empty queue
  // holds no segment.
  struct HandleQueue {
    Segment* head = nullptr;
    Segment* tail = nullptr;

    bool empty() const { return head == nullptr; }
    const Handle& front() const { return head->handles[head->begin]; }
    const Handle& back() const { return tail->handles[tail->end - 1]; }
  };

  // A future rung bucket: handles in posting order, plus a cached minimum
  // time so PeekMinTime never has to scan the contents.
  struct Bucket {
    HandleQueue queue;
    SimTime min_time = 0;
  };

  // Every rung has 1024 buckets/slots. Bottom slots are 1us (covering the
  // current 1.024ms window), rung-1 buckets are 1.024ms (covering the current
  // ~1.05s epoch), rung-2 buckets are ~1.05s (covering the current ~18min
  // epoch). Only events more than ~18min out touch the overflow heap —
  // typical message delays and timeouts never do.
  static constexpr size_t kBuckets = 1024;
  static constexpr size_t kBucketMask = kBuckets - 1;
  static constexpr size_t kBitWords = kBuckets / 64;
  static constexpr int kShift0 = 10;   // log2(bottom window in us)
  static constexpr int kShift1 = 20;   // log2(rung-1 epoch)
  static constexpr int kShift2 = 30;   // log2(rung-2 epoch)
  static constexpr SimTime kWidth = SimTime{1} << kShift0;
  static constexpr SimTime kWidthMask = kWidth - 1;
  static constexpr SimTime kSpan1 = SimTime{1} << kShift1;
  static constexpr SimTime kSpan2 = SimTime{1} << kShift2;

  // Which of a rung's kBuckets queues hold handles. Bit w of `summary` says
  // whether words[w] is nonzero, so finding the first occupied queue takes
  // two count-trailing-zeros, not a scan.
  struct Bitmap {
    uint64_t words[kBitWords] = {};
    uint64_t summary = 0;

    void Set(size_t i) {
      words[i >> 6] |= uint64_t{1} << (i & 63);
      summary |= uint64_t{1} << (i >> 6);
    }
    void Clear(size_t i) {
      uint64_t& word = words[i >> 6];
      word &= ~(uint64_t{1} << (i & 63));
      if (word == 0) {
        summary &= ~(uint64_t{1} << (i >> 6));
      }
    }
    // The lowest set bit; the caller guarantees one exists.
    size_t First() const {
      const auto w = static_cast<size_t>(__builtin_ctzll(summary));
      return (w << 6) + static_cast<size_t>(__builtin_ctzll(words[w]));
    }
  };

  // An epoch-aligned rung: bucket i covers [start + (i << shift),
  // start + ((i + 1) << shift)) of virtual time, where shift is kShift0 for
  // rung 1 and kShift1 for rung 2. Epoch alignment makes bucket order time
  // order, so the first occupied bucket is the earliest.
  struct Rung {
    Bucket buckets[kBuckets];
    Bitmap bits;
    size_t count = 0;
    SimTime start = 0;
  };

  void Push(const Handle& h);
  void Append(HandleQueue& q, const Handle& h);
  Handle PopFront(HandleQueue& q);
  // Hands each handle of `q`, oldest first, to `sink`, leaving `q` empty.
  template <typename Sink>
  void Drain(HandleQueue& q, Sink sink);
  void RungAppend(Rung& r, int shift, const Handle& h);
  void SlotAppend(const Handle& h);
  Handle TakeFromSlot(size_t off);
  Handle PopMin();
  SimTime PeekMinTime() const;
  bool PopAndRun();
  // Advance the virtual clock (and the ladder windows) to t.
  void AdvanceTo(SimTime t);
  // Make t's bottom window current: advance any epoch the clock crossed
  // (migrating overflow into rung 2, spreading t's rung-2 bucket into rung 1,
  // then t's rung-1 bucket into the bottom slots). Each crossed level must
  // already be drained.
  void OpenWindow(SimTime t);
  void MigrateOverflow();
  void SpreadRung1Bucket(SimTime t);
  void SpreadRung2Bucket(SimTime t);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  size_t size_ = 0;
  Rng rng_;

  // Pending callables' pooled captures, their nodes, and the handle
  // segments. The destructor destroys the pending callables first.
  SlabPool pool_;
  BlockList<EventFn, 128> nodes_;
  BlockList<Segment, 16> segments_;

  HandleQueue ready_;  // events at time == now_
  // Bottom rung: slot off holds events at exactly ring_start_ + off.
  HandleQueue bottom_[static_cast<size_t>(kWidth)];
  Bitmap bits_;
  size_t bottom_count_ = 0;
  SimTime ring_start_ = 0;     // bottom window start; aligned, always <= now_
  Rung rung1_;                 // epoch [rung1_.start, rung1_.start + kSpan1)
  Rung rung2_;                 // epoch [rung2_.start, rung2_.start + kSpan2)
  std::vector<Handle> overflow_;  // min-heap; times >= rung2_.start + kSpan2

  uint64_t inline_posts_ = 0;
  uint64_t pooled_posts_ = 0;
};

}  // namespace camelot

#endif  // SRC_SIM_SCHEDULER_H_
