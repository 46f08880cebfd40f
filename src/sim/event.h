// Allocation-free event thunks for the discrete-event scheduler.
//
// The old engine stored every queued event as a std::function<void()>, which
// heap-allocates for any capture over two pointers — i.e. for almost every
// interesting event (datagram deliveries, retransmit timers, protocol
// continuations). At millions of events per simulated run that allocator
// traffic dominates the engine's host-CPU profile.
//
// EventFn is a callable with a large inline small-buffer (big enough for every
// hot-path capture: coroutine resumes, channel wakeups, datagram deliveries),
// built in place in the scheduler's queue node. Oversized captures fall back
// to a per-scheduler SlabPool — a size-classed free list that recycles blocks
// instead of hitting the global allocator — so the steady-state hot path
// performs zero heap allocations either way.
#ifndef SRC_SIM_EVENT_H_
#define SRC_SIM_EVENT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace camelot {

// Size-classed free list for oversized event captures and for coroutine
// frames (one pool per Scheduler for the former, one per host thread for the
// latter; see task.h). A pool is used only from one host thread; blocks are
// returned to it when their event or frame is destroyed and reused by later
// ones. Under AddressSanitizer a block is poisoned while it sits on the free
// list, so touching a destroyed frame or event is still reported.
class SlabPool {
 public:
  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  ~SlabPool() {
    for (int cls = 0; cls < kClasses; ++cls) {
      while (free_[cls] != nullptr) {
        FreeBlock* block = free_[cls];
        ASAN_UNPOISON_MEMORY_REGION(block, ClassSize(cls));
        free_[cls] = block->next;
        ::operator delete(static_cast<void*>(block));
      }
    }
  }

  void* Allocate(size_t size) {
    ++outstanding_;
    const int cls = ClassFor(size);
    if (cls < 0) {
      return ::operator new(size);
    }
    if (free_[cls] != nullptr) {
      FreeBlock* block = free_[cls];
      ASAN_UNPOISON_MEMORY_REGION(block, size < sizeof(FreeBlock) ? sizeof(FreeBlock) : size);
      free_[cls] = block->next;
      ++reused_;
      return block;
    }
    ++fresh_allocs_;
    void* block = ::operator new(ClassSize(cls));
    ASAN_POISON_MEMORY_REGION(static_cast<char*>(block) + size, ClassSize(cls) - size);
    return block;
  }

  void Free(void* ptr, size_t size) {
    --outstanding_;
    const int cls = ClassFor(size);
    if (cls < 0) {
      ::operator delete(ptr);
      return;
    }
    auto* block = static_cast<FreeBlock*>(ptr);
    block->next = free_[cls];
    free_[cls] = block;
    ASAN_POISON_MEMORY_REGION(block, ClassSize(cls));
  }

  // Observability for the allocation-free-hot-path tests and bench_engine.
  uint64_t fresh_allocs() const { return fresh_allocs_; }
  uint64_t reused() const { return reused_; }
  // Blocks handed out and not yet freed.
  uint64_t outstanding() const { return outstanding_; }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };

  // Classes 0..kClasses-1 hold blocks of 128 << class bytes (128B .. 16KB);
  // anything larger goes straight to the global allocator (no event or
  // coroutine frame in the system is that big; this is a safety valve, not a
  // hot path).
  static constexpr int kClasses = 8;
  static constexpr size_t kMinBlock = 128;

  static constexpr size_t ClassSize(int cls) { return kMinBlock << cls; }

  static int ClassFor(size_t size) {
    if (size <= kMinBlock) {
      return 0;
    }
    const int cls = std::bit_width(size - 1) - std::bit_width(kMinBlock - 1);
    return cls < kClasses ? cls : -1;
  }

  FreeBlock* free_[kClasses] = {};
  uint64_t fresh_allocs_ = 0;
  uint64_t reused_ = 0;
  uint64_t outstanding_ = 0;
};

// A type-erased callable for one scheduler event. The scheduler constructs it
// in place in a queue node and invokes and destroys it there, so it never
// moves. Callables up to kInlineCapacity bytes live inline; larger ones are
// placed in a SlabPool block. Invocation and destruction each dispatch
// through one function pointer instantiated per callable type, and a
// trivially destructible inline callable has no destructor to dispatch.
class EventFn {
 public:
  // Large enough for every hot-path capture: a coroutine handle (8B), channel
  // waiter wakeups (~24B), and a full datagram delivery (this + Datagram with
  // a shared body, ~40B). An EventFn is 80 bytes.
  static constexpr size_t kInlineCapacity = 56;

  // Whether a callable of type Fn is stored inline rather than in the pool.
  template <typename Fn>
  static constexpr bool kStoresInline =
      sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= alignof(std::max_align_t);

  template <typename F>
  EventFn(F&& fn, SlabPool* pool) {
    using Fn = std::decay_t<F>;
    if constexpr (kStoresInline<Fn>) {
      ::new (static_cast<void*>(storage_.inline_bytes)) Fn(std::forward<F>(fn));
      invoke_ = &InvokeInline<Fn>;
      if constexpr (!std::is_trivially_destructible_v<Fn>) {
        destroy_ = &DestroyInline<Fn>;
      }
    } else {
      void* block = pool->Allocate(sizeof(Fn));
      ::new (block) Fn(std::forward<F>(fn));
      storage_.heap.ptr = block;
      storage_.heap.pool = pool;
      invoke_ = &InvokeHeap<Fn>;
      destroy_ = &DestroyHeap<Fn>;
    }
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() {
    if (destroy_ != nullptr) {
      destroy_(storage_);
    }
  }

  void operator()() { invoke_(storage_); }

 private:
  union Storage {
    alignas(std::max_align_t) unsigned char inline_bytes[kInlineCapacity];
    struct {
      void* ptr;
      SlabPool* pool;
    } heap;
  };

  template <typename Fn>
  static Fn& InlineFn(Storage& s) {
    return *std::launder(reinterpret_cast<Fn*>(s.inline_bytes));
  }
  template <typename Fn>
  static void InvokeInline(Storage& s) {
    InlineFn<Fn>(s)();
  }
  template <typename Fn>
  static void DestroyInline(Storage& s) {
    InlineFn<Fn>(s).~Fn();
  }
  template <typename Fn>
  static void InvokeHeap(Storage& s) {
    (*std::launder(static_cast<Fn*>(s.heap.ptr)))();
  }
  template <typename Fn>
  static void DestroyHeap(Storage& s) {
    std::launder(static_cast<Fn*>(s.heap.ptr))->~Fn();
    s.heap.pool->Free(s.heap.ptr, sizeof(Fn));
  }

  Storage storage_;
  void (*invoke_)(Storage&) = nullptr;
  void (*destroy_)(Storage&) = nullptr;
};

}  // namespace camelot

#endif  // SRC_SIM_EVENT_H_
