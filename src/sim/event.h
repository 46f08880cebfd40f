// Allocation-free event thunks for the discrete-event scheduler.
//
// The old engine stored every queued event as a std::function<void()>, which
// heap-allocates for any capture over two pointers — i.e. for almost every
// interesting event (datagram deliveries, retransmit timers, protocol
// continuations). At millions of events per simulated run that allocator
// traffic dominates the engine's host-CPU profile.
//
// EventFn is a move-only callable with a large inline small-buffer (big enough
// for every hot-path capture: coroutine resumes, channel wakeups, datagram
// deliveries). Oversized captures fall back to a per-scheduler SlabPool — a
// size-classed free list that recycles blocks instead of hitting the global
// allocator — so the steady-state hot path performs zero heap allocations
// either way.
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
};

// A move-only callable for scheduler events. Callables up to kInlineCapacity
// bytes live inline in the Event itself; larger ones are placed in a SlabPool
// block. Invocation, move, and destruction all dispatch through one manager
// function pointer instantiated per callable type.
class EventFn {
 public:
  // Large enough for every hot-path capture: a coroutine handle (8B), channel
  // waiter wakeups (~24B), and a full datagram delivery (this + Datagram with
  // a shared body, ~40B). Event = EventFn + time + seq stays at 80 bytes.
  static constexpr size_t kInlineCapacity = 56;

  EventFn() = default;

  template <typename F, typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn>>>
  EventFn(F&& fn, SlabPool* pool) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>) {
      // The dominant case (captures are pointers, handles, and ints): no
      // manager at all — moves are raw byte copies and destruction is a
      // no-op, which keeps heap sifts inside the queue's buckets cheap.
      ::new (static_cast<void*>(storage_.inline_bytes)) Fn(std::forward<F>(fn));
      inline_invoke_ = &InvokeInline<Fn>;
    } else if constexpr (sizeof(Fn) <= kInlineCapacity &&
                         alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_.inline_bytes)) Fn(std::forward<F>(fn));
      manager_ = &InlineManager<Fn>;
      inline_invoke_ = &InvokeInline<Fn>;
    } else {
      void* block = pool->Allocate(sizeof(Fn));
      ::new (block) Fn(std::forward<F>(fn));
      storage_.heap.ptr = block;
      storage_.heap.size = sizeof(Fn);
      storage_.heap.pool = pool;
      manager_ = &HeapManager<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(std::move(other)); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  explicit operator bool() const { return manager_ != nullptr || inline_invoke_ != nullptr; }

  bool is_inline() const { return inline_invoke_ != nullptr; }

  // The caller must move the Event out of any container before invoking: the
  // callable may post new events and reallocate the container under itself.
  void operator()() {
    if (inline_invoke_ != nullptr) {
      inline_invoke_(storage_.inline_bytes);
    } else {
      manager_(Op::kInvoke, this, nullptr);
    }
  }

 private:
  enum class Op { kInvoke, kMove, kDestroy };

  using Manager = void (*)(Op, EventFn*, EventFn*);
  using InlineInvoke = void (*)(void*);

  template <typename Fn>
  static void InlineManager(Op op, EventFn* self, EventFn* target) {
    auto* fn = std::launder(reinterpret_cast<Fn*>(self->storage_.inline_bytes));
    switch (op) {
      case Op::kInvoke:
        (*fn)();
        break;
      case Op::kMove:
        ::new (static_cast<void*>(target->storage_.inline_bytes)) Fn(std::move(*fn));
        fn->~Fn();
        break;
      case Op::kDestroy:
        fn->~Fn();
        break;
    }
  }

  template <typename Fn>
  static void HeapManager(Op op, EventFn* self, EventFn* target) {
    auto* fn = std::launder(reinterpret_cast<Fn*>(self->storage_.heap.ptr));
    switch (op) {
      case Op::kInvoke:
        (*fn)();
        break;
      case Op::kMove:
        target->storage_.heap = self->storage_.heap;
        break;
      case Op::kDestroy:
        fn->~Fn();
        self->storage_.heap.pool->Free(self->storage_.heap.ptr, self->storage_.heap.size);
        break;
    }
  }

  template <typename Fn>
  static void InvokeInline(void* bytes) {
    (*std::launder(reinterpret_cast<Fn*>(bytes)))();
  }

  void MoveFrom(EventFn&& other) noexcept {
    manager_ = other.manager_;
    inline_invoke_ = other.inline_invoke_;
    if (manager_ != nullptr) {
      manager_(Op::kMove, &other, this);
    } else if (inline_invoke_ != nullptr) {
      storage_ = other.storage_;  // Trivial inline: a plain byte copy.
    }
    other.manager_ = nullptr;
    other.inline_invoke_ = nullptr;
  }

  void Reset() {
    if (manager_ != nullptr) {
      manager_(Op::kDestroy, this, nullptr);
      manager_ = nullptr;
      inline_invoke_ = nullptr;
    }
  }

  union Storage {
    alignas(std::max_align_t) unsigned char inline_bytes[kInlineCapacity];
    struct {
      void* ptr;
      size_t size;
      SlabPool* pool;
    } heap;
  };

  Storage storage_;
  Manager manager_ = nullptr;
  InlineInvoke inline_invoke_ = nullptr;
};

}  // namespace camelot

#endif  // SRC_SIM_EVENT_H_
