// Allocation pins: exact counts of global operator new calls on the
// simulator's per-event paths. Host time moves with the machine; these
// counts do not, so a change that puts an allocation back on a hot path
// fails here on any host.
//
// This binary replaces the global operator new with a counting one. Counts
// are read around single-threaded work only, and no gtest assertion runs
// while a count is open (a failing assertion allocates its message).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include "src/base/codec.h"
#include "src/base/failpoint.h"
#include "src/harness/crash_explorer.h"
#include "src/harness/world.h"
#include "src/lockmgr/lock_manager.h"
#include "src/sim/channel.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/tranman/messages.h"

namespace {

std::atomic<uint64_t> g_news{0};

void* CountedAlloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return CountedAlignedAlloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace camelot {
namespace {

// operator new calls made by `fn`.
template <typename F>
uint64_t News(F&& fn) {
  const uint64_t before = g_news.load(std::memory_order_relaxed);
  fn();
  return g_news.load(std::memory_order_relaxed) - before;
}

Async<int> Leaf(int x) { co_return x + 1; }

Async<void> Chain(int* out) { *out = co_await Leaf(co_await Leaf(1)); }

TEST(AllocationPin, WarmCoroutineFrameIsReused) {
  Scheduler sched(1);
  int out = 0;
  sched.Spawn(Chain(&out));
  sched.RunUntilIdle();
  const uint64_t news = News([&] {
    sched.Spawn(Chain(&out));
    sched.RunUntilIdle();
  });
  std::printf("warm coroutine chain: %llu\n", static_cast<unsigned long long>(news));
  EXPECT_EQ(out, 3);
  EXPECT_EQ(news, 0u);
}

// One step of a chain that keeps a single event pending: mostly a few
// microseconds ahead, so successive steps cover every bottom-window slot,
// with every 50th step a rung-1 bucket away and every 500th a rung-2 bucket.
struct ChainStep {
  Scheduler* sched;
  int* left;
  SimTime* last;
  int* distinct;

  void operator()() const {
    *distinct += sched->now() != *last ? 1 : 0;
    *last = sched->now();
    if (--*left == 0) {
      return;
    }
    const SimDuration delay = *left % 500 == 0 ? Sec(2) : *left % 50 == 0 ? Msec(3) : 1 + *left % 7;
    sched->Post(delay, *this);
  }
};

TEST(AllocationPin, FreshSchedulerRecyclesItsNodesAndSegments) {
  int left = 3000;
  SimTime last = -1;
  int distinct = 0;
  const uint64_t news = News([&] {
    Scheduler sched(1);
    sched.Post(1, ChainStep{&sched, &left, &last, &distinct});
    sched.RunUntilIdle();
  });
  std::printf("fresh scheduler chain: %llu over %d distinct microseconds\n",
              static_cast<unsigned long long>(news), distinct);
  EXPECT_EQ(left, 0);
  EXPECT_GE(distinct, 2000);
  // One chunk of event nodes and one of handle segments, both recycled from
  // then on. A queue that grew a vector per slot and bucket made a call for
  // every one it touched.
  EXPECT_EQ(news, 2u);
}

TEST(AllocationPin, IdleChannelAllocatesNothing) {
  Scheduler sched(1);
  const uint64_t news = News([&] {
    Channel<int> ch(sched);
    Channel<Status> status(sched);
  });
  std::printf("idle channels: %llu\n", static_cast<unsigned long long>(news));
  EXPECT_EQ(news, 0u);
}

Async<void> AcquireRelease(LockManager& locks, Tid tid, std::string object) {
  co_await locks.Acquire(tid, object, LockMode::kExclusive, -1);
  locks.Release(tid, object);
}

TEST(AllocationPin, LockKeyWithoutWaitersAllocatesOnlyItsTableEntry) {
  Scheduler sched(1);
  LockManager locks(sched);
  const Tid tid{FamilyId{SiteId{0}, 1}, 0, 0};
  sched.Spawn(AcquireRelease(locks, tid, "a"));
  sched.RunUntilIdle();
  const uint64_t news = News([&] {
    sched.Spawn(AcquireRelease(locks, tid, "b"));
    sched.RunUntilIdle();
  });
  std::printf("uncontended lock key: %llu\n", static_cast<unsigned long long>(news));
  // The table's node and the holder list; the waiter queue allocates nothing.
  EXPECT_EQ(news, 2u);
}

TEST(AllocationPin, EncodeAllocatesOnceAtTheExactSize) {
  TmMsg msg;
  msg.type = TmMsgType::kPrepare;
  msg.tid = Tid{FamilyId{SiteId{0}, 42}, 0, 0};
  msg.from = SiteId{0};
  msg.sites = {SiteId{0}, SiteId{1}, SiteId{2}};
  Bytes wire;
  const uint64_t news = News([&] { wire = msg.Encode(); });
  std::printf("TmMsg encode: %llu (%zu bytes, capacity %zu)\n",
              static_cast<unsigned long long>(news), wire.size(), wire.capacity());
  EXPECT_EQ(news, 1u);
  EXPECT_EQ(wire.capacity(), wire.size());
}

TEST(AllocationPin, FailpointEvaluationAllocatesNothing) {
  FailpointRegistry registry;
  Failpoints points(
      &registry, SiteId{0}, [] { return SimTime{0}; }, [] { return true; }, [] {});
  const char* kPoint = "tm.local.commit_force.before";
  const uint64_t inactive = News([&] { points.Eval(kPoint); });
  // Arming any point makes every evaluation count hits. The first hit of a
  // point creates its counter; later hits find it without building a key.
  registry.Arm("tm.sub.prepare_force.before", SiteId{1}, FailpointArm::Crash(1));
  points.Eval(kPoint);
  const uint64_t active = News([&] { points.Eval(kPoint); });
  std::printf("failpoint eval: inactive %llu, active %llu\n",
              static_cast<unsigned long long>(inactive),
              static_cast<unsigned long long>(active));
  EXPECT_EQ(inactive, 0u);
  EXPECT_EQ(active, 0u);
  EXPECT_EQ(registry.hits(kPoint, SiteId{0}), 2u);
}

Async<Status> LocalUpdate(AppClient& app, int64_t value) {
  auto begin = co_await app.Begin();
  if (!begin.ok()) {
    co_return begin.status();
  }
  Status written = co_await app.WriteInt(*begin, "server:0", "acct", value);
  if (!written.ok()) {
    co_return written;
  }
  co_return co_await app.Commit(*begin);
}

struct CommitCount {
  uint64_t news = 0;
  uint64_t force_point_hits = 0;
  bool ok = false;
};

// operator new calls of the third local update commit on a fresh one-site
// world; the first two warm the frame pool and the tables. With
// `failpoints_active`, an arm that never fires makes every force point, send
// gate and transition evaluate and count.
CommitCount ThirdLocalCommit(bool failpoints_active) {
  WorldConfig cfg;
  cfg.site_count = 1;
  World world(cfg);
  world.AddServer(0, "server:0")->CreateObjectForSetup("acct", EncodeInt64(100));
  if (failpoints_active) {
    world.failpoints().Arm("tm.sub.prepare_force.before", SiteId{0}, FailpointArm::Crash(99));
  }
  AppClient app(world.site(0));
  world.RunSync(LocalUpdate(app, 1));
  world.RunSync(LocalUpdate(app, 2));
  CommitCount count;
  std::optional<Status> status;
  count.news = News([&] { status = world.RunSync(LocalUpdate(app, 3)); });
  count.ok = status.has_value() && status->ok();
  count.force_point_hits = world.failpoints().hits("tm.local.commit_force.before", SiteId{0});
  return count;
}

TEST(AllocationPin, FailpointsAddNoAllocationToACommit) {
  const CommitCount inactive = ThirdLocalCommit(false);
  const CommitCount active = ThirdLocalCommit(true);
  std::printf("local commit: inactive %llu, active %llu\n",
              static_cast<unsigned long long>(inactive.news),
              static_cast<unsigned long long>(active.news));
  ASSERT_TRUE(inactive.ok && active.ok);
  EXPECT_EQ(inactive.force_point_hits, 0u);
  EXPECT_EQ(active.force_point_hits, 3u);
  EXPECT_EQ(active.news, inactive.news);
  // Before frames were pooled and the force points gated on active(), this
  // commit made 166 calls, two of them for the names of its one force point;
  // before event nodes and handle segments were pooled, 66.
  EXPECT_LE(inactive.news, 41u);
}

TEST(AllocationPin, NonBlockingTransferScriptStaysWithinItsCount) {
  ExplorerConfig cfg;
  cfg.site_count = 3;
  cfg.variant = CommitOptions::NonBlocking();
  cfg.transfers = 20;
  RunResult result;
  const uint64_t news = News([&] { result = CrashExplorer(cfg).Run(CrashSchedule{}); });
  ASSERT_TRUE(result.ok) << result.Explain();
  ASSERT_EQ(result.client_ok, cfg.transfers);
  const uint64_t per_transfer = news / static_cast<uint64_t>(result.client_ok);
  std::printf("NBC transfer script: %llu total, %llu per transfer\n",
              static_cast<unsigned long long>(news),
              static_cast<unsigned long long>(per_transfer));
  // World build and audit included. Before frames were pooled, the queues
  // lost std::deque, encodes went to one allocation and failpoints to none,
  // the script made 17,667 calls (883 per transfer). While the scheduler
  // grew a vector per slot and bucket it made 7,678 (383 per transfer); with
  // pooled event nodes and handle segments it makes 6,181.
  constexpr uint64_t kPerTransfer = 309;
  EXPECT_LE(per_transfer, kPerTransfer + kPerTransfer / 10);
}

}  // namespace
}  // namespace camelot
