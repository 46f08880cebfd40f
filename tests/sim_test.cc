// Unit tests for the discrete-event simulation kernel: scheduler ordering,
// Async task composition, channels, timeouts, mutexes, and fork/join.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/channel.h"
#include "src/sim/fifo.h"
#include "src/sim/scheduler.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace camelot {
namespace {

TEST(SchedulerTest, PostRunsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.Post(Msec(30), [&] { order.push_back(3); });
  sched.Post(Msec(10), [&] { order.push_back(1); });
  sched.Post(Msec(20), [&] { order.push_back(2); });
  sched.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), Msec(30));
}

TEST(SchedulerTest, EqualTimesRunFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.Post(Msec(5), [&order, i] { order.push_back(i); });
  }
  sched.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SchedulerTest, RunUntilStopsAtDeadline) {
  Scheduler sched;
  int ran = 0;
  sched.Post(Msec(10), [&] { ++ran; });
  sched.Post(Msec(50), [&] { ++ran; });
  sched.RunUntil(Msec(20));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sched.now(), Msec(20));
  sched.RunUntilIdle();
  EXPECT_EQ(ran, 2);
}

TEST(SchedulerTest, NestedPostDuringEvent) {
  Scheduler sched;
  std::vector<int> order;
  sched.Post(Msec(10), [&] {
    order.push_back(1);
    sched.Post(Msec(5), [&] { order.push_back(2); });
  });
  sched.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.now(), Msec(15));
}

Async<void> DelayTwice(Scheduler& sched, std::vector<SimTime>* times) {
  co_await sched.Delay(Msec(10));
  times->push_back(sched.now());
  co_await sched.Delay(Msec(15));
  times->push_back(sched.now());
}

TEST(TaskTest, DelaysAdvanceVirtualTime) {
  Scheduler sched;
  std::vector<SimTime> times;
  sched.Spawn(DelayTwice(sched, &times));
  sched.RunUntilIdle();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], Msec(10));
  EXPECT_EQ(times[1], Msec(25));
}

Async<int> Add(Scheduler& sched, int a, int b) {
  co_await sched.Delay(Usec(1));
  co_return a + b;
}

Async<int> Compose(Scheduler& sched) {
  int x = co_await Add(sched, 1, 2);
  int y = co_await Add(sched, x, 10);
  co_return y;
}

Async<void> Capture(Scheduler& sched, int* out) { *out = co_await Compose(sched); }

TEST(TaskTest, NestedAwaitsReturnValues) {
  Scheduler sched;
  int result = 0;
  sched.Spawn(Capture(sched, &result));
  sched.RunUntilIdle();
  EXPECT_EQ(result, 13);
}

TEST(TaskTest, UnstartedTaskIsSafelyDropped) {
  Scheduler sched;
  int touched = 0;
  {
    auto t = Capture(sched, &touched);
    // Dropped without being awaited or spawned: must not run or leak-crash.
  }
  sched.RunUntilIdle();
  EXPECT_EQ(touched, 0);
}

Async<void> Producer(Scheduler& sched, Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sched.Delay(Msec(1));
    ch.Send(i);
  }
}

Async<void> Consumer(Channel<int>& ch, std::vector<int>* got) {
  while (true) {
    std::optional<int> v = co_await ch.Receive();
    if (!v) {
      break;
    }
    got->push_back(*v);
  }
}

TEST(ChannelTest, ProducerConsumerFifo) {
  Scheduler sched;
  Channel<int> ch(sched);
  std::vector<int> got;
  sched.Spawn(Consumer(ch, &got));
  sched.Spawn(Producer(sched, ch, 5));
  sched.Post(Msec(100), [&] { ch.Close(); });
  sched.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ChannelTest, SendBeforeReceiveQueues) {
  Scheduler sched;
  Channel<std::string> ch(sched);
  ch.Send("a");
  ch.Send("b");
  std::vector<std::string> got;
  sched.Spawn([](Channel<std::string>& c, std::vector<std::string>* out) -> Async<void> {
    out->push_back(*co_await c.Receive());
    out->push_back(*co_await c.Receive());
  }(ch, &got));
  sched.RunUntilIdle();
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
}

TEST(ChannelTest, CloseWakesAllReceiversWithNullopt) {
  Scheduler sched;
  Channel<int> ch(sched);
  int closed_count = 0;
  for (int i = 0; i < 3; ++i) {
    sched.Spawn([](Channel<int>& c, int* count) -> Async<void> {
      auto v = co_await c.Receive();
      if (!v) {
        ++*count;
      }
    }(ch, &closed_count));
  }
  sched.Post(Msec(10), [&] { ch.Close(); });
  sched.RunUntilIdle();
  EXPECT_EQ(closed_count, 3);
}

TEST(ChannelTest, SendAfterCloseIsDropped) {
  Scheduler sched;
  Channel<int> ch(sched);
  ch.Close();
  ch.Send(42);
  EXPECT_TRUE(ch.empty());
}

TEST(ChannelTest, ReceiveTimeoutFiresWhenNoMessage) {
  Scheduler sched;
  Channel<int> ch(sched);
  std::optional<int> result = std::make_optional(99);
  SimTime resumed_at = 0;
  sched.Spawn([](Scheduler& s, Channel<int>& c, std::optional<int>* out,
                 SimTime* at) -> Async<void> {
    *out = co_await c.ReceiveTimeout(Msec(50));
    *at = s.now();
  }(sched, ch, &result, &resumed_at));
  sched.RunUntilIdle();
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(resumed_at, Msec(50));
}

TEST(ChannelTest, ReceiveTimeoutGetsMessageIfInTime) {
  Scheduler sched;
  Channel<int> ch(sched);
  std::optional<int> result;
  sched.Spawn([](Channel<int>& c, std::optional<int>* out) -> Async<void> {
    *out = co_await c.ReceiveTimeout(Msec(50));
  }(ch, &result));
  sched.Post(Msec(10), [&] { ch.Send(7); });
  sched.RunUntilIdle();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, 7);
}

TEST(ChannelTest, TimedOutWaiterDoesNotStealLaterMessage) {
  Scheduler sched;
  Channel<int> ch(sched);
  std::optional<int> first;
  std::optional<int> second;
  sched.Spawn([](Channel<int>& c, std::optional<int>* out) -> Async<void> {
    *out = co_await c.ReceiveTimeout(Msec(10));
  }(ch, &first));
  sched.Spawn([](Channel<int>& c, std::optional<int>* out) -> Async<void> {
    *out = co_await c.ReceiveTimeout(Msec(100));
  }(ch, &second));
  sched.Post(Msec(20), [&] { ch.Send(5); });
  sched.RunUntilIdle();
  EXPECT_FALSE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 5);
}

TEST(ChannelTest, ReceiveTimeoutRacingCloseResumesExactlyOnce) {
  // Close lands at the same virtual instant as the timeout. Whichever event
  // runs first claims the waiter; the other must see it non-pending and back
  // off -- the receiver resumes exactly once, with nullopt.
  Scheduler sched;
  Channel<int> ch(sched);
  int resumes = 0;
  bool got_value = false;
  sched.Spawn([](Channel<int>& c, int* n, bool* got) -> Async<void> {
    auto v = co_await c.ReceiveTimeout(Msec(50));
    ++*n;
    *got = v.has_value();
  }(ch, &resumes, &got_value));
  sched.Post(Msec(50), [&] { ch.Close(); });
  sched.RunUntilIdle();
  EXPECT_EQ(resumes, 1);
  EXPECT_FALSE(got_value);
}

TEST(ChannelTest, DestructionWithPendingTimedReceiverIsSafe) {
  // The timer thunk holds a raw back-pointer to the channel. Destroying the
  // channel before the timer fires must (a) wake the receiver with nullopt
  // via the destructor's Close, and (b) neutralize the thunk so its later
  // firing never touches the dead channel.
  Scheduler sched;
  int resumes = 0;
  bool got_value = false;
  auto ch = std::make_unique<Channel<int>>(sched);
  sched.Spawn([](Channel<int>& c, int* n, bool* got) -> Async<void> {
    auto v = co_await c.ReceiveTimeout(Msec(100));
    ++*n;
    *got = v.has_value();
  }(*ch, &resumes, &got_value));
  sched.RunUntil(Msec(10));
  ch.reset();  // Close + free while the 100ms timer is still queued.
  sched.RunUntilIdle();  // Timer fires at 100ms against the dead channel.
  EXPECT_EQ(resumes, 1);
  EXPECT_FALSE(got_value);
  EXPECT_EQ(sched.now(), Msec(100));
}

TEST(ChannelTest, FilledTimedReceiverSurvivesChannelDestructionBeforeTimerFires) {
  // A message arrives in time, the channel dies, and only then does the stale
  // timer thunk run: it must see the waiter kFilled and return untouched.
  Scheduler sched;
  std::optional<int> result;
  auto ch = std::make_unique<Channel<int>>(sched);
  sched.Spawn([](Channel<int>& c, std::optional<int>* out) -> Async<void> {
    *out = co_await c.ReceiveTimeout(Msec(100));
  }(*ch, &result));
  sched.Post(Msec(10), [&] { ch->Send(7); });
  sched.RunUntil(Msec(20));
  ch.reset();
  sched.RunUntilIdle();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, 7);
}

Async<void> CriticalSection(Scheduler& sched, SimMutex& mu, int id, std::vector<int>* order) {
  co_await mu.Lock();
  order->push_back(id);
  co_await sched.Delay(Msec(10));
  order->push_back(id);
  mu.Unlock();
}

TEST(FifoTest, KeepsOrderAcrossInterleavedPushesPopsAndErases) {
  Fifo<std::unique_ptr<int>> q;
  std::vector<int> model;  // The expected contents, oldest first.
  int next = 0;
  for (int round = 0; round < 200; ++round) {
    // Bursts of pushes and pops in varying proportion, so the popped prefix
    // sometimes drains the queue and sometimes outgrows the live items.
    for (int i = 0; i < round % 7; ++i) {
      q.push_back(std::make_unique<int>(next));
      model.push_back(next++);
    }
    for (int i = 0; i < round % 5 && !model.empty(); ++i) {
      ASSERT_EQ(*q.front(), model.front());
      EXPECT_EQ(*q.pop_front(), model.front());
      model.erase(model.begin());
    }
    if (round % 11 == 0) {
      q.erase_if([](const std::unique_ptr<int>& v) { return *v % 3 == 0; });
      std::erase_if(model, [](int v) { return v % 3 == 0; });
    }
    ASSERT_EQ(q.size(), model.size());
    std::vector<int> seen;
    for (const auto& v : q) {
      seen.push_back(*v);
    }
    ASSERT_EQ(seen, model);
  }
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(SimMutexTest, MutualExclusionAndFifoFairness) {
  Scheduler sched;
  SimMutex mu(sched);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sched.Spawn(CriticalSection(sched, mu, i, &order));
  }
  sched.RunUntilIdle();
  // Each section's two entries must be adjacent (exclusion) and in spawn order (FIFO).
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order, (std::vector<int>{0, 0, 1, 1, 2, 2}));
  EXPECT_FALSE(mu.held());
}

Async<int> SlowValue(Scheduler& sched, SimDuration d, int v) {
  co_await sched.Delay(d);
  co_return v;
}

Async<void> RunJoinAll(Scheduler& sched, std::vector<int>* out, SimTime* finished) {
  std::vector<Async<int>> tasks;
  tasks.push_back(SlowValue(sched, Msec(30), 1));
  tasks.push_back(SlowValue(sched, Msec(10), 2));
  tasks.push_back(SlowValue(sched, Msec(20), 3));
  *out = co_await JoinAll(sched, std::move(tasks));
  *finished = sched.now();
}

TEST(JoinAllTest, RunsInParallelAndPreservesOrder) {
  Scheduler sched;
  std::vector<int> results;
  SimTime finished = 0;
  sched.Spawn(RunJoinAll(sched, &results, &finished));
  sched.RunUntilIdle();
  EXPECT_EQ(results, (std::vector<int>{1, 2, 3}));
  // Parallel: total time is the max (30ms), not the sum (60ms).
  EXPECT_EQ(finished, Msec(30));
}

TEST(EventStorageTest, SmallLambdasStayInline) {
  Scheduler sched;
  int hits = 0;
  for (int i = 0; i < 100; ++i) {
    sched.Post(Usec(i), [&hits] { ++hits; });  // Capture fits inline.
  }
  EXPECT_EQ(sched.inline_posts(), 100u);
  EXPECT_EQ(sched.pooled_posts(), 0u);
  EXPECT_EQ(sched.slab_pool().fresh_allocs(), 0u);
  sched.RunUntilIdle();
  EXPECT_EQ(hits, 100);
}

TEST(EventStorageTest, OversizedLambdasUseSlabPoolAndRecycle) {
  Scheduler sched;
  struct Big {
    char payload[200] = {};
  };
  int hits = 0;
  // Serial post/run: the second round must reuse the first round's blocks.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      Big big;
      big.payload[0] = static_cast<char>(i);
      sched.Post(Usec(i), [big, &hits] { hits += big.payload[0] >= 0 ? 1 : 0; });
    }
    sched.RunUntilIdle();
  }
  EXPECT_EQ(hits, 24);
  EXPECT_EQ(sched.pooled_posts(), 24u);
  EXPECT_EQ(sched.inline_posts(), 0u);
  // Only the first round's blocks are fresh; later rounds recycle.
  EXPECT_LE(sched.slab_pool().fresh_allocs(), 8u);
  EXPECT_GE(sched.slab_pool().reused(), 16u);
}

TEST(EventStorageTest, MoveOnlyCapturesSupported) {
  Scheduler sched;
  auto owned = std::make_unique<int>(41);
  int seen = 0;
  sched.Post(Usec(1), [p = std::move(owned), &seen] { seen = *p + 1; });
  sched.RunUntilIdle();
  EXPECT_EQ(seen, 42);
}

// Destroying a scheduler with events still pending on every tier (ready
// list, bottom slot, both rungs, overflow heap; more than a handle segment
// on each) destroys each pending capture exactly once without running it.
// Its destructor also checks that every pooled capture's slab block came
// back to the pool.
TEST(EventStorageTest, DestructionDestroysEachPendingCaptureOnce) {
  // Counts its own destruction; a moved-from Counted counts nothing.
  struct Counted {
    int* destroyed;
    explicit Counted(int* d) : destroyed(d) {}
    Counted(Counted&& other) noexcept : destroyed(std::exchange(other.destroyed, nullptr)) {}
    Counted& operator=(Counted&&) = delete;
    ~Counted() {
      if (destroyed != nullptr) {
        ++*destroyed;
      }
    }
  };
  struct Big {
    char payload[200] = {};
  };
  constexpr SimDuration kTierDelays[] = {0, 7, Msec(5), Sec(3), Sec(5000)};
  constexpr int kPerTier = 25;
  constexpr int kEach = kPerTier * static_cast<int>(std::size(kTierDelays));
  int ran = 0;
  int inline_destroyed = 0;
  int pooled_destroyed = 0;
  {
    Scheduler sched;
    for (SimDuration delay : kTierDelays) {
      for (int i = 0; i < kPerTier; ++i) {
        sched.Post(delay, [&ran] { ++ran; });
        sched.Post(delay, [c = Counted(&inline_destroyed), &ran] { ++ran; });
        sched.Post(delay, [c = Counted(&pooled_destroyed), big = Big{}, &ran] {
          ran += big.payload[0] + 1;
        });
      }
    }
    EXPECT_EQ(sched.pending_events(), static_cast<size_t>(3 * kEach));
    EXPECT_EQ(sched.inline_posts(), static_cast<uint64_t>(2 * kEach));
    EXPECT_EQ(sched.pooled_posts(), static_cast<uint64_t>(kEach));
    EXPECT_EQ(sched.slab_pool().outstanding(), static_cast<uint64_t>(kEach));
    EXPECT_EQ(inline_destroyed, 0);
    EXPECT_EQ(pooled_destroyed, 0);
  }
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(inline_destroyed, kEach);
  EXPECT_EQ(pooled_destroyed, kEach);
}

TEST(RngTest, DeterministicAcrossRuns) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, ExponentialHasRoughlyCorrectMean) {
  Rng rng(7);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

}  // namespace
}  // namespace camelot
