// Determinism property tests for the ladder-queue scheduler: identical seeds
// must produce identical event interleavings on the production engine and on
// the preserved pre-ladder binary heap (src/sim/legacy_heap_scheduler.h),
// including the equal-time FIFO tie-break, ring/overflow window crossings,
// and PostAt-in-the-past rejection.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/base/types.h"
#include "src/sim/legacy_heap_scheduler.h"
#include "src/sim/scheduler.h"

namespace camelot {
namespace {

// One trace entry per executed event: virtual time + the label assigned at
// post time (post order). Two engines agree on the ordering contract iff they
// produce identical traces for the same seeded workload.
using Trace = std::vector<std::pair<SimTime, int>>;

// Delay menu spanning every queue tier: 0 (ready list), sub-bucket, exact
// bucket-width boundaries, mid-ring, the exact ring span (first overflow
// time), and far-future overflow that must migrate back into the ring.
constexpr SimDuration kDelays[] = {0,       0,       1,       7,       640,
                                   1023,    1024,    4096,    50000,   999999,
                                   1048575, 1048576, 2097152, 5000000};

template <typename Sched>
struct RandomWorkload {
  Sched& sched;
  Rng rng;
  Trace trace;
  int posted = 0;
  int budget;

  RandomWorkload(Sched& s, uint64_t seed, int budget_in)
      : sched(s), rng(seed), budget(budget_in) {}

  void PostChildren() {
    const int kids = static_cast<int>(rng.NextBounded(4));
    for (int k = 0; k < kids && posted < budget; ++k) {
      const SimDuration d = kDelays[rng.NextBounded(std::size(kDelays))];
      const int label = posted++;
      sched.Post(d, [this, label] {
        trace.emplace_back(sched.now(), label);
        PostChildren();
      });
    }
  }

  void Seed(int roots) {
    for (int r = 0; r < roots && posted < budget; ++r) {
      const int label = posted++;
      sched.Post(kDelays[rng.NextBounded(std::size(kDelays))], [this, label] {
        trace.emplace_back(sched.now(), label);
        PostChildren();
      });
    }
  }
};

template <typename Sched>
Trace RunDrained(uint64_t seed, int budget) {
  Sched sched(seed);
  RandomWorkload<Sched> w(sched, seed * 7919 + 1, budget);
  w.Seed(5);
  sched.RunUntilIdle();
  EXPECT_EQ(sched.pending_events(), 0u);
  return std::move(w.trace);
}

// Same workload drained through repeated RunUntil() steps (exercises the
// deadline path: partial drains, clock jumps across empty stretches).
template <typename Sched>
Trace RunStepped(uint64_t seed, int budget) {
  Sched sched(seed);
  RandomWorkload<Sched> w(sched, seed * 7919 + 1, budget);
  w.Seed(5);
  SimTime t = 0;
  while (sched.pending_events() > 0) {
    t += Usec(137013);
    sched.RunUntil(t);
  }
  return std::move(w.trace);
}

TEST(SchedDeterminismTest, LadderMatchesLegacyHeapAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const Trace ladder = RunDrained<Scheduler>(seed, 4000);
    const Trace heap = RunDrained<LegacyHeapScheduler>(seed, 4000);
    ASSERT_EQ(ladder.size(), heap.size()) << "seed " << seed;
    ASSERT_EQ(ladder, heap) << "seed " << seed;
  }
}

TEST(SchedDeterminismTest, SteppedRunUntilMatchesLegacyHeap) {
  for (uint64_t seed = 20; seed <= 26; ++seed) {
    const Trace ladder = RunStepped<Scheduler>(seed, 2500);
    const Trace heap = RunStepped<LegacyHeapScheduler>(seed, 2500);
    ASSERT_EQ(ladder, heap) << "seed " << seed;
  }
}

TEST(SchedDeterminismTest, IdenticalSeedsIdenticalTraces) {
  const Trace a = RunDrained<Scheduler>(42, 3000);
  const Trace b = RunDrained<Scheduler>(42, 3000);
  EXPECT_EQ(a, b);
}

// Equal-time FIFO across tiers: events that land at the same virtual instant
// via different routes (posted far ahead into the overflow heap, posted into
// a ring bucket, posted at delay 0 once the time arrives) must still run in
// post order.
TEST(SchedDeterminismTest, EqualTimeFifoAcrossTiers) {
  auto run = [](auto& sched) {
    std::vector<int> order;
    const SimTime t = Usec(3000000);  // Beyond the ring span: overflow first.
    sched.PostAt(t, [&] { order.push_back(0); });   // Overflow tier.
    sched.Post(Usec(2999999), [&order, &sched, t] {
      // One tick before t (by now migrated into the ring): post two more at
      // exactly t — they land in the cursor bucket behind the migrated event.
      sched.PostAt(t, [&order] { order.push_back(2); });
      sched.PostAt(t, [&order, &sched] {
        // Runs at t: a delay-0 post joins the ready list at the same instant.
        sched.Post(0, [&order] { order.push_back(4); });
        order.push_back(3);
      });
      order.push_back(1);
    });
    sched.RunUntilIdle();
    return order;
  };
  Scheduler ladder(1);
  LegacyHeapScheduler heap(1);
  const std::vector<int> expect = {1, 0, 2, 3, 4};
  EXPECT_EQ(run(ladder), expect);
  EXPECT_EQ(run(heap), expect);
}

// One microsecond that holds more events than a handle segment (20 handles),
// reached by every route into its bottom slot: a batch posted at time 0
// waits in the overflow heap and migrates into rung 2; one posted early in
// the instant's rung-2 epoch is spread from rung 2; one posted early in its
// rung-1 epoch is spread from rung 1; one posted inside its bottom window
// lands in the slot directly. Each batch spans several segments on its own.
// While the instant drains, events post delay-0 children into the ready
// list, and some children post again, so that list spans segments too.
template <typename Sched>
Trace CrowdedInstant() {
  constexpr SimTime kEpoch2 = SimTime{3} << 30;             // The instant's rung-2 epoch,
  constexpr SimTime kEpoch1 = kEpoch2 + (SimTime{5} << 20);  // its rung-1 epoch
  constexpr SimTime kWindow = kEpoch1 + (SimTime{7} << 10);  // and its bottom window.
  constexpr SimTime kInstant = kWindow + 3;
  constexpr int kBatch = 45;
  Sched sched(1);
  Trace trace;
  int labels = 0;
  std::function<void(int)> child = [&](int label) {
    trace.emplace_back(sched.now(), label);
    if (label % 3 == 0) {
      sched.Post(0, [&child, id = labels++] { child(id); });
    }
  };
  const auto batch = [&] {
    sched.PostAt(kInstant - 1, [&, id = labels++] { trace.emplace_back(sched.now(), id); });
    for (int i = 0; i < kBatch; ++i) {
      sched.PostAt(kInstant, [&, id = labels++] {
        trace.emplace_back(sched.now(), id);
        if (id % 2 == 0) {
          sched.Post(0, [&child, cid = labels++] { child(cid); });
        }
      });
    }
    sched.PostAt(kInstant + 1, [&, id = labels++] { trace.emplace_back(sched.now(), id); });
  };
  batch();                                                  // Overflow, then rung 2.
  sched.PostAt(kEpoch2 + (SimTime{1} << 20) + 17, batch);   // Rung 2.
  sched.PostAt(kEpoch1 + (SimTime{2} << 10) + 5, batch);    // Rung 1.
  sched.PostAt(kInstant - 2, batch);                        // The bottom slot.
  sched.RunUntilIdle();
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(std::count_if(trace.begin(), trace.end(),
                          [](const auto& e) { return e.first == kInstant; }),
            4 * kBatch + labels - 4 * (kBatch + 2));
  return trace;
}

TEST(SchedDeterminismTest, CrowdedInstantMatchesLegacyHeapAcrossSegments) {
  const Trace ladder = CrowdedInstant<Scheduler>();
  const Trace heap = CrowdedInstant<LegacyHeapScheduler>();
  ASSERT_EQ(ladder.size(), heap.size());
  EXPECT_EQ(ladder, heap);
}

TEST(SchedDeterminismDeathTest, PostAtInThePastRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler sched(1);
        sched.Post(Usec(10), [] {});
        sched.RunUntilIdle();  // now == 10us.
        sched.PostAt(Usec(5), [] {});
      },
      "CHECK failed");
  EXPECT_DEATH(
      {
        LegacyHeapScheduler sched(1);
        sched.Post(Usec(10), [] {});
        sched.RunUntilIdle();
        sched.PostAt(Usec(5), [] {});
      },
      "CHECK failed");
}

TEST(SchedDeterminismDeathTest, NegativeDelayRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler sched(1);
        sched.Post(-1, [] {});
      },
      "CHECK failed");
}

// max_events exhaustion is distinguishable from a drained queue.
TEST(SchedDeterminismTest, DrainResultDistinguishesGuardFromIdle) {
  Scheduler sched(1);
  for (int i = 0; i < 10; ++i) {
    sched.Post(Usec(i), [] {});
  }
  const DrainResult partial = sched.RunUntilIdle(4);
  EXPECT_EQ(partial.processed, 4u);
  EXPECT_FALSE(partial.drained);
  EXPECT_EQ(sched.pending_events(), 6u);

  const DrainResult rest = sched.RunUntilIdle();
  EXPECT_EQ(rest.processed, 6u);
  EXPECT_TRUE(rest.drained);

  // Exactly hitting the guard with nothing left still reports drained.
  sched.Post(0, [] {});
  const DrainResult exact = sched.RunUntilIdle(1);
  EXPECT_EQ(exact.processed, 1u);
  EXPECT_TRUE(exact.drained);

  // Existing arithmetic call sites keep working via the size_t conversion.
  sched.Post(0, [] {});
  EXPECT_TRUE(sched.RunUntilIdle(1) > 0);
}

TEST(SchedDeterminismTest, RunUntilAdvancesClockPastIdleGaps) {
  Scheduler sched(1);
  std::vector<SimTime> fired;
  sched.Post(Usec(100), [&] { fired.push_back(sched.now()); });
  sched.Post(Sec(10), [&] { fired.push_back(sched.now()); });
  EXPECT_EQ(sched.RunUntil(Sec(1)), 1u);
  EXPECT_EQ(sched.now(), Sec(1));
  EXPECT_EQ(sched.RunUntil(Sec(20)), 1u);
  EXPECT_EQ(sched.now(), Sec(20));
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], Usec(100));
  EXPECT_EQ(fired[1], Sec(10));
}

}  // namespace
}  // namespace camelot
