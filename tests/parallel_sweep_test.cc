// Parallel-sweep determinism: every explorer sweep must produce byte-identical
// results — run counts, failing schedules, violation text, and replay
// recipes, in the same order — at any host thread count, because each
// schedule runs in its own World and the merge happens in schedule order.
//
// To get a sweep with a rich, deterministic failure set we set
// max_restart_attempts = 0: every crash schedule leaves its site down, so the
// heal loop reports "still down" violations for each crashed site and the
// exhaustive sweep fails on every schedule.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/parallel.h"
#include "src/harness/crash_explorer.h"

namespace camelot {
namespace {

struct CrashSweepOutcome {
  int runs = 0;
  std::vector<std::string> schedules;
  std::vector<std::string> replays;
  std::vector<std::string> violations;
};

CrashSweepOutcome RunCrashSweep(int threads) {
  ExplorerConfig config;
  config.seed = 7;
  config.transfers = 2;
  config.max_restart_attempts = 0;  // Crashed sites stay down: every schedule fails.
  config.sweep_threads = threads;
  CrashExplorer explorer(config);
  CrashSweepOutcome out;
  const std::vector<SweepFailure> failures =
      explorer.ExhaustiveSingleCrashSweep(/*max_hits_per_point=*/1, &out.runs);
  for (const SweepFailure& f : failures) {
    out.schedules.push_back(f.plan.schedule.ToString());
    out.replays.push_back(f.result.replay);
    for (const std::string& v : f.result.violations) {
      out.violations.push_back(v);
    }
  }
  return out;
}

TEST(ParallelSweepTest, ExhaustiveCrashSweepIdenticalAcrossThreadCounts) {
  const CrashSweepOutcome serial = RunCrashSweep(1);
  ASSERT_GT(serial.runs, 0);
  ASSERT_FALSE(serial.schedules.empty())
      << "max_restart_attempts=0 should make every crash schedule fail";
  for (int threads : {2, 8}) {
    const CrashSweepOutcome parallel = RunCrashSweep(threads);
    EXPECT_EQ(parallel.runs, serial.runs) << "threads=" << threads;
    EXPECT_EQ(parallel.schedules, serial.schedules) << "threads=" << threads;
    EXPECT_EQ(parallel.replays, serial.replays) << "threads=" << threads;
    EXPECT_EQ(parallel.violations, serial.violations) << "threads=" << threads;
  }
}

TEST(ParallelSweepTest, RandomCrashSweepIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    ExplorerConfig config;
    config.seed = 11;
    config.transfers = 2;
    config.max_restart_attempts = 0;
    config.sweep_threads = threads;
    CrashExplorer explorer(config);
    int runs = 0;
    std::vector<std::string> out;
    for (const SweepFailure& f :
         explorer.RandomSweep(/*rng_seed=*/99, /*rounds=*/6, /*max_faults=*/2, &runs)) {
      out.push_back(f.plan.schedule.ToString() + " => " + f.result.replay);
    }
    out.push_back("runs=" + std::to_string(runs));
    return out;
  };
  const std::vector<std::string> serial = run(1);
  const std::vector<std::string> parallel = run(8);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelSweepTest, RandomNemesisSweepIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    ExplorerConfig config = PartitionStudy();
    config.seed = 5;
    config.transfers = 2;
    config.sweep_threads = threads;
    CrashExplorer explorer(config);
    int runs = 0;
    std::vector<std::string> out;
    for (const SweepFailure& f :
         explorer.RandomNemesisSweep(/*rng_seed=*/123, /*rounds=*/4, &runs)) {
      out.push_back(f.plan.script.ToString() + " => " + f.result.replay);
      for (const std::string& v : f.result.violations) {
        out.push_back(v);
      }
    }
    out.push_back("runs=" + std::to_string(runs));
    return out;
  };
  const std::vector<std::string> serial = run(1);
  const std::vector<std::string> parallel = run(8);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    const size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    ParallelFor(threads, n, [&](size_t i) { visits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ParallelForTest, HandlesEmptyAndSingleItem) {
  int calls = 0;
  ParallelFor(8, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(8, 1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, ResolveSweepThreadsPrefersConfigured) {
  EXPECT_EQ(ResolveSweepThreads(3), 3);
  EXPECT_EQ(ResolveSweepThreads(1), 1);
  EXPECT_GE(ResolveSweepThreads(0), 1);
  EXPECT_GE(DefaultSweepThreads(), 1);
}

}  // namespace
}  // namespace camelot
