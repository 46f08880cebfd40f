// Engine microbenchmarks with a committed perf trajectory.
//
// Measures the simulation engine itself — not the modeled system — so the
// numbers are host-seconds, not virtual seconds:
//
//   post_drain        events/sec posting+draining a steady 512k-event working
//                     set with delays spanning the ready list, every rung of
//                     the ladder, and the overflow heap; run on both the
//                     production ladder queue and the preserved pre-ladder
//                     binary heap (src/sim/legacy_heap_scheduler.h) so the
//                     speedup is a machine-independent ratio.
//   timer_churn       events/sec for cancel-heavy timer wheels: most posted
//                     timers fire as cheap no-ops (the common "timeout armed
//                     but RPC answered" shape), ~1.6M pending at steady state.
//                     One full timeout window runs untimed first so both
//                     engines are measured at steady state; both engines again.
//   pingpong          coroutine round-trips/sec between two tasks over a pair
//                     of channels.
//   channel_storm     channel sends/sec with 64 producers fanning into one
//                     consumer.
//   world_commit      committed transactions/sec of host time for the full
//                     Camelot world (Fig. 4 update workload, 4 pairs).
//   sweep             exhaustive crash-sweep wall-clock at 1 thread vs the
//                     host default (each schedule is an independent World, so
//                     the parallel run is bit-identical; see parallel.h).
//   calibration       a fixed xorshift spin, iterations/sec — a pure-CPU
//                     yardstick the regression gate divides by so thresholds
//                     survive host changes.
//
// Flags: --quick (shorter runs, used by the CI perf smoke job) and
// --json=PATH (write the machine-readable results; also always printed on a
// single trailing "JSON: {...}" line; see bench_json.h).
// scripts/compare_bench.py gates CI on events/sec regressions vs the
// committed BENCH_engine.json baseline.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/base/parallel.h"
#include "src/base/rng.h"
#include "src/harness/crash_explorer.h"
#include "src/harness/experiments.h"
#include "src/sim/channel.h"
#include "src/sim/legacy_heap_scheduler.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/stats/table.h"

namespace camelot {
namespace {

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Delay menu matching the determinism tests: ready list (0), bottom slots,
// rung-1 and rung-2 buckets, and (rarely) the overflow heap beyond the ~18min
// ladder horizon. 16 entries so indexing is a mask, not a division.
constexpr SimDuration kDelays[] = {
    0,       1,       640,     1024,  4096, 50000, 999999,        1048576,
    2097152, 5000000, 0,       1,     640,  4096,  50000,         2000000000};

// Steady-state post/drain: prime `working_set` pending events (untimed), then
// each handler posts one replacement, keeping queue occupancy constant while
// `total` events execute. The 24-byte capture exceeds libstdc++'s
// std::function inline buffer but fits EventFn's 56-byte slot, which is the
// realistic shape — scheduler thunks capture a couple of pointers plus state.
template <typename Sched>
double PostDrainEventsPerSec(uint64_t total, size_t working_set) {
  Sched sched(1);
  struct State {
    Sched* sched;
    uint64_t remaining;
    uint64_t mix = 0x9e3779b97f4a7c15ULL;
  } state{&sched, total};

  struct Poster {
    static void Post(State* s, uint64_t salt) {
      s->mix ^= s->mix << 13;
      s->mix ^= s->mix >> 7;
      s->mix ^= s->mix << 17;
      const SimDuration d = kDelays[(s->mix + salt) & (std::size(kDelays) - 1)];
      const uint64_t tag = s->mix;
      s->sched->Post(d, [s, salt, tag] {
        if (s->remaining == 0) {
          return;
        }
        --s->remaining;
        Post(s, salt + (tag & 1) + 1);
      });
    }
  };

  for (size_t i = 0; i < working_set; ++i) {
    Poster::Post(&state, i);
  }
  const double t0 = NowSec();
  while (state.remaining > 0) {
    sched.RunUntilIdle(1 << 14);
  }
  const double dt = NowSec() - t0;
  sched.RunUntilIdle();  // Drain the tail so nothing leaks.
  return static_cast<double>(total) / dt;
}

// Cancel-heavy timers: every event arms a "timeout" far in the future whose
// handler is a no-op by the time it fires (flag already cleared), plus a
// near-term event that keeps the workload running. This is the dominant
// scheduler shape in the RPC layer (retransmit timers that almost never win).
// One full timeout window runs untimed first: until timeouts start
// expiring the binary heap only ever touches its leaves (far-future inserts
// sift nowhere), which flatters it well beyond anything a real run sees.
template <typename Sched>
double TimerChurnEventsPerSec(uint64_t total) {
  constexpr SimDuration kTimeout = 50000;
  Sched sched(1);
  struct State {
    Sched* sched;
    uint64_t remaining;
  } state{&sched, total};

  struct Poster {
    static void Post(State* s, uint64_t i) {
      // The timeout that fires ~50ms later and finds nothing to do; at this
      // posting rate ~1.6M of them are pending at any instant.
      s->sched->Post(kTimeout + static_cast<SimDuration>(i % 997), [] {});
      // The "reply" that arrives quickly and continues the chain.
      s->sched->Post(1 + static_cast<SimDuration>(i % 61), [s, i] {
        if (s->remaining < 2) {
          s->remaining = 0;
          return;
        }
        s->remaining -= 2;
        Post(s, i + 1);
      });
    }
  };

  for (int i = 0; i < 1024; ++i) {
    Poster::Post(&state, static_cast<uint64_t>(i) * 7919);
  }
  sched.RunUntil(sched.now() + kTimeout + 1000);
  const uint64_t timed = state.remaining;
  const double t0 = NowSec();
  while (state.remaining > 0) {
    sched.RunUntilIdle(1 << 14);
  }
  const double dt = NowSec() - t0;
  sched.RunUntilIdle();
  return static_cast<double>(timed) / dt;
}

Async<void> PingTask(Scheduler& sched, Channel<int>& ping, Channel<int>& pong,
                     uint64_t rounds) {
  for (uint64_t i = 0; i < rounds; ++i) {
    ping.Send(static_cast<int>(i));
    co_await pong.Receive();
  }
  (void)sched;
}

Async<void> PongTask(Channel<int>& ping, Channel<int>& pong, uint64_t rounds) {
  for (uint64_t i = 0; i < rounds; ++i) {
    co_await ping.Receive();
    pong.Send(1);
  }
}

double PingPongRoundsPerSec(uint64_t rounds) {
  Scheduler sched(1);
  Channel<int> ping(sched);
  Channel<int> pong(sched);
  sched.Spawn(PongTask(ping, pong, rounds));
  sched.Spawn(PingTask(sched, ping, pong, rounds));
  const double t0 = NowSec();
  sched.RunUntilIdle();
  return static_cast<double>(rounds) / (NowSec() - t0);
}

Async<void> StormProducer(Scheduler& sched, Channel<uint64_t>& ch, uint64_t items,
                          uint64_t id) {
  for (uint64_t i = 0; i < items; ++i) {
    co_await sched.Delay(1 + static_cast<SimDuration>((id * 31 + i) % 97));
    ch.Send(id);
  }
}

Async<void> StormConsumer(Channel<uint64_t>& ch, uint64_t total, uint64_t* seen) {
  for (uint64_t i = 0; i < total; ++i) {
    co_await ch.Receive();
    ++*seen;
  }
}

double ChannelStormSendsPerSec(uint64_t total) {
  Scheduler sched(1);
  Channel<uint64_t> ch(sched);
  const uint64_t producers = 64;
  const uint64_t per = total / producers;
  uint64_t seen = 0;
  sched.Spawn(StormConsumer(ch, per * producers, &seen));
  for (uint64_t p = 0; p < producers; ++p) {
    sched.Spawn(StormProducer(sched, ch, per, p));
  }
  const double t0 = NowSec();
  sched.RunUntilIdle();
  const double dt = NowSec() - t0;
  return static_cast<double>(seen) / dt;
}

// Full-world throughput: committed txns per host second (virtual duration is
// fixed, so this tracks how fast the engine turns the crank on the complete
// stack: network, WAL, lock manager, commit protocol, oracles off).
double WorldCommitsPerHostSec(SimDuration virtual_duration) {
  ThroughputConfig cfg;
  cfg.pairs = 4;
  cfg.duration = virtual_duration;
  const double t0 = NowSec();
  const ThroughputResult r = RunThroughputExperiment(cfg);
  const double dt = NowSec() - t0;
  return static_cast<double>(r.commits) / dt;
}

double SweepWallClock(int threads, int* runs) {
  ExplorerConfig cfg;
  cfg.seed = 3;
  cfg.sweep_threads = threads;
  CrashExplorer explorer(cfg);
  const double t0 = NowSec();
  const auto failures = explorer.ExhaustiveSingleCrashSweep(1, runs);
  (void)failures;
  return NowSec() - t0;
}

// Pure-CPU yardstick: xorshift64* iterations per second. Scheduler-free, so
// the ratio bench/calibration is comparable across hosts of different speeds.
double CalibrationItersPerSec() {
  const uint64_t iters = 200'000'000;
  uint64_t x = 88172645463325252ULL;
  const double t0 = NowSec();
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double dt = NowSec() - t0;
  if (x == 0) {  // Defeat dead-code elimination.
    std::printf("impossible\n");
  }
  return static_cast<double>(iters) / dt;
}

}  // namespace
}  // namespace camelot

int main(int argc, char** argv) {
  using namespace camelot;
  BenchFlags flags;
  if (!ParseBenchFlags(argc, argv, &flags)) {
    return 2;
  }
  const bool quick = flags.quick;

  const uint64_t scale = quick ? 1 : 4;
  std::vector<Metric> metrics;
  auto add = [&metrics](const char* name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
    return value;
  };

  std::printf("=== Engine benchmarks (%s) ===\n\n", quick ? "quick" : "full");

  add("host_cores", std::thread::hardware_concurrency(), "cores");

  const double calib = add("calibration_iters_per_sec", CalibrationItersPerSec(), "iters/s");

  const double pd_ladder = add(
      "post_drain_ladder_eps",
      PostDrainEventsPerSec<Scheduler>(scale * 2'000'000, 512 * 1024), "events/s");
  const double pd_heap = add(
      "post_drain_heap_eps",
      PostDrainEventsPerSec<LegacyHeapScheduler>(scale * 1'000'000, 512 * 1024),
      "events/s");

  // Timer churn primes ~3.3M events per 50ms window before timing starts, so
  // totals must stay several windows long even in quick mode.
  const double tc_ladder = add(
      "timer_churn_ladder_eps",
      TimerChurnEventsPerSec<Scheduler>(quick ? 8'000'000 : 16'000'000),
      "events/s");
  const double tc_heap = add(
      "timer_churn_heap_eps",
      TimerChurnEventsPerSec<LegacyHeapScheduler>(quick ? 6'000'000 : 10'000'000),
      "events/s");

  add("pingpong_rounds_per_sec", PingPongRoundsPerSec(scale * 200'000), "rounds/s");
  add("channel_storm_sends_per_sec", ChannelStormSendsPerSec(scale * 512'000),
      "sends/s");
  add("world_commits_per_host_sec", WorldCommitsPerHostSec(quick ? Sec(20) : Sec(60)),
      "commits/s");

  int runs1 = 0;
  int runsN = 0;
  const int sweep_threads = DefaultSweepThreads();
  const double sweep1 = SweepWallClock(1, &runs1);
  const double sweepN = SweepWallClock(sweep_threads, &runsN);
  add("sweep_serial_sec", sweep1, "s");
  add("sweep_parallel_sec", sweepN, "s");
  add("sweep_threads", sweep_threads, "threads");
  if (runs1 != runsN) {
    std::fprintf(stderr, "sweep run counts diverged: %d vs %d\n", runs1, runsN);
    return 1;
  }

  Table table({"METRIC", "VALUE", "UNIT"});
  for (const Metric& m : metrics) {
    table.AddRow({m.name, Table::Num(m.value, 1), m.unit});
  }
  table.Print();

  std::printf("\nladder vs heap: post/drain %.2fx, timer churn %.2fx\n",
              pd_ladder / pd_heap, tc_ladder / tc_heap);
  std::printf("sweep (%d runs): %.2fs serial -> %.2fs at %d threads (%.2fx)\n", runs1,
              sweep1, sweepN, sweep_threads, sweep1 / sweepN);
  std::printf("normalized post/drain: %.3f events per 1k calibration iters\n",
              1000.0 * pd_ladder / calib);

  return EmitJson("engine", flags, metrics) ? 0 : 1;
}
