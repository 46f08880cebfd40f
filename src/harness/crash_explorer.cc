#include "src/harness/crash_explorer.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/static_analysis.h"
#include "src/harness/isolation_oracle.h"
#include "src/harness/oracle.h"
#include "src/harness/parallel.h"
#include "src/harness/replay.h"

namespace camelot {
namespace {

std::string Srv(int i) { return "server:" + std::to_string(i); }

// Tight protocol timers (the failure_test tuning): crash scenarios resolve in
// seconds of virtual time, and zero jitter keeps every run bit-deterministic.
WorldConfig MakeWorldConfig(const ExplorerConfig& cfg) {
  WorldConfig w;
  w.site_count = cfg.site_count;
  w.seed = cfg.seed;
  w.net.send_jitter_mean = 0;
  w.net.stall_probability = 0;
  w.net.receive_skew_mean = 0;
  w.tranman.outcome_timeout = Usec(400000);
  w.tranman.retry_interval = Usec(300000);
  w.tranman.takeover_backoff = Usec(300000);
  w.tranman.orphan_check_interval = Sec(1.0);
  w.ipc.rpc_timeout = Sec(1.5);
  w.server.lock_wait_timeout = Sec(1.0);
  return w;
}

Async<Status> OneTransfer(AppClient& app, std::string from_srv, std::string to_srv,
                          int64_t amount, CommitOptions options) {
  auto begin = co_await app.Begin();
  if (!begin.ok()) {
    co_return begin.status();
  }
  const Tid tid = *begin;
  auto a = co_await app.ReadInt(tid, from_srv, "vault");
  auto b = co_await app.ReadInt(tid, to_srv, "vault");
  if (!a.ok() || !b.ok()) {
    co_await app.Abort(tid);
    co_return AbortedError("read failed");
  }
  Status w1 = co_await app.WriteInt(tid, from_srv, "vault", *a - amount);
  Status w2 = co_await app.WriteInt(tid, to_srv, "vault", *b + amount);
  if (!w1.ok() || !w2.ok()) {
    co_await app.Abort(tid);
    co_return AbortedError("write failed");
  }
  co_return co_await app.Commit(tid, options);
}

// The fixed workload: `transfers` serial transfers issued from site 0's
// application; transfer i moves `amount` from vault i%N to vault (i+1)%N, so
// with N >= 3 every transfer spans three sites (coordinator + two vault
// owners). One transaction per transfer, never retried — the oracle reasons
// about which attempts committed, and a retry would be a second attempt.
Async<void> Workload(World* world, ExplorerConfig cfg, std::vector<Status>* statuses,
                     std::vector<bool>* attempted, bool* done) {
  AppClient app(world->site(0));
  const int n = cfg.site_count;
  const CommitOptions options = cfg.Options();
  for (int i = 0; i < cfg.transfers; ++i) {
    // If the home site is down (a schedule crashed it), wait out the outage —
    // bounded, so the run always quiesces even if healing fails.
    for (int wait = 0; wait < 8 && !world->site(0).site().up(); ++wait) {
      co_await world->sched().Delay(Sec(1));
    }
    if (!world->site(0).site().up()) {
      statuses->push_back(UnavailableError("home site down"));
      attempted->push_back(false);
      continue;
    }
    Status st = co_await OneTransfer(app, Srv(i % n), Srv((i + 1) % n), cfg.amount, options);
    statuses->push_back(st);
    attempted->push_back(true);
  }
  *done = true;
}

void Violate(RunResult* out, std::string text) {
  out->ok = false;
  out->violations.push_back(std::move(text));
}

}  // namespace

std::string RunResult::Explain() const {
  std::string out;
  for (const auto& v : violations) {
    out += "  - " + v + "\n";
  }
  return out;
}

std::string CrashExplorer::ReplayPrefix() const {
  return ReplayRecipePrefix(config_.seed, config_.Options());
}

std::vector<DiscoveredPoint> CrashExplorer::Discover() {
  return Run(CrashSchedule{}, /*record=*/true).discovered;
}

RunResult CrashExplorer::Run(const CrashSchedule& schedule, bool record) {
  RunResult out;
  out.replay =
      ReplayRecipe(config_.seed, config_.Options(), "CAMELOT_SCHEDULE", schedule.ToString());

  World world(MakeWorldConfig(config_));
  world.history().set_enabled(true);  // Record from the first setup install on.
  const int n = config_.site_count;
  for (int i = 0; i < n; ++i) {
    world.AddServer(i, Srv(i))->CreateObjectForSetup("vault",
                                                     EncodeInt64(config_.initial_balance));
  }
  if (record) {
    world.failpoints().set_recording(true);
  }
  schedule.ArmAll(world.failpoints());

  std::vector<Status> statuses;
  std::vector<bool> attempted;
  bool done = false;
  world.sched().Spawn(Workload(&world, config_, &statuses, &attempted, &done));
  world.RunFor(config_.workload_window);

  // Heal: restart every down site, again if a recovery.* crash took one back
  // down mid-restart (recovery must be idempotent across the retries).
  int attempts = 0;
  while (attempts < config_.max_restart_attempts) {
    std::vector<int> down;
    for (int i = 0; i < n; ++i) {
      if (!world.site(i).site().up()) {
        down.push_back(i);
      }
    }
    if (down.empty()) {
      break;
    }
    ++attempts;
    for (int i : down) {
      world.Restart(i);
    }
    world.RunFor(config_.heal_window);
  }
  bool all_up = true;
  for (int i = 0; i < n; ++i) {
    if (!world.site(i).site().up()) {
      all_up = false;
      Violate(&out, "site " + std::to_string(i) + " still down after " +
                        std::to_string(attempts) + " restart attempts");
    }
  }

  // Drain: let every in-doubt outcome, orphan watcher, and the workload's
  // remaining transfers resolve. Bounded so a livelocked run fails loudly
  // instead of hanging the sweep. A schedule entry can fire during the drain
  // itself — e.g. a crash armed on a commit-ack that is only sent once the
  // coordinator's retransmission reaches the healed site — taking a site
  // down after the heal loop finished; re-heal and re-drain until stable so
  // the audit reads a fully recovered installation.
  bool quiesced = all_up;
  if (all_up) {
    constexpr size_t kMaxEvents = 2u * 1000 * 1000;
    int late_heals = 0;
    for (;;) {
      if (!world.sched().RunUntilIdle(kMaxEvents).drained) {
        quiesced = false;
        Violate(&out, "world did not quiesce within " + std::to_string(kMaxEvents) + " events");
        break;
      }
      std::vector<int> down;
      for (int i = 0; i < n; ++i) {
        if (!world.site(i).site().up()) {
          down.push_back(i);
        }
      }
      if (down.empty()) {
        break;
      }
      if (++late_heals > config_.max_restart_attempts) {
        quiesced = false;
        for (int i : down) {
          Violate(&out, "site " + std::to_string(i) + " still down after " +
                            std::to_string(late_heals - 1) + " late restart attempts");
        }
        break;
      }
      for (int i : down) {
        world.Restart(i);
      }
      world.RunFor(config_.heal_window);
    }
  }

  // Freeze the exploration record before the audit: discovery must cover only
  // the workload + healing, so every discovered hit is reachable before the
  // audit traffic starts (a sweep crash during the audit would be a false
  // positive, not a protocol bug).
  if (record) {
    out.trace = world.failpoints().trace();
    out.discovered = world.failpoints().Discovered();
    world.failpoints().set_recording(false);
  }
  world.failpoints().DisarmAll();

  if (!done) {
    Violate(&out, "workload did not finish (" + std::to_string(statuses.size()) + "/" +
                      std::to_string(config_.transfers) + " transfers attempted)");
  }
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].ok()) {
      ++out.client_ok;
    }
  }
  if (!all_up || !quiesced) {
    return out;  // No quiescent installation to audit (RunSync would hang).
  }

  // Primitive-cost conformance gate (fault-free runs only, before the audit
  // transactions add their own protocol traffic): the ledger's protocol
  // counts must equal the static analysis's prediction for the transfer
  // workload, exactly — an extra force or duplicate datagram is a bug even
  // when atomicity holds.
  if (schedule.entries.empty() && done) {
    bool all_ok = true;
    for (const Status& st : statuses) {
      all_ok = all_ok && st.ok();
    }
    if (all_ok) {
      const CommitOptions options = config_.Options();
      CountVector predicted;
      for (int i = 0; i < config_.transfers; ++i) {
        int update_subs = 0;
        bool local_updates = false;
        for (const int vault : {i % n, (i + 1) % n}) {
          if (vault == 0) {
            local_updates = true;
          } else {
            ++update_subs;
          }
        }
        AddCounts(predicted, ExpectedProtocolCounts(options, update_subs, /*readonly_subs=*/0,
                                                    local_updates, TxnOutcome::kCommit));
      }
      const CountVector measured = world.cost_ledger().ProtocolCounts();
      std::string diff = CostLedger::Diff(predicted, measured);
      if (!diff.empty()) {
        Violate(&out, "fault-free run violated primitive-cost conformance:\n" + diff);
      }
    }
  }

  // Audits (shared with the partition explorer; see harness/oracle.h):
  // observer agreement + money conservation + commit-subset match, then leak
  // and recovery checks.
  std::vector<TransferAttempt> transfer_attempts;
  for (size_t i = 0; i < statuses.size(); ++i) {
    TransferAttempt a;
    a.status = statuses[i];
    a.attempted = attempted[i];
    a.from_vault = static_cast<int>(i) % n;
    a.to_vault = (static_cast<int>(i) + 1) % n;
    a.amount = config_.amount;
    transfer_attempts.push_back(std::move(a));
  }
  std::vector<std::string> violations;
  AuditBalancesAndSubset(world, n, config_.initial_balance, transfer_attempts, &violations);
  AuditLeaks(world, n, &violations);
  AuditExactlyOnce(world, n, &violations);
  for (auto& v : violations) {
    Violate(&out, std::move(v));
  }

  // Isolation gate: the whole run's history — workload, healing, and the
  // audit transactions above — must replay serializably. A failure dumps the
  // history and extends the recipe so the verdict reproduces offline.
  IsolationReport isolation = IsolationOracle::Check(world.history().events());
  if (!isolation.ok()) {
    for (const IsolationAnomaly& a : isolation.anomalies) {
      Violate(&out, "isolation: " + a.ToString());
    }
    auto dumped = DumpHistoryArtifact(
        world.history(),
        "crash-" + std::to_string(config_.seed) + "-" + ProtocolName(config_.Options()) + "-" +
            std::to_string(std::hash<std::string>{}(out.replay)));
    if (dumped.ok()) {
      out.history_path = *dumped;
      out.replay = WithHistory(out.replay, *dumped);
    }
  }
  return out;
}

void CrashExplorer::RunSchedules(const std::vector<CrashSchedule>& schedules,
                                 std::vector<SweepFailure>* failures) {
  // Each schedule builds its own World, so runs are independent and
  // bit-identical at any thread count; merging in schedule order keeps the
  // failure list (and every replay recipe in it) byte-identical too.
  std::vector<RunResult> results(schedules.size());
  ParallelFor(ResolveSweepThreads(config_.sweep_threads), schedules.size(),
              [&](size_t i) { results[i] = Run(schedules[i]); });
  for (size_t i = 0; i < schedules.size(); ++i) {
    if (!results[i].ok) {
      failures->push_back({schedules[i], std::move(results[i])});
    }
  }
}

std::vector<SweepFailure> CrashExplorer::ExhaustiveSingleCrashSweep(uint64_t max_hits_per_point,
                                                                    int* runs) {
  std::vector<SweepFailure> failures;
  // The fault-free discovery run is itself gated (conformance + oracle); a
  // violation there means every sweep result would be noise.
  RunResult discovery = Run(CrashSchedule{}, /*record=*/true);
  if (!discovery.ok) {
    failures.push_back({CrashSchedule{}, discovery});
  }
  const std::vector<CrashSchedule> schedules =
      SingleCrashSchedules(discovery.discovered, max_hits_per_point);
  RunSchedules(schedules, &failures);
  if (runs != nullptr) {
    *runs = static_cast<int>(schedules.size());
  }
  return failures;
}

std::vector<SweepFailure> CrashExplorer::RecoverySweep(const ScheduleEntry& base, int* runs) {
  std::vector<SweepFailure> failures;
  CrashSchedule base_only;
  base_only.entries.push_back(base);
  RunResult recorded = Run(base_only, /*record=*/true);
  if (!recorded.ok) {
    failures.push_back({base_only, recorded});
  }
  std::vector<CrashSchedule> schedules;
  for (const DiscoveredPoint& dp : recorded.discovered) {
    if (dp.point.rfind("recovery.", 0) != 0) {
      continue;
    }
    CrashSchedule schedule;
    schedule.entries.push_back(base);
    schedule.entries.push_back({dp.point, dp.site, 1, FailpointAction::kCrash, 0});
    schedules.push_back(std::move(schedule));
  }
  RunSchedules(schedules, &failures);
  if (runs != nullptr) {
    *runs = 1 + static_cast<int>(schedules.size());
  }
  return failures;
}

std::vector<SweepFailure> CrashExplorer::RandomSweep(uint64_t rng_seed, int rounds,
                                                     int max_faults, int* runs) {
  std::vector<SweepFailure> failures;
  RunResult discovery = Run(CrashSchedule{}, /*record=*/true);
  if (!discovery.ok) {
    failures.push_back({CrashSchedule{}, discovery});
  }
  // Runs consume no sweep randomness, so pre-generating all schedules and
  // fanning the runs out yields the draw sequence of a serial loop.
  const std::vector<CrashSchedule> schedules =
      RandomSchedules(discovery.discovered, rng_seed, rounds, max_faults);
  RunSchedules(schedules, &failures);
  if (runs != nullptr) {
    *runs = static_cast<int>(schedules.size());
  }
  return failures;
}

std::vector<CrashSchedule> SingleCrashSchedules(const std::vector<DiscoveredPoint>& discovered,
                                                uint64_t max_hits_per_point) {
  std::vector<CrashSchedule> schedules;
  for (const DiscoveredPoint& dp : discovered) {
    const uint64_t cap =
        max_hits_per_point == 0 ? dp.hits : std::min(dp.hits, max_hits_per_point);
    for (uint64_t hit = 1; hit <= cap; ++hit) {
      CrashSchedule schedule;
      schedule.entries.push_back({dp.point, dp.site, hit, FailpointAction::kCrash, 0});
      schedules.push_back(std::move(schedule));
    }
  }
  return schedules;
}

std::vector<CrashSchedule> RandomSchedules(const std::vector<DiscoveredPoint>& discovered,
                                           uint64_t rng_seed, int rounds, int max_faults) {
  std::vector<CrashSchedule> schedules;
  if (discovered.empty()) {
    return schedules;
  }
  Rng rng(rng_seed);
  for (int round = 0; round < rounds; ++round) {
    const int faults = 1 + static_cast<int>(rng.NextBounded(
                               static_cast<uint64_t>(std::max(1, max_faults))));
    CrashSchedule schedule;
    for (int j = 0; j < faults; ++j) {
      const DiscoveredPoint& dp = discovered[rng.NextBounded(discovered.size())];
      ScheduleEntry e;
      e.point = dp.point;
      e.site = dp.site;
      e.hit = 1 + rng.NextBounded(dp.hits);
      // Drop and error only mean something where the woven code has a loss or
      // failure path: datagram sends and disk I/O. At protocol force points
      // and transitions they would inject impossible failures (a log force
      // cannot fail while the site stays up), so roll crash or delay there.
      const bool lossy = dp.point.rfind("tm.send.", 0) == 0 || dp.point.rfind("disk.", 0) == 0;
      switch (rng.NextBounded(lossy ? 4 : 2)) {
        case 0:
          e.action = FailpointAction::kCrash;
          break;
        case 1:
          e.action = FailpointAction::kDelay;
          e.delay = Usec(1000 + static_cast<int64_t>(rng.NextBounded(400000)));
          break;
        case 2:
          e.action = FailpointAction::kDrop;
          break;
        default:
          e.action = FailpointAction::kError;
          break;
      }
      schedule.entries.push_back(std::move(e));
    }
    schedules.push_back(std::move(schedule));
  }
  return schedules;
}

}  // namespace camelot
