#include "src/harness/crash_explorer.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/analysis/static_analysis.h"
#include "src/base/logging.h"
#include "src/base/parallel.h"
#include "src/harness/isolation_oracle.h"
#include "src/harness/oracle.h"
#include "src/harness/replay.h"

namespace camelot {
namespace {

// Virtual time each heal round gets before re-checking which sites are
// still down.
constexpr SimDuration kHealWindow = Sec(3);

std::string Srv(int i) { return "server:" + std::to_string(i); }

// Transfer i's source vault; its destination is Vault(cfg, i + 1).
int Vault(const ExplorerConfig& cfg, int i) {
  if (cfg.vaults.empty()) {
    return i % cfg.site_count;
  }
  return cfg.vaults[static_cast<size_t>(i) % cfg.vaults.size()];
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

// The fixed workload: `transfers` serial transfers around the vault ring,
// issued from site 0's application. One transaction per transfer, never
// retried — the oracle reasons about which attempts committed, and a retry
// would be a second attempt.
Async<void> Workload(World* world, ExplorerConfig cfg, std::vector<TransferAttempt>* attempts,
                     bool* done) {
  AppClient app(world->site(0));
  const CommitOptions options = cfg.Options();
  for (int i = 0; i < cfg.transfers; ++i) {
    const int from = Vault(cfg, i);
    const int to = Vault(cfg, i + 1);
    // If the home site is down (a schedule crashed it), wait out the outage —
    // bounded, so the run always quiesces even if healing fails.
    for (int wait = 0; wait < 8 && !world->site(0).site().up(); ++wait) {
      co_await world->sched().Delay(Sec(1));
    }
    if (!world->site(0).site().up()) {
      attempts->push_back({UnavailableError("home site down"), false, from, to, cfg.amount});
      continue;
    }
    Status st = co_await OneTransfer(app, Srv(from), Srv(to), cfg.amount, options);
    attempts->push_back({std::move(st), true, from, to, cfg.amount});
  }
  *done = true;
}

void Violate(RunResult* out, std::string text) {
  out->ok = false;
  out->violations.push_back(std::move(text));
}

uint64_t Decided(World& world, int site) {
  const TranManCounters& c = world.site(site).tranman().counters();
  return c.committed + c.aborted;
}

// Every 2-way split of the 3-site world plus total isolation. "" means
// "partition:" with no groups — every site isolated.
constexpr const char* kSplits[] = {"0|1,2", "1|0,2", "2|0,1", ""};

// The sites a schedule crashed and no restart has yet brought back.
std::vector<int> DownSites(World& world, int n) {
  std::vector<int> down;
  for (int i = 0; i < n; ++i) {
    if (!world.site(i).site().up()) {
      down.push_back(i);
    }
  }
  return down;
}

}  // namespace

ExplorerConfig PartitionStudy() {
  ExplorerConfig cfg;
  cfg.vaults = {1, 2};
  cfg.transfers = 4;
  cfg.workload_window = Sec(20);
  cfg.resolve_window = Sec(20);
  return cfg;
}

WorldConfig ExplorerWorldConfig(int site_count, uint64_t seed) {
  WorldConfig w;
  w.site_count = site_count;
  w.seed = seed;
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

std::string RunResult::Explain() const {
  std::string out;
  for (const auto& v : violations) {
    out += "  - " + v + "\n";
  }
  if (!nemesis_log.empty()) {
    out += "  nemesis log:\n";
    for (const auto& line : nemesis_log) {
      out += "    " + line + "\n";
    }
  }
  return out;
}

std::string CrashExplorer::Recipe(const FaultPlan& plan) const {
  const bool liveness = config_.resolve_window > 0;
  const ExplorerConfig study = liveness ? PartitionStudy() : ExplorerConfig{};
  std::string recipe = ReplayRecipePrefix(config_.seed, config_.Options());
  const auto sizing = [&recipe](const char* name, int64_t value, int64_t study_value) {
    if (value != study_value) {
      recipe += std::string(" ") + name + "=" + std::to_string(value);
    }
  };
  sizing("CAMELOT_SITES", config_.site_count, study.site_count);
  sizing("CAMELOT_TRANSFERS", config_.transfers, study.transfers);
  sizing("CAMELOT_BALANCE", config_.initial_balance, study.initial_balance);
  sizing("CAMELOT_AMOUNT", config_.amount, study.amount);
  // A fault-free run names its study's own fault variable, empty.
  const bool nemesis = liveness || !plan.script.empty();
  if (!nemesis || !plan.schedule.entries.empty()) {
    recipe += " CAMELOT_SCHEDULE='" + plan.schedule.ToString() + "'";
  }
  if (nemesis) {
    recipe += " CAMELOT_NEMESIS='" + plan.script.ToString() + "'";
  }
  return recipe;
}

Result<ExplorerReplay> ReadReplayRecipe(
    ExplorerConfig study, const std::function<const char*(const char*)>& lookup) {
  ExplorerReplay out{std::move(study), {}};
  const auto number = [&lookup](const char* name, auto& field) {
    if (const char* text = lookup(name)) {
      field = static_cast<std::decay_t<decltype(field)>>(std::strtoull(text, nullptr, 10));
    }
  };
  const auto faults = [&lookup](const char* name, auto& field) -> Status {
    if (const char* text = lookup(name)) {
      auto parsed = std::decay_t<decltype(field)>::Parse(text);
      if (!parsed.ok()) {
        return InvalidArgumentError(std::string(name) + ": " + parsed.status().message());
      }
      field = std::move(*parsed);
    }
    return OkStatus();
  };
  ExplorerConfig& cfg = out.config;
  if (const char* protocol = lookup("CAMELOT_PROTOCOL")) {
    Result<CommitOptions> options = ParseProtocolName(protocol);
    if (!options.ok()) {
      return InvalidArgumentError("CAMELOT_PROTOCOL: " + options.status().message());
    }
    if (options->protocol == CommitProtocol::kPaxos) {
      number("CAMELOT_F", options->paxos_f);
    }
    cfg.variant = *options;
  }
  number("CAMELOT_SEED", cfg.seed);
  number("CAMELOT_SITES", cfg.site_count);
  number("CAMELOT_TRANSFERS", cfg.transfers);
  number("CAMELOT_BALANCE", cfg.initial_balance);
  number("CAMELOT_AMOUNT", cfg.amount);
  const bool vaults_exist = std::all_of(cfg.vaults.begin(), cfg.vaults.end(),
                                        [&cfg](int vault) { return vault < cfg.site_count; });
  if (cfg.site_count < 1 || cfg.transfers < 0 || !vaults_exist) {
    return InvalidArgumentError("CAMELOT_SITES / CAMELOT_TRANSFERS out of range for the study");
  }
  if (Status s = faults("CAMELOT_SCHEDULE", out.plan.schedule); !s.ok()) {
    return s;
  }
  if (Status s = faults("CAMELOT_NEMESIS", out.plan.script); !s.ok()) {
    return s;
  }
  return out;
}

std::vector<DiscoveredPoint> CrashExplorer::Discover() {
  return Run(CrashSchedule{}, /*record=*/true).discovered;
}

RunResult CrashExplorer::Run(const FaultPlan& plan, bool record) {
  RunResult out;
  out.replay = Recipe(plan);

  World world(ExplorerWorldConfig(config_.site_count, config_.seed));
  world.history().set_enabled(true);  // Record from the first setup install on.
  const int n = config_.site_count;
  for (int i = 0; i < n; ++i) {
    world.AddServer(i, Srv(i))->CreateObjectForSetup("vault",
                                                     EncodeInt64(config_.initial_balance));
  }
  if (record) {
    world.failpoints().set_recording(true);
  }
  plan.schedule.ArmAll(world.failpoints());

  // In-window decision accounting: between each partition install and the
  // matching heal, count per-site commit/abort decisions. HealAll() emits a
  // synthetic heal, so an un-healed script still closes its window.
  Nemesis nemesis(world.sched(), world.net(), &world.failpoints());
  bool window_open = false;
  std::vector<uint64_t> snapshot(n, 0);
  std::vector<uint64_t> in_window(n, 0);
  nemesis.set_on_apply([&](const NemesisEvent& ev) {
    if (ev.action == NemesisEvent::Action::kPartition && !window_open) {
      window_open = true;
      for (int i = 0; i < n; ++i) {
        snapshot[i] = Decided(world, i);
      }
    } else if (ev.action == NemesisEvent::Action::kHeal && window_open) {
      window_open = false;
      for (int i = 0; i < n; ++i) {
        in_window[i] += Decided(world, i) - snapshot[i];
      }
    }
  });
  if (Status s = nemesis.Install(plan.script); !s.ok()) {
    Violate(&out, "nemesis install failed: " + s.message());
    return out;
  }

  std::vector<TransferAttempt> transfers;
  bool done = false;
  world.sched().Spawn(Workload(&world, config_, &transfers, &done));
  world.RunFor(config_.workload_window);

  const auto check_finished = [&](const std::string& prefix) {
    if (!done) {
      Violate(&out, prefix + "workload did not finish (" + std::to_string(transfers.size()) +
                        "/" + std::to_string(config_.transfers) + " transfers attempted)");
    }
  };
  const bool liveness = config_.resolve_window > 0;
  if (liveness) {
    // Force-heal whatever the script left installed, then give the
    // installation a bounded resolution window. The liveness oracle: after
    // this window the workload has finished and no site still holds an
    // undecided family.
    nemesis.HealAll();
    world.RunFor(config_.resolve_window);
    // Unfired trigger arms must not fire on audit traffic (a partition during
    // the balance audit would be a false positive, not a protocol bug).
    world.failpoints().DisarmAll();
    check_finished("liveness: ");
    for (int i = 0; i < n; ++i) {
      const size_t live = world.site(i).tranman().live_family_count();
      if (live != 0) {
        Violate(&out, "liveness: site " + std::to_string(i) + " still holds " +
                          std::to_string(live) + " undecided families " +
                          std::to_string(config_.resolve_window / 1000000) +
                          "s after all faults healed");
      }
    }
  }

  // Heal: restart every down site, again if a recovery.* crash took one back
  // down mid-restart (recovery must be idempotent across the retries).
  int attempts = 0;
  while (attempts < config_.max_restart_attempts) {
    const std::vector<int> down = DownSites(world, n);
    if (down.empty()) {
      break;
    }
    ++attempts;
    for (int i : down) {
      world.Restart(i);
    }
    world.RunFor(kHealWindow);
  }
  const std::vector<int> still_down = DownSites(world, n);
  for (int i : still_down) {
    Violate(&out, "site " + std::to_string(i) + " still down after " +
                      std::to_string(attempts) + " restart attempts");
  }
  const bool all_up = still_down.empty();

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
      const std::vector<int> down = DownSites(world, n);
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
      world.RunFor(kHealWindow);
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

  for (int i = 0; i < n; ++i) {
    const TranManCounters& c = world.site(i).tranman().counters();
    out.sites.push_back({in_window[i], c.blocked_periods, c.blocked_time_us, c.stuck_families});
  }
  out.datagrams_reordered = world.net().counters().datagrams_reordered;
  out.nemesis_log = nemesis.log();
  out.unapplied = nemesis.Unapplied();

  if (!liveness) {
    check_finished("");
  }
  for (const TransferAttempt& t : transfers) {
    if (t.status.ok()) {
      ++out.client_ok;
    }
  }
  // No quiescent installation to audit (RunSync would hang); under the
  // liveness oracle, a run that already failed it is not audited either.
  if (!all_up || !quiesced || (liveness && !out.ok)) {
    return out;
  }

  // Primitive-cost conformance gate (fault-free runs only, before the audit
  // transactions add their own protocol traffic): the ledger's protocol
  // counts must equal the static analysis's prediction for the transfer
  // workload, exactly — an extra force or duplicate datagram is a bug even
  // when atomicity holds.
  if (plan.empty() && done && out.client_ok == static_cast<int>(transfers.size())) {
    CountVector predicted;
    for (int i = 0; i < config_.transfers; ++i) {
      // A vault on the coordinator's site is a local update, any other an
      // update subordinate.
      const int from = Vault(config_, i);
      const int to = Vault(config_, i + 1);
      AddCounts(predicted,
                ExpectedProtocolCounts(config_.Options(), (from != 0) + (to != 0),
                                       /*readonly_subs=*/0, from == 0 || to == 0,
                                       TxnOutcome::kCommit));
    }
    const std::string diff = CostLedger::Diff(predicted, world.cost_ledger().ProtocolCounts());
    if (!diff.empty()) {
      Violate(&out, "fault-free run violated primitive-cost conformance:\n" + diff);
    }
  }

  // Audits (see harness/oracle.h): observer agreement + money conservation +
  // commit-subset match, then leak, recovery and exactly-once checks.
  std::vector<std::string> violations;
  AuditBalancesAndSubset(world, n, config_.initial_balance, transfers, &violations);
  AuditLeaks(world, n, &violations);
  AuditExactlyOnce(world, n, &violations);
  for (auto& v : violations) {
    Violate(&out, std::move(v));
  }

  // Isolation gate: the whole run's history — workload, faults, healing, and
  // the audit transactions above — must replay serializably. A failure dumps
  // the history and extends the recipe so the verdict reproduces offline.
  IsolationReport isolation = IsolationOracle::Check(world.history().events());
  if (!isolation.ok()) {
    for (const IsolationAnomaly& a : isolation.anomalies) {
      Violate(&out, "isolation: " + a.ToString());
    }
    auto dumped = DumpHistoryArtifact(
        world.history(), std::string(liveness ? "partition-" : "crash-") +
                             std::to_string(config_.seed) + "-" +
                             ProtocolName(config_.Options()) + "-" +
                             std::to_string(std::hash<std::string>{}(out.replay)));
    if (dumped.ok()) {
      out.history_path = *dumped;
      out.replay = WithHistory(out.replay, *dumped);
    }
  }
  return out;
}

std::vector<SweepFailure> CrashExplorer::RunPlans(const std::vector<FaultPlan>& plans,
                                                  std::vector<SweepFailure> failures, int* runs,
                                                  int extra_runs) {
  // Each plan builds its own World, so runs are independent and bit-identical
  // at any thread count; merging in plan order keeps the failure list (and
  // every replay recipe in it) byte-identical too.
  std::vector<RunResult> results(plans.size());
  ParallelFor(ResolveSweepThreads(config_.sweep_threads), plans.size(),
              [&](size_t i) { results[i] = Run(plans[i]); });
  for (size_t i = 0; i < plans.size(); ++i) {
    if (!results[i].ok) {
      failures.push_back({plans[i], std::move(results[i])});
    }
  }
  if (runs != nullptr) {
    *runs = extra_runs + static_cast<int>(plans.size());
  }
  return failures;
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
  return RunPlans({schedules.begin(), schedules.end()}, std::move(failures), runs);
}

std::vector<SweepFailure> CrashExplorer::RecoverySweep(const ScheduleEntry& base, int* runs) {
  std::vector<SweepFailure> failures;
  CrashSchedule base_only;
  base_only.entries.push_back(base);
  RunResult recorded = Run(base_only, /*record=*/true);
  if (!recorded.ok) {
    failures.push_back({base_only, recorded});
  }
  std::vector<FaultPlan> plans;
  for (const DiscoveredPoint& dp : recorded.discovered) {
    if (dp.point.rfind("recovery.", 0) != 0) {
      continue;
    }
    CrashSchedule schedule;
    schedule.entries.push_back(base);
    schedule.entries.push_back({dp.point, dp.site, 1, FailpointAction::kCrash, 0});
    plans.emplace_back(std::move(schedule));
  }
  return RunPlans(plans, std::move(failures), runs, /*extra_runs=*/1);
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
  return RunPlans({schedules.begin(), schedules.end()}, std::move(failures), runs);
}

std::vector<SweepFailure> CrashExplorer::ExhaustiveSinglePartitionSweep(int* runs) {
  // Fault-free baseline first: it runs the conformance gate (exact
  // predicted-vs-measured primitive counts), so instrumentation or protocol
  // drift fails the sweep even when every faulted run still looks atomic.
  std::vector<FaultPlan> plans = {NemesisScript{}};
  for (NemesisScript& script : SinglePartitionScripts(config_.Options())) {
    plans.emplace_back(std::move(script));
  }
  return RunPlans(plans, {}, runs);
}

std::vector<SweepFailure> CrashExplorer::RandomNemesisSweep(uint64_t rng_seed, int rounds,
                                                            int* runs) {
  const std::vector<NemesisScript> scripts = RandomNemesisScripts(rng_seed, rounds);
  return RunPlans({scripts.begin(), scripts.end()}, {}, runs);
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

std::vector<NemesisScript> SinglePartitionScripts(const CommitOptions& options) {
  // Phase windows: when the split installs, relative to the commit protocol's
  // life cycle. The partition study's fault-free transfers finish at 650 ms
  // (2PC), 694 ms (Paxos F = 1) and 830 ms (NBC) of virtual time, so the
  // timed phase lands mid-workload. Triggers that the workload never reaches
  // leave the run fault-free, which the oracle accepts (Unapplied records
  // them). The
  // "decided" anchor is the coordinator's decision force — for Paxos Commit
  // the ballot-0 accept force, the closest durable event to the commit point
  // (the commit record itself is only spooled).
  const char* decided = "tm.2pc.commit_force.after@0#1";
  if (options.protocol == CommitProtocol::kNonBlocking) {
    decided = "tm.nbc.commit_force.after@0#1";
  } else if (options.protocol == CommitProtocol::kPaxos) {
    decided = "tm.paxos.accept_force.after@0#1";
  }
  const std::string phases[] = {
      "@300000",              // Mid-workload, while a transfer is in flight.
      "tm.send.PREPARE@0#1",  // The instant PREPARE leaves site 0.
      "tm.prepared@1#1",      // First subordinate vote is durable.
      decided,                // Coordinator's decision hits the disk.
  };
  std::vector<NemesisScript> scripts;
  for (const char* split : kSplits) {
    for (const std::string& when : phases) {
      Result<NemesisScript> script =
          NemesisScript::Parse(when + "=partition:" + split + ";+4000000=heal");
      CAMELOT_CHECK(script.ok());
      scripts.push_back(std::move(*script));
    }
  }
  return scripts;
}

std::vector<NemesisScript> RandomNemesisScripts(uint64_t rng_seed, int rounds) {
  // Script generation draws from the sweep Rng in round order; runs consume
  // no sweep randomness, so pre-generating all scripts and fanning the runs
  // out yields the exact draw sequence of a serial interleaved loop.
  Rng rng(rng_seed);
  std::vector<NemesisScript> scripts;
  for (int round = 0; round < rounds; ++round) {
    // 1..3 fault episodes, each installed in the first 700 ms of virtual
    // time, while the partition study's transfers are still in flight (see
    // SinglePartitionScripts), and undone a random 0.5-4 s later. Every episode ends inside the
    // workload window, so HealAll() at its end is a backstop, not the
    // primary heal.
    const int episodes = 1 + static_cast<int>(rng.NextBounded(3));
    std::string text;
    for (int e = 0; e < episodes; ++e) {
      const int64_t start = static_cast<int64_t>(rng.NextBounded(700000));
      const int64_t dur = 500000 + static_cast<int64_t>(rng.NextBounded(3500000));
      std::string fault;
      std::string undo = "calm";
      switch (rng.NextBounded(5)) {
        case 0:
          fault = std::string("partition:") + kSplits[rng.NextBounded(std::size(kSplits))];
          undo = "heal";
          break;
        case 1:
          fault = "loss:" + std::to_string(0.05 + 0.25 * rng.NextDouble());
          break;
        case 2:
          fault = "dup:" + std::to_string(0.05 + 0.25 * rng.NextDouble());
          break;
        case 3:
          fault = "reorder:" + std::to_string(0.1 + 0.4 * rng.NextDouble()) + "," +
                  std::to_string(5000 + rng.NextBounded(60000));
          break;
        default:
          fault = "congest:" + std::to_string(2000 + rng.NextBounded(20000));
          break;
      }
      if (!text.empty()) {
        text += ";";
      }
      text += "@" + std::to_string(start) + "=" + fault + ";+" + std::to_string(dur) + "=" + undo;
    }
    Result<NemesisScript> script = NemesisScript::Parse(text);
    CAMELOT_CHECK(script.ok());
    scripts.push_back(std::move(*script));
  }
  return scripts;
}

}  // namespace camelot
