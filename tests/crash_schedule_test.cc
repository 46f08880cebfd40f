// Crash-schedule exploration: discovery, exhaustive single-crash sweeps under
// the commit variants, crash-during-recovery sweeps, failpoint-trace digests,
// determinism, and environment-variable replay (see
// src/harness/crash_explorer.h).
//
// Every failing run is reported with a one-line replay recipe; rerun it by
// prefixing the recipe's variables (see src/harness/crash_explorer.h) to
//   ./crash_schedule_test --gtest_filter='*ReplaysScheduleFromEnvironment*'
// which reproduces the identical event trace and prints it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/harness/crash_explorer.h"
#include "src/harness/replay.h"

namespace camelot {
namespace {

ExplorerConfig Config(const CommitOptions& options) {
  ExplorerConfig cfg;
  cfg.variant = options;
  return cfg;
}

void ReportFailures(const std::vector<SweepFailure>& failures) {
  for (const SweepFailure& f : failures) {
    ADD_FAILURE() << "schedule " << f.plan.schedule.ToString() << " violated the oracle:\n"
                  << f.result.Explain() << "  replay: " << f.result.replay;
  }
}

bool Has(const std::vector<DiscoveredPoint>& discovered, const char* point, uint32_t site) {
  for (const DiscoveredPoint& d : discovered) {
    if (d.point == point && d.site.value == site) {
      return true;
    }
  }
  return false;
}

// --- Instrumentation-rot guard ----------------------------------------------------
//
// If someone reworks a commit path and forgets to re-weave its failpoints, the
// explorer silently stops exploring that path. These tests pin the expected
// point set for a 3-site transfer workload under each protocol.

TEST(CrashScheduleDiscovery, FindsTheTwoPhaseInstrumentation) {
  auto d = CrashExplorer(Config(CommitOptions::Optimized())).Discover();
  // Coordinator (site 0).
  EXPECT_TRUE(Has(d, "tm.send.PREPARE", 0));
  EXPECT_TRUE(Has(d, "tm.send.COMMIT", 0));
  EXPECT_TRUE(Has(d, "tm.2pc.commit_force.before", 0));
  EXPECT_TRUE(Has(d, "tm.2pc.commit_force.after", 0));
  EXPECT_TRUE(Has(d, "tm.committed", 0));
  EXPECT_TRUE(Has(d, "wal.force.before_write", 0));
  EXPECT_TRUE(Has(d, "wal.force.after_write", 0));
  // Subordinates (sites 1 and 2).
  for (uint32_t sub = 1; sub <= 2; ++sub) {
    EXPECT_TRUE(Has(d, "tm.sub.prepare_force.before", sub)) << sub;
    EXPECT_TRUE(Has(d, "tm.sub.prepare_force.after", sub)) << sub;
    EXPECT_TRUE(Has(d, "tm.prepared", sub)) << sub;
    EXPECT_TRUE(Has(d, "tm.send.VOTE", sub)) << sub;
    EXPECT_TRUE(Has(d, "tm.sub.ack_force.before", sub)) << sub;
    EXPECT_TRUE(Has(d, "tm.committed", sub)) << sub;
    EXPECT_TRUE(Has(d, "disk.read", sub)) << sub;
  }
}

TEST(CrashScheduleDiscovery, FindsTheNonBlockingInstrumentation) {
  auto d = CrashExplorer(Config(CommitOptions::NonBlocking())).Discover();
  // The three coordinator forces of the paper's non-blocking protocol.
  EXPECT_TRUE(Has(d, "tm.nbc.prepare_force.before", 0));
  EXPECT_TRUE(Has(d, "tm.nbc.prepare_force.after", 0));
  EXPECT_TRUE(Has(d, "tm.nbc.replicate_force.before", 0));
  EXPECT_TRUE(Has(d, "tm.nbc.commit_force.before", 0));
  EXPECT_TRUE(Has(d, "tm.nbc.commit_force.after", 0));
  EXPECT_TRUE(Has(d, "tm.prepared", 0));
  EXPECT_TRUE(Has(d, "tm.send.REPLICATE", 0));
  // Subordinates force a replication record and acknowledge it.
  for (uint32_t sub = 1; sub <= 2; ++sub) {
    EXPECT_TRUE(Has(d, "tm.accept.replicate_force.before", sub)) << sub;
    EXPECT_TRUE(Has(d, "tm.accept.replicate_force.after", sub)) << sub;
    EXPECT_TRUE(Has(d, "tm.send.REPLICATE-ACK", sub)) << sub;
    EXPECT_TRUE(Has(d, "tm.sub.prepare_force.before", sub)) << sub;
    EXPECT_TRUE(Has(d, "tm.prepared", sub)) << sub;
  }
}

// The 3-transfer bank workload under Paxos F = 1 mixes both shapes: the two
// transfers that touch the coordinator's own vault have a single remote
// participant, so the acceptor set clamps to one and they collapse to the
// optimized two-phase path (Gray & Lamport's degenerate case, visible as
// tm.2pc.commit_force at the coordinator); the one three-site transfer runs
// real Paxos Commit — a ballot-0 accept force at every acceptor and
// PAXOS-ACCEPTED datagrams back to the leader.
TEST(CrashScheduleDiscovery, FindsThePaxosInstrumentation) {
  auto d = CrashExplorer(Config(CommitOptions::Paxos(1))).Discover();
  // Coordinator (site 0): leader accept plus the degenerate 2PC commits.
  EXPECT_TRUE(Has(d, "tm.send.PREPARE", 0));
  EXPECT_TRUE(Has(d, "tm.send.VOTE", 0));
  EXPECT_TRUE(Has(d, "tm.paxos.accept_force.before", 0));
  EXPECT_TRUE(Has(d, "tm.paxos.accept_force.after", 0));
  EXPECT_TRUE(Has(d, "tm.2pc.commit_force.after", 0));
  EXPECT_TRUE(Has(d, "tm.send.COMMIT", 0));
  EXPECT_TRUE(Has(d, "tm.prepared", 0));
  EXPECT_TRUE(Has(d, "tm.committed", 0));
  // Subordinate acceptors (sites 1 and 2): prepare, vote, ballot-0 accept,
  // and the accepted notification back to the coordinator.
  for (uint32_t sub = 1; sub <= 2; ++sub) {
    EXPECT_TRUE(Has(d, "tm.sub.prepare_force.before", sub)) << sub;
    EXPECT_TRUE(Has(d, "tm.prepared", sub)) << sub;
    EXPECT_TRUE(Has(d, "tm.send.VOTE", sub)) << sub;
    EXPECT_TRUE(Has(d, "tm.paxos.accept_force.before", sub)) << sub;
    EXPECT_TRUE(Has(d, "tm.paxos.accept_force.after", sub)) << sub;
    EXPECT_TRUE(Has(d, "tm.send.PAXOS-ACCEPTED", sub)) << sub;
    EXPECT_TRUE(Has(d, "tm.committed", sub)) << sub;
  }
}

// --- Exhaustive single-crash sweeps -----------------------------------------------
//
// The acceptance property: crash at EVERY discovered (point, site, hit), heal,
// and the atomicity oracle must hold — money conserved, observers agree,
// client-visible OK commits durable, nothing leaked, recovery idempotent.

// The fault-free run is also the explorers' conformance gate: with no faults
// injected, the workload's summed primitive counts must equal the static
// analysis's prediction exactly (see DESIGN.md, "Primitive-cost conformance").
TEST(CrashScheduleSweep, FaultFreeRunPassesConformanceGate) {
  for (const CommitOptions& options :
       {CommitOptions::Optimized(), CommitOptions::Unoptimized(),
        CommitOptions::Intermediate(), CommitOptions::NonBlocking(),
        CommitOptions::Paxos(0), CommitOptions::Paxos(1)}) {
    ExplorerConfig cfg;
    cfg.variant = options;
    const RunResult result = CrashExplorer(cfg).Run(CrashSchedule{});
    EXPECT_TRUE(result.ok) << ProtocolName(options) << ": " << result.Explain();
  }
}

TEST(CrashScheduleSweep, ExhaustiveSingleCrashSweepPassesOracle_TwoPhase) {
  int runs = 0;
  ReportFailures(CrashExplorer(Config(CommitOptions::Optimized()))
                     .ExhaustiveSingleCrashSweep(/*max_hits_per_point=*/0, &runs));
  EXPECT_GE(runs, 60) << "suspiciously few runs: instrumentation rot?";
}

TEST(CrashScheduleSweep, ExhaustiveSingleCrashSweepPassesOracle_NonBlocking) {
  int runs = 0;
  ReportFailures(CrashExplorer(Config(CommitOptions::NonBlocking()))
                     .ExhaustiveSingleCrashSweep(/*max_hits_per_point=*/0, &runs));
  EXPECT_GE(runs, 100) << "suspiciously few runs: instrumentation rot?";
}

TEST(CrashScheduleSweep, ExhaustiveSingleCrashSweepPassesOracle_Paxos) {
  int runs = 0;
  ReportFailures(CrashExplorer(Config(CommitOptions::Paxos(1)))
                     .ExhaustiveSingleCrashSweep(/*max_hits_per_point=*/0, &runs));
  EXPECT_GE(runs, 85) << "suspiciously few runs: instrumentation rot?";
}

// The acceptance-criterion double crash: coordinator AND one acceptor die
// together under F = 1 (2F + 1 = 3 acceptors tolerate exactly one). The
// surviving acceptor pair must still reach a decision — blocked families are
// resolved by leader takeover at a promoted ballot — and the atomicity,
// leak, and isolation oracles must all hold after heal.
TEST(CrashScheduleSweep, CoordinatorPlusAcceptorDoubleCrashSweep_Paxos) {
  CrashExplorer ex(Config(CommitOptions::Paxos(1)));
  const char* coordinator_points[] = {
      "tm.paxos.prepare_force.after", "tm.send.PREPARE", "tm.paxos.accept_force.after",
      "tm.send.COMMIT", "tm.committed"};
  const char* acceptor_points[] = {
      "tm.sub.prepare_force.after", "tm.send.VOTE", "tm.paxos.accept_force.before",
      "tm.paxos.accept_force.after", "tm.send.PAXOS-ACCEPTED"};
  int runs = 0;
  for (const char* cp : coordinator_points) {
    for (const char* ap : acceptor_points) {
      CrashSchedule schedule;
      schedule.entries.push_back({cp, SiteId{0}, 1, FailpointAction::kCrash, 0});
      schedule.entries.push_back({ap, SiteId{1}, 1, FailpointAction::kCrash, 0});
      const RunResult result = ex.Run(schedule);
      ++runs;
      EXPECT_TRUE(result.ok) << "schedule " << schedule.ToString()
                             << " violated the oracle:\n"
                             << result.Explain() << "  replay: " << result.replay;
    }
  }
  EXPECT_EQ(runs, 25);
}

// A takeover's COMMIT can reach an NBC coordinator's inbox while the
// coordinator's own commit force is delayed. Once the coordinator has
// decided, its phase-2 wait must leave that queued COMMIT alone rather than
// apply the outcome a second time, which the exactly-once oracle reports as a
// re-driven effect. The random soak found this schedule; the digests above
// do not reach it.
TEST(CrashScheduleSweep, DecidedCoordinatorLeavesQueuedTakeoverCommitAlone) {
  ExplorerConfig cfg = Config(CommitOptions::NonBlocking());
  cfg.seed = 6;
  const auto schedule = CrashSchedule::Parse(
      "tm.nbc.commit_force.after@0#1=delay:357848;tm.sub.ack_force.before@2#2=crash;"
      "tm.accept.replicate_force.after@1#1=delay:321544");
  ASSERT_TRUE(schedule.ok());
  const RunResult result = CrashExplorer(cfg).Run(*schedule);
  EXPECT_TRUE(result.ok) << result.Explain() << "  replay: " << result.replay;
}

// --- Crash during recovery --------------------------------------------------------
//
// A base crash forces a real restart; the sweep then crashes the site AGAIN at
// every recovery.* point that restart evaluates (mid-redo, mid-undo, mid media
// sweep). Recovery must be idempotent across the interrupted passes.

TEST(CrashScheduleSweep, CrashDuringRecoverySweep_TwoPhase) {
  CrashExplorer ex(Config(CommitOptions::Optimized()));
  int runs = 0;
  // Coordinator dies with its commit record durable: restart must redo and
  // resume phase 2 — and survive being crashed again at each recovery point.
  ReportFailures(ex.RecoverySweep(
      {"tm.2pc.commit_force.after", SiteId{0}, 1, FailpointAction::kCrash, 0}, &runs));
  EXPECT_GE(runs, 4) << "the base crash discovered no recovery points";

  // A prepared subordinate dies: restart re-takes its locks and re-parks it.
  ReportFailures(ex.RecoverySweep(
      {"tm.sub.prepare_force.after", SiteId{1}, 1, FailpointAction::kCrash, 0}, &runs));
  EXPECT_GE(runs, 4);
}

TEST(CrashScheduleSweep, CrashDuringRecoverySweep_NonBlocking) {
  CrashExplorer ex(Config(CommitOptions::NonBlocking()));
  int runs = 0;
  ReportFailures(ex.RecoverySweep(
      {"tm.nbc.commit_force.after", SiteId{0}, 1, FailpointAction::kCrash, 0}, &runs));
  EXPECT_GE(runs, 4) << "the base crash discovered no recovery points";
}

TEST(CrashScheduleSweep, CrashDuringRecoverySweep_Paxos) {
  CrashExplorer ex(Config(CommitOptions::Paxos(1)));
  int runs = 0;
  // The coordinator dies with its ballot-0 accept durable but the commit
  // record only spooled: restart must rebuild the family from the
  // replication record and the takeover protocol must converge — and survive
  // being crashed again at each recovery point.
  ReportFailures(ex.RecoverySweep(
      {"tm.paxos.accept_force.after", SiteId{0}, 1, FailpointAction::kCrash, 0}, &runs));
  EXPECT_GE(runs, 4) << "the base crash discovered no recovery points";
}

// --- Behaviour pins ---------------------------------------------------------------
//
// One FNV-1a digest over the recorded failpoint traces of a whole schedule
// set. Trace lines carry virtual-microsecond timestamps, so a digest pins when
// every point was evaluated as well as the order. The sets drive the takeover
// under both variants: every single crash under NBC and Paxos (F = 1 on three
// sites, F = 2 on five), plus seeded multi-fault schedules, which alone reach
// NBC's block after a short ack round and Paxos's promised-empty testimony.
// The same two shapes under the three two-phase variants pin the blocked
// subordinate's status queries and the unoptimized and intermediate
// subordinate commit paths under faults.

uint64_t TraceDigest(CrashExplorer& explorer, const std::vector<CrashSchedule>& schedules) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const std::string& text) {
    for (const unsigned char c : text) {
      h = (h ^ c) * 0x100000001b3ULL;
    }
    h = (h ^ '\n') * 0x100000001b3ULL;
  };
  for (const CrashSchedule& schedule : schedules) {
    mix(schedule.ToString());
    for (const std::string& line : explorer.Run(schedule, /*record=*/true).trace) {
      mix(line);
    }
  }
  return h;
}

TEST(CrashScheduleDigest, FailpointTracesMatchPinnedDigests) {
  struct Set {
    const char* name;
    CommitOptions options;
    int sites;
    bool random;  // RandomSweep's shape; else every single-crash schedule.
    size_t schedules;
    uint64_t digest;
  };
  const Set sets[] = {
      {"nbc single crash", CommitOptions::NonBlocking(), 3, false, 127, 0xfb846ad49ae09a18ULL},
      {"paxos F=1 single crash", CommitOptions::Paxos(1), 3, false, 92, 0xa91ed5f07244e20eULL},
      {"paxos F=2 single crash", CommitOptions::Paxos(2), 5, false, 117, 0x581650f2ac0f2343ULL},
      {"nbc random", CommitOptions::NonBlocking(), 3, true, 300, 0x0ce16ad9ebf1d09dULL},
      {"paxos F=1 random", CommitOptions::Paxos(1), 3, true, 300, 0xb503375b8eb49b0eULL},
      {"2pc single crash", CommitOptions::Optimized(), 3, false, 80, 0x7ac1a53e110d85d9ULL},
      {"2pc-unopt single crash", CommitOptions::Unoptimized(), 3, false, 81, 0xb29db06e11bd10bcULL},
      {"2pc-int single crash", CommitOptions::Intermediate(), 3, false, 89, 0xd8e86d7f2fa98c15ULL},
      {"2pc random", CommitOptions::Optimized(), 3, true, 300, 0xffb6b51608cd54c1ULL},
      {"2pc-unopt random", CommitOptions::Unoptimized(), 3, true, 300, 0xe8e2b5a19c93b0a3ULL},
      {"2pc-int random", CommitOptions::Intermediate(), 3, true, 300, 0x944facc1e2bf369dULL},
  };
  for (const Set& set : sets) {
    ExplorerConfig cfg = Config(set.options);
    cfg.site_count = set.sites;
    CrashExplorer ex(cfg);
    const std::vector<DiscoveredPoint> discovered = ex.Discover();
    const std::vector<CrashSchedule> schedules =
        set.random ? RandomSchedules(discovered, /*rng_seed=*/7919, /*rounds=*/300,
                                     /*max_faults=*/3)
                   : SingleCrashSchedules(discovered, /*max_hits_per_point=*/0);
    EXPECT_EQ(schedules.size(), set.schedules) << set.name;
    const uint64_t digest = TraceDigest(ex, schedules);
    EXPECT_EQ(digest, set.digest)
        << set.name << ": failpoint traces changed (digest 0x" << std::hex << digest
        << "). A digest may move only in a change that states why protocol behaviour "
           "changed; a refactor must leave every trace, timestamps included, as it was.";
  }
}

// --- Determinism ------------------------------------------------------------------

TEST(CrashScheduleDeterminism, SameSeedAndScheduleReproduceIdenticalTrace) {
  for (const bool non_blocking : {false, true}) {
    CrashExplorer ex(
        Config(non_blocking ? CommitOptions::NonBlocking() : CommitOptions::Optimized()));
    const char* text = non_blocking ? "tm.nbc.replicate_force.before@0#1=crash"
                                    : "tm.2pc.commit_force.before@0#1=crash";
    const auto schedule = CrashSchedule::Parse(text);
    ASSERT_TRUE(schedule.ok());
    const RunResult r1 = ex.Run(*schedule, /*record=*/true);
    const RunResult r2 = ex.Run(*schedule, /*record=*/true);
    EXPECT_FALSE(r1.trace.empty());
    EXPECT_EQ(r1.trace, r2.trace) << "protocol " << (non_blocking ? "nbc" : "2pc")
                                  << ": replay diverged — determinism is broken";
    EXPECT_EQ(r1.ok, r2.ok);
  }
}

// --- Environment-variable replay --------------------------------------------------
//
// The recipe printed by every sweep failure targets this test: it rebuilds the
// exact run (seed, protocol, sizing and schedule), prints the full event
// trace, and applies the oracle.

TEST(CrashScheduleReplay, ReplaysScheduleFromEnvironment) {
  if (std::getenv("CAMELOT_SCHEDULE") == nullptr) {
    GTEST_SKIP() << "set the recipe's CAMELOT_* variables to replay";
  }
  if (std::getenv("CAMELOT_TRACE") != nullptr) {
    SetTraceLevel(TraceLevel::kDebug);  // Protocol-level sim tracing too.
  }
  const Result<ExplorerReplay> replay = ReadReplayRecipe(ExplorerConfig{});
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  const RunResult result = CrashExplorer(replay->config).Run(replay->plan, /*record=*/true);
  for (const std::string& line : result.trace) {
    std::printf("%s\n", line.c_str());
  }
  EXPECT_TRUE(result.ok) << result.Explain() << "  replay: " << result.replay;
}

// The recipe's tokens, unquoted: "A=1 B='x'" -> {A: 1, B: x}.
std::map<std::string, std::string> RecipeTokens(const std::string& recipe) {
  std::map<std::string, std::string> tokens;
  size_t pos = 0;
  while (pos < recipe.size()) {
    size_t end = recipe.find(' ', pos);
    if (end == std::string::npos) {
      end = recipe.size();
    }
    const std::string token = recipe.substr(pos, end - pos);
    const size_t eq = token.find('=');
    std::string value = token.substr(eq + 1);
    if (value.size() >= 2 && value.front() == '\'' && value.back() == '\'') {
      value = value.substr(1, value.size() - 2);
    }
    tokens[token.substr(0, eq)] = value;
    pos = end + 1;
  }
  return tokens;
}

// A recipe rebuilds its run even when a caller resized the workload: a
// 4-transfer NBC run that crashes at the fourth commit force (a hit the
// default 3 transfers never reach) replays from its recipe alone to the
// identical failpoint trace.
TEST(CrashScheduleReplay, RecipeRebuildsResizedRun) {
  ExplorerConfig cfg = Config(CommitOptions::NonBlocking());
  cfg.transfers = 4;
  const auto schedule = CrashSchedule::Parse("tm.nbc.commit_force.after@0#4=crash");
  ASSERT_TRUE(schedule.ok());
  const RunResult original = CrashExplorer(cfg).Run(*schedule, /*record=*/true);
  bool crashed = false;
  for (const std::string& line : original.trace) {
    crashed = crashed || line.find("tm.nbc.commit_force.after@0#4 !crash") != std::string::npos;
  }
  EXPECT_TRUE(crashed) << "the fourth transfer never reached its commit force";
  EXPECT_EQ(original.replay,
            "CAMELOT_SEED=1 CAMELOT_PROTOCOL=nbc CAMELOT_TRANSFERS=4 "
            "CAMELOT_SCHEDULE='tm.nbc.commit_force.after@0#4=crash'");

  const std::map<std::string, std::string> tokens = RecipeTokens(original.replay);
  const Result<ExplorerReplay> replay =
      ReadReplayRecipe(ExplorerConfig{}, [&tokens](const char* name) -> const char* {
        const auto it = tokens.find(name);
        return it == tokens.end() ? nullptr : it->second.c_str();
      });
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  const RunResult rerun = CrashExplorer(replay->config).Run(replay->plan, /*record=*/true);
  EXPECT_EQ(rerun.replay, original.replay);
  EXPECT_EQ(rerun.trace, original.trace) << "the recipe did not rebuild the run";

  // A default-sized run's recipe carries no sizing tokens.
  EXPECT_EQ(CrashExplorer(Config(CommitOptions::NonBlocking())).Run(*schedule).replay,
            "CAMELOT_SEED=1 CAMELOT_PROTOCOL=nbc "
            "CAMELOT_SCHEDULE='tm.nbc.commit_force.after@0#4=crash'");
}

}  // namespace
}  // namespace camelot
