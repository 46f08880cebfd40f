// Partition-schedule exploration against the liveness/availability oracle.
//
// The flagship assertions reproduce the paper's blocking claim: while a
// partition isolates the coordinator, 2PC subordinates sit blocked (holding
// locks, deciding nothing) whereas NBC's connected majority runs quorum
// takeover and decides inside the fault window. Every failing run prints a
// replay recipe; rerun it by prefixing the recipe's variables to
//   ./partition_schedule_test --gtest_filter='*ReplaysNemesisFromEnvironment*'
// e.g. CAMELOT_SEED=1 CAMELOT_PROTOCOL=nbc CAMELOT_NEMESIS='...' before it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/harness/crash_explorer.h"
#include "src/harness/replay.h"

namespace camelot {
namespace {

ExplorerConfig Config(const CommitOptions& options, uint64_t seed = 1) {
  ExplorerConfig cfg = PartitionStudy();
  cfg.variant = options;
  cfg.seed = seed;
  return cfg;
}

void ReportFailures(const std::vector<SweepFailure>& failures) {
  for (const SweepFailure& f : failures) {
    ADD_FAILURE() << "script '" << f.plan.script.ToString() << "' violated the oracle:\n"
                  << f.result.Explain() << "  replay: " << f.result.replay;
  }
}

NemesisScript MustParse(const std::string& text) {
  auto script = NemesisScript::Parse(text);
  CAMELOT_CHECK(script.ok());
  return *script;
}

TEST(PartitionSchedule, FaultFreeRunPassesOracle) {
  for (const CommitOptions& options :
       {CommitOptions::Optimized(), CommitOptions::Unoptimized(),
        CommitOptions::Intermediate(), CommitOptions::NonBlocking(),
        CommitOptions::Paxos(0), CommitOptions::Paxos(1)}) {
    CrashExplorer ex(Config(options));
    const RunResult result = ex.Run(NemesisScript{});
    EXPECT_TRUE(result.ok) << ProtocolName(options) << ": " << result.Explain();
    EXPECT_EQ(result.client_ok, ex.config().transfers);
    for (const SiteObservation& obs : result.sites) {
      EXPECT_EQ(obs.decided_in_window, 0u);
      EXPECT_EQ(obs.stuck_families, 0u);
    }
  }
}

// --- The paper's blocking claim, as a falsifiable contrast ------------------------

TEST(PartitionSchedule, TwoPhaseSubordinatesBlockWhileCoordinatorIsolated) {
  // Partition {0} | {1,2} the instant the 2PC coordinator's commit record is
  // durable: subordinates are prepared, in the window of vulnerability, and
  // the COMMIT datagrams die on the wire.
  CrashExplorer ex(Config(CommitOptions::Optimized()));
  const RunResult result =
      ex.Run(MustParse("tm.2pc.commit_force.after@0#1=partition:0|1,2;+4000000=heal"));
  ASSERT_TRUE(result.ok) << result.Explain() << "  replay: " << result.replay;

  ASSERT_EQ(result.sites.size(), 3u);
  for (int sub : {1, 2}) {
    // Blocked: entered the blocked state, accumulated lock-holding limbo time,
    // and decided NOTHING while the partition stood.
    EXPECT_GT(result.sites[sub].blocked_periods, 0u) << "site " << sub;
    EXPECT_GT(result.sites[sub].blocked_time_us, 0u) << "site " << sub;
    EXPECT_EQ(result.sites[sub].decided_in_window, 0u) << "site " << sub;
  }
}

TEST(PartitionSchedule, NbcQuorumSideDecidesDuringPartition) {
  // Same split, same instant, but under the non-blocking protocol: sites 1+2
  // hold replicated evidence and form a commit quorum (2 of 3), so takeover
  // decides inside the fault window — no waiting for the coordinator.
  CrashExplorer ex(Config(CommitOptions::NonBlocking()));
  const RunResult result =
      ex.Run(MustParse("tm.nbc.commit_force.after@0#1=partition:0|1,2;+4000000=heal"));
  ASSERT_TRUE(result.ok) << result.Explain() << "  replay: " << result.replay;

  ASSERT_EQ(result.sites.size(), 3u);
  uint64_t quorum_side_decisions = 0;
  for (int sub : {1, 2}) {
    quorum_side_decisions += result.sites[sub].decided_in_window;
  }
  EXPECT_GT(quorum_side_decisions, 0u)
      << "NBC majority failed to decide during the partition";
}

TEST(PartitionSchedule, PaxosQuorumSideDecidesDuringPartition) {
  // The Paxos Commit non-blocking claim: isolate the coordinator the instant
  // its ballot-0 accept is durable (the commit record itself is only
  // spooled). Acceptors 1+2 hold a commit quorum of accepts (2 of 3 under
  // F = 1), so leader takeover at a promoted ballot decides inside the fault
  // window — same availability as NBC, one fewer coordinator force.
  CrashExplorer ex(Config(CommitOptions::Paxos(1)));
  const RunResult result =
      ex.Run(MustParse("tm.paxos.accept_force.after@0#1=partition:0|1,2;+4000000=heal"));
  ASSERT_TRUE(result.ok) << result.Explain() << "  replay: " << result.replay;

  ASSERT_EQ(result.sites.size(), 3u);
  uint64_t quorum_side_decisions = 0;
  for (int sub : {1, 2}) {
    quorum_side_decisions += result.sites[sub].decided_in_window;
  }
  EXPECT_GT(quorum_side_decisions, 0u)
      << "Paxos acceptor majority failed to decide during the partition";
  // The recipe for a paxos run must carry F so the replay rebuilds the same
  // acceptor-set geometry.
  EXPECT_NE(result.replay.find("CAMELOT_PROTOCOL=paxos"), std::string::npos) << result.replay;
  EXPECT_NE(result.replay.find("CAMELOT_F=1"), std::string::npos) << result.replay;
}

// --- Exhaustive sweeps -------------------------------------------------------------

TEST(PartitionSchedule, ExhaustiveSinglePartitionSweepTwoPhase) {
  int runs = 0;
  ReportFailures(
      CrashExplorer(Config(CommitOptions::Optimized())).ExhaustiveSinglePartitionSweep(&runs));
  EXPECT_EQ(runs, 17);  // Fault-free conformance baseline + 4 splits x 4 windows.
}

TEST(PartitionSchedule, ExhaustiveSinglePartitionSweepNonBlocking) {
  int runs = 0;
  ReportFailures(CrashExplorer(Config(CommitOptions::NonBlocking()))
                     .ExhaustiveSinglePartitionSweep(&runs));
  EXPECT_EQ(runs, 17);
}

TEST(PartitionSchedule, ExhaustiveSinglePartitionSweepPaxos) {
  int runs = 0;
  ReportFailures(
      CrashExplorer(Config(CommitOptions::Paxos(1))).ExhaustiveSinglePartitionSweep(&runs));
  EXPECT_EQ(runs, 17);
}

TEST(PartitionSchedule, RandomNemesisSmoke) {
  for (const CommitOptions& options :
       {CommitOptions::Optimized(), CommitOptions::NonBlocking(), CommitOptions::Paxos(1)}) {
    int runs = 0;
    ReportFailures(
        CrashExplorer(Config(options)).RandomNemesisSweep(/*rng_seed=*/17, /*rounds=*/4, &runs));
    EXPECT_EQ(runs, 4) << ProtocolName(options);
  }
}

// --- Behaviour pins ---------------------------------------------------------------
//
// One FNV-1a digest over everything a partition run reports, for a whole
// script set: the script, the verdict and violations, the client outcomes,
// the nemesis log (stamped to 0.1 ms) and its unapplied events, each site's
// availability evidence, and the reordered-datagram count. The sets are the
// exhaustive sweep's runs (the fault-free baseline plus its 16 candidates)
// and 100 random scripts, under 2PC, NBC and Paxos F = 1. Every run must
// pass the oracle, every exhaustive candidate must install its split, and at
// least 40 of each random set's scripts must touch the workload: a fault that
// lands after the last transfer explores an idle world.

uint64_t Fnv(uint64_t h, const std::string& text) {
  for (const unsigned char c : text) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  return (h ^ '\n') * 0x100000001b3ULL;
}

uint64_t MixRun(uint64_t h, const NemesisScript& script, const RunResult& r) {
  h = Fnv(h, script.ToString());
  h = Fnv(h, r.ok ? "ok" : "violated");
  for (const std::string& v : r.violations) {
    h = Fnv(h, v);
  }
  h = Fnv(h, std::to_string(r.client_ok));
  for (const std::string& line : r.nemesis_log) {
    h = Fnv(h, line);
  }
  for (const std::string& event : r.unapplied) {
    h = Fnv(h, "unapplied " + event);
  }
  for (const SiteObservation& s : r.sites) {
    h = Fnv(h, std::to_string(s.decided_in_window) + " " + std::to_string(s.blocked_periods) +
                   " " + std::to_string(s.blocked_time_us) + " " +
                   std::to_string(s.stuck_families));
  }
  return Fnv(h, std::to_string(r.datagrams_reordered));
}

// A fault touched the workload: some site decided inside a partition window
// or blocked, or a transfer did not return OK.
bool TouchedWorkload(const RunResult& r, int transfers) {
  bool touched = r.client_ok < transfers;
  for (const SiteObservation& s : r.sites) {
    touched = touched || s.decided_in_window > 0 || s.blocked_periods > 0;
  }
  return touched;
}

bool AppliedPartition(const RunResult& r) {
  for (const std::string& line : r.nemesis_log) {
    if (line.find("partition:") != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(PartitionScheduleDigest, RunsMatchPinnedDigests) {
  struct Set {
    const char* name;
    CommitOptions options;
    bool random;  // RandomNemesisScripts(6271, 100); else baseline + SinglePartitionScripts.
    uint64_t digest;
  };
  const Set sets[] = {
      {"2pc exhaustive", CommitOptions::Optimized(), false, 0x92d18d747c84ba25ULL},
      {"nbc exhaustive", CommitOptions::NonBlocking(), false, 0xa931884586c7385fULL},
      {"paxos F=1 exhaustive", CommitOptions::Paxos(1), false, 0x202a18b1922f12a5ULL},
      {"2pc random", CommitOptions::Optimized(), true, 0xf4903f5e5c978df3ULL},
      {"nbc random", CommitOptions::NonBlocking(), true, 0x62d097308f3396e6ULL},
      {"paxos F=1 random", CommitOptions::Paxos(1), true, 0xa3923ebebb5b1e91ULL},
  };
  for (const Set& set : sets) {
    CrashExplorer ex(Config(set.options));
    std::vector<NemesisScript> scripts;
    if (set.random) {
      scripts = RandomNemesisScripts(/*rng_seed=*/6271, /*rounds=*/100);
    } else {
      scripts = SinglePartitionScripts(set.options);
      scripts.insert(scripts.begin(), NemesisScript{});
    }
    EXPECT_EQ(scripts.size(), set.random ? 100u : 17u) << set.name;
    uint64_t digest = 0xcbf29ce484222325ULL;
    int touched = 0;
    for (size_t i = 0; i < scripts.size(); ++i) {
      const RunResult r = ex.Run(scripts[i]);
      digest = MixRun(digest, scripts[i], r);
      EXPECT_TRUE(r.ok) << set.name << ": " << scripts[i].ToString() << "\n"
                        << r.Explain() << "  replay: " << r.replay;
      touched += TouchedWorkload(r, ex.config().transfers) ? 1 : 0;
      if (!set.random && i > 0) {
        EXPECT_TRUE(AppliedPartition(r))
            << set.name << ": " << scripts[i].ToString() << " never installed its split";
      }
    }
    if (set.random) {
      EXPECT_GE(touched, 40) << set.name << ": too few random scripts touched the workload";
    }
    EXPECT_EQ(digest, set.digest)
        << set.name << ": partition runs changed (digest 0x" << std::hex << digest
        << "). A digest may move only in a change that states why explorer behaviour "
           "changed; a refactor must leave every run, nemesis timestamps included, as it was.";
  }
}

// --- Determinism -------------------------------------------------------------------

TEST(PartitionSchedule, SameSeedAndScriptReproduceIdenticalRuns) {
  const NemesisScript script =
      MustParse("tm.2pc.commit_force.after@0#1=partition:0|1,2;+4000000=heal;"
                "@8000000=reorder:0.3,20000;+2000000=calm");
  auto run = [&script] {
    return CrashExplorer(Config(CommitOptions::Optimized(), 7)).Run(script);
  };
  const RunResult a = run();
  const RunResult b = run();
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.client_ok, b.client_ok);
  EXPECT_EQ(a.nemesis_log, b.nemesis_log);  // Same faults at the same instants.
  EXPECT_EQ(a.datagrams_reordered, b.datagrams_reordered);
  ASSERT_EQ(a.sites.size(), b.sites.size());
  for (size_t i = 0; i < a.sites.size(); ++i) {
    EXPECT_EQ(a.sites[i].decided_in_window, b.sites[i].decided_in_window) << i;
    EXPECT_EQ(a.sites[i].blocked_periods, b.sites[i].blocked_periods) << i;
    EXPECT_EQ(a.sites[i].blocked_time_us, b.sites[i].blocked_time_us) << i;
  }
}

// --- Replay from a printed recipe --------------------------------------------------

TEST(PartitionScheduleReplay, ReplaysNemesisFromEnvironment) {
  if (std::getenv("CAMELOT_NEMESIS") == nullptr) {
    GTEST_SKIP() << "set the recipe's CAMELOT_* variables to replay";
  }
  if (std::getenv("CAMELOT_TRACE") != nullptr) {
    SetTraceLevel(TraceLevel::kDebug);
  }
  const Result<ExplorerReplay> replay = ReadReplayRecipe(PartitionStudy());
  ASSERT_TRUE(replay.ok()) << replay.status().message();
  const RunResult result = CrashExplorer(replay->config).Run(replay->plan);
  for (const std::string& line : result.nemesis_log) {
    std::printf("%s\n", line.c_str());
  }
  EXPECT_TRUE(result.ok) << result.Explain() << "  replay: " << result.replay;
}

}  // namespace
}  // namespace camelot
