// Partition-schedule exploration against the liveness/availability oracle.
//
// The flagship assertions reproduce the paper's blocking claim: while a
// partition isolates the coordinator, 2PC subordinates sit blocked (holding
// locks, deciding nothing) whereas NBC's connected majority runs quorum
// takeover and decides inside the fault window. Every failing run prints a
// replay recipe; rerun it with
//   CAMELOT_SEED=... CAMELOT_PROTOCOL=... CAMELOT_NEMESIS='...' \
//   ./partition_schedule_test --gtest_filter='*ReplaysNemesisFromEnvironment*'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/base/logging.h"
#include "src/harness/partition_explorer.h"
#include "src/harness/replay.h"

namespace camelot {
namespace {

PartitionExplorerConfig Config(const CommitOptions& options, uint64_t seed = 1) {
  PartitionExplorerConfig cfg;
  cfg.variant = options;
  cfg.seed = seed;
  return cfg;
}

void ReportFailures(const std::vector<PartitionSweepFailure>& failures) {
  for (const PartitionSweepFailure& f : failures) {
    ADD_FAILURE() << f.label << " violated the oracle:\n"
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
    PartitionExplorerConfig cfg;
    cfg.variant = options;
    PartitionExplorer ex(cfg);
    const PartitionRunResult result = ex.Run(NemesisScript{});
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
  PartitionExplorer ex(Config(CommitOptions::Optimized()));
  const PartitionRunResult result =
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
  PartitionExplorer ex(Config(CommitOptions::NonBlocking()));
  const PartitionRunResult result =
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
  PartitionExplorerConfig cfg;
  cfg.variant = CommitOptions::Paxos(1);
  PartitionExplorer ex(cfg);
  const PartitionRunResult result =
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
      PartitionExplorer(Config(CommitOptions::Optimized())).ExhaustiveSinglePartitionSweep(&runs));
  EXPECT_EQ(runs, 17);  // Fault-free conformance baseline + 4 splits x 4 windows.
}

TEST(PartitionSchedule, ExhaustiveSinglePartitionSweepNonBlocking) {
  int runs = 0;
  ReportFailures(PartitionExplorer(Config(CommitOptions::NonBlocking()))
                     .ExhaustiveSinglePartitionSweep(&runs));
  EXPECT_EQ(runs, 17);
}

TEST(PartitionSchedule, ExhaustiveSinglePartitionSweepPaxos) {
  PartitionExplorerConfig cfg;
  cfg.variant = CommitOptions::Paxos(1);
  int runs = 0;
  ReportFailures(PartitionExplorer(cfg).ExhaustiveSinglePartitionSweep(&runs));
  EXPECT_EQ(runs, 17);
}

TEST(PartitionSchedule, RandomNemesisSmoke) {
  for (const CommitOptions& options :
       {CommitOptions::Optimized(), CommitOptions::NonBlocking(), CommitOptions::Paxos(1)}) {
    PartitionExplorerConfig cfg;
    cfg.variant = options;
    int runs = 0;
    ReportFailures(PartitionExplorer(cfg).RandomNemesisSweep(/*rng_seed=*/17, /*rounds=*/4, &runs));
    EXPECT_EQ(runs, 4) << ProtocolName(options);
  }
}

// --- Determinism -------------------------------------------------------------------

TEST(PartitionSchedule, SameSeedAndScriptReproduceIdenticalRuns) {
  const NemesisScript script =
      MustParse("tm.2pc.commit_force.after@0#1=partition:0|1,2;+4000000=heal;"
                "@8000000=reorder:0.3,20000;+2000000=calm");
  auto run = [&script] {
    return PartitionExplorer(Config(CommitOptions::Optimized(), 7)).Run(script);
  };
  const PartitionRunResult a = run();
  const PartitionRunResult b = run();
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
  const char* nemesis_text = std::getenv("CAMELOT_NEMESIS");
  if (nemesis_text == nullptr) {
    GTEST_SKIP() << "set CAMELOT_SEED / CAMELOT_PROTOCOL / CAMELOT_NEMESIS to replay";
  }
  PartitionExplorerConfig cfg;
  if (const char* seed = std::getenv("CAMELOT_SEED")) {
    cfg.seed = std::strtoull(seed, nullptr, 10);
  }
  if (const char* protocol = std::getenv("CAMELOT_PROTOCOL")) {
    auto options = ParseProtocolName(protocol);
    ASSERT_TRUE(options.ok()) << "CAMELOT_PROTOCOL: " << options.status().message();
    cfg.variant = ApplyPaxosFFromEnv(*options);
  }
  if (std::getenv("CAMELOT_TRACE") != nullptr) {
    SetTraceLevel(TraceLevel::kDebug);
  }
  const auto script = NemesisScript::Parse(nemesis_text);
  ASSERT_TRUE(script.ok()) << script.status().message();
  const PartitionRunResult result = PartitionExplorer(cfg).Run(*script);
  for (const std::string& line : result.nemesis_log) {
    std::printf("%s\n", line.c_str());
  }
  EXPECT_TRUE(result.ok) << result.Explain() << "  replay: " << result.replay;
}

}  // namespace
}  // namespace camelot
