// IsolationOracle tests: every named anomaly is detected BY NAME on a
// synthetic history crafted to exhibit it, clean histories pass, and — the
// mutation test that proves the whole pipeline can catch a real bug — an
// injected isolation violation (the "server.undo" failpoint dropping an
// abort's compensation write, leaking the forward image) is detected in a
// live world, survives a dump/load round trip, and is caught by the crash
// explorer with a CAMELOT_HISTORY replay recipe.
#include "src/harness/isolation_oracle.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/harness/crash_explorer.h"
#include "src/harness/replay.h"
#include "src/harness/world.h"

namespace camelot {
namespace {

FamilyId Fam(uint64_t n) { return FamilyId{SiteId{0}, n}; }

HistoryEvent Init(SimTime ts, const std::string& obj, int64_t value) {
  return HistoryEvent{HistoryOp::kInit, ts, 0, kInvalidTid, "srv", obj, EncodeInt64(value)};
}
HistoryEvent Read(SimTime ts, uint64_t fam, const std::string& obj, int64_t value) {
  return HistoryEvent{HistoryOp::kRead, ts, 0, Tid{Fam(fam), 0, 0}, "srv", obj,
                      EncodeInt64(value)};
}
HistoryEvent Write(SimTime ts, uint64_t fam, const std::string& obj, int64_t value) {
  return HistoryEvent{HistoryOp::kWrite, ts, 0, Tid{Fam(fam), 0, 0}, "srv", obj,
                      EncodeInt64(value)};
}
HistoryEvent Commit(SimTime ts, uint64_t fam, SiteId site = SiteId{0}) {
  return HistoryEvent{HistoryOp::kCommit, ts, site, Tid{Fam(fam), 0, 0}, std::string(),
                      std::string(), Bytes()};
}
HistoryEvent Abort(SimTime ts, uint64_t fam, SiteId site = SiteId{0}) {
  return HistoryEvent{HistoryOp::kAbort, ts, site, Tid{Fam(fam), 0, 0}, std::string(),
                      std::string(), Bytes()};
}

// The one anomaly of the report must carry this name.
void ExpectAnomaly(const IsolationReport& report, AnomalyType type) {
  ASSERT_EQ(report.anomalies.size(), 1u) << report.Explain();
  EXPECT_EQ(report.anomalies[0].type, type) << report.Explain();
}

TEST(IsolationOracleTest, CleanSerialHistoryPasses) {
  std::vector<HistoryEvent> h{
      Init(0, "x", 0),
      Read(5, 1, "x", 0),  Write(6, 1, "x", 10),  Commit(8, 1),
      Read(11, 2, "x", 10), Write(12, 2, "x", 20), Commit(14, 2),
  };
  IsolationReport report = IsolationOracle::Check(h);
  EXPECT_TRUE(report.ok()) << report.Explain();
  EXPECT_EQ(report.committed, 2u);
  EXPECT_EQ(report.reads_checked, 2u);
  EXPECT_TRUE(report.CheckFinalValue("srv", "x", EncodeInt64(20)));
  EXPECT_FALSE(report.CheckFinalValue("srv", "x", EncodeInt64(7)));
  EXPECT_EQ(report.anomalies.back().type, AnomalyType::kDivergentFinalState);
}

TEST(IsolationOracleTest, DetectsDivergentOutcome) {
  std::vector<HistoryEvent> h{
      Init(0, "x", 0), Write(5, 1, "x", 1), Commit(8, 1, /*site=*/SiteId{0}),
      Abort(9, 1, /*site=*/SiteId{1}),
  };
  ExpectAnomaly(IsolationOracle::Check(h), AnomalyType::kDivergentOutcome);
}

TEST(IsolationOracleTest, DetectsReadOfAborted) {
  std::vector<HistoryEvent> h{
      Init(0, "x", 0),
      Write(5, 1, "x", 111), Abort(8, 1),          // Leaked image: undo skipped.
      Read(10, 2, "x", 111), Commit(12, 2),
  };
  ExpectAnomaly(IsolationOracle::Check(h), AnomalyType::kReadOfAborted);
}

TEST(IsolationOracleTest, DetectsDirtyReadOfUndecidedWriter) {
  std::vector<HistoryEvent> h{
      Init(0, "x", 0),
      Write(5, 1, "x", 222),                        // Family 1 never concludes.
      Read(6, 2, "x", 222), Commit(8, 2),
  };
  IsolationReport report = IsolationOracle::Check(h);
  ExpectAnomaly(report, AnomalyType::kDirtyRead);
  EXPECT_EQ(report.undecided, 1u);
}

TEST(IsolationOracleTest, DetectsDirtyReadBeforeWriterCommit) {
  std::vector<HistoryEvent> h{
      Init(0, "x", 0),
      Write(5, 1, "x", 333), Commit(20, 1),
      Read(10, 2, "x", 333), Commit(15, 2),  // Serialized BEFORE the writer.
  };
  ExpectAnomaly(IsolationOracle::Check(h), AnomalyType::kDirtyRead);
}

TEST(IsolationOracleTest, DetectsLostUpdate) {
  std::vector<HistoryEvent> h{
      Init(0, "x", 0),
      Write(5, 1, "x", 10), Commit(10, 1),
      // Family 2 read the pre-image and overwrote family 1's update blind.
      Read(6, 2, "x", 0), Write(7, 2, "x", 20), Commit(15, 2),
  };
  ExpectAnomaly(IsolationOracle::Check(h), AnomalyType::kLostUpdate);
}

TEST(IsolationOracleTest, DetectsWriteSkew) {
  std::vector<HistoryEvent> h{
      Init(0, "x", 0), Init(0, "y", 0),
      // Family 1 read both, wrote y; family 2 read both, wrote x: each based
      // its write on a snapshot the serial order says it could not have had.
      Read(5, 1, "x", 0), Read(5, 1, "y", 0), Write(6, 1, "y", 1), Commit(10, 1),
      Read(7, 2, "x", 0), Read(7, 2, "y", 0), Write(8, 2, "x", 1), Commit(12, 2),
  };
  ExpectAnomaly(IsolationOracle::Check(h), AnomalyType::kWriteSkew);
}

TEST(IsolationOracleTest, DetectsNonSerializableReadOnlyObserver) {
  std::vector<HistoryEvent> h{
      Init(0, "x", 0),
      Write(5, 1, "x", 5), Commit(8, 1),
      Read(10, 2, "x", 0), Commit(12, 2),  // Read-only family saw a stale x.
  };
  ExpectAnomaly(IsolationOracle::Check(h), AnomalyType::kNonSerializableRead);
}

TEST(IsolationOracleTest, AnomalyNamesAreStable) {
  EXPECT_STREQ(AnomalyName(AnomalyType::kDivergentOutcome), "divergent-outcome");
  EXPECT_STREQ(AnomalyName(AnomalyType::kReadOfAborted), "read-of-aborted");
  EXPECT_STREQ(AnomalyName(AnomalyType::kDirtyRead), "dirty-read");
  EXPECT_STREQ(AnomalyName(AnomalyType::kLostUpdate), "lost-update");
  EXPECT_STREQ(AnomalyName(AnomalyType::kWriteSkew), "write-skew");
  EXPECT_STREQ(AnomalyName(AnomalyType::kNonSerializableRead), "non-serializable-read");
  EXPECT_STREQ(AnomalyName(AnomalyType::kDivergentFinalState), "divergent-final-state");
}

// --- Mutation tests: the pipeline catches a real injected bug ------------------

// Drop the undo of an aborting transaction's write (the "server.undo"
// failpoint): the forward image leaks, a later reader observes it, and the
// oracle must call that read-of-aborted — by name.
TEST(IsolationMutationTest, LeakedUndoIsDetectedAsReadOfAborted) {
  WorldConfig cfg;
  cfg.site_count = 2;
  cfg.seed = 21;
  World world(cfg);
  world.history().set_enabled(true);
  world.AddServer(0, "vault")->CreateObjectForSetup("obj", EncodeInt64(42));
  world.failpoints().Arm("server.undo", SiteId{0}, FailpointArm::Drop(1));

  AppClient app(world.site(0));
  // Transaction 1: write 43, then abort — the armed drop skips the undo.
  world.RunSync([](AppClient& client) -> Async<Status> {
    auto begin = co_await client.Begin();
    (void)co_await client.WriteInt(*begin, "vault", "obj", 43);
    co_return co_await client.Abort(*begin);
  }(app));
  // Transaction 2: read; with the leaked image this observes 43.
  auto observed = world.RunSync([](AppClient& client) -> Async<int64_t> {
    auto begin = co_await client.Begin();
    auto v = co_await client.ReadInt(*begin, "vault", "obj");
    co_await client.Commit(*begin);
    co_return v.value_or(-1);
  }(app));
  world.RunUntilIdle();
  ASSERT_EQ(observed.value_or(-1), 43) << "the injected leak did not take";

  IsolationReport report = IsolationOracle::Check(world.history().events());
  ASSERT_FALSE(report.ok()) << "oracle missed the injected anomaly";
  ASSERT_EQ(report.anomalies.size(), 1u) << report.Explain();
  EXPECT_EQ(report.anomalies[0].type, AnomalyType::kReadOfAborted) << report.Explain();
  EXPECT_EQ(report.anomalies[0].object, "obj");

  // The verdict survives a dump + load round trip (the CAMELOT_HISTORY path).
  std::string dir = ::testing::TempDir();
  setenv("CAMELOT_ARTIFACT_DIR", dir.c_str(), 1);
  auto path = DumpHistoryArtifact(world.history(), "mutation-undo-leak");
  unsetenv("CAMELOT_ARTIFACT_DIR");
  ASSERT_TRUE(path.ok()) << path.status().message();
  auto loaded = LoadHistoryFile(*path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  IsolationReport reloaded = IsolationOracle::Check(*loaded);
  ASSERT_EQ(reloaded.anomalies.size(), 1u) << reloaded.Explain();
  EXPECT_EQ(reloaded.anomalies[0].type, AnomalyType::kReadOfAborted);
  std::remove(path->c_str());
}

// Same bug, caught end to end by the crash explorer: a schedule that fails a
// subordinate's prepare force (so the family aborts with staged writes) and
// drops that site's undo must produce an isolation violation whose replay
// recipe carries a loadable CAMELOT_HISTORY file.
TEST(IsolationMutationTest, CrashExplorerGatesOnInjectedUndoLeak) {
  ExplorerConfig cfg;
  cfg.seed = 31;
  std::string dir = ::testing::TempDir();
  setenv("CAMELOT_ARTIFACT_DIR", dir.c_str(), 1);
  auto schedule = CrashSchedule::Parse("tm.sub.prepare_force.before@1#1=error;server.undo@1#1=drop");
  ASSERT_TRUE(schedule.ok()) << schedule.status().message();
  RunResult result = CrashExplorer(cfg).Run(*schedule);
  unsetenv("CAMELOT_ARTIFACT_DIR");

  EXPECT_FALSE(result.ok);
  bool isolation_violation = false;
  for (const std::string& v : result.violations) {
    if (v.rfind("isolation: ", 0) == 0) {
      isolation_violation = true;
    }
  }
  EXPECT_TRUE(isolation_violation) << result.Explain();
  ASSERT_FALSE(result.history_path.empty()) << result.Explain();
  EXPECT_NE(result.replay.find("CAMELOT_HISTORY='" + result.history_path + "'"),
            std::string::npos)
      << result.replay;
  auto loaded = LoadHistoryFile(result.history_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_FALSE(IsolationOracle::Check(*loaded).ok());
  std::remove(result.history_path.c_str());
}

// Sanity: the same explorer run WITHOUT the injected bug passes the gate —
// the mutation test's signal comes from the mutation, not the harness.
TEST(IsolationMutationTest, CrashExplorerPassesWithoutTheMutation) {
  ExplorerConfig cfg;
  cfg.seed = 31;
  auto schedule = CrashSchedule::Parse("tm.sub.prepare_force.before@1#1=error");
  ASSERT_TRUE(schedule.ok()) << schedule.status().message();
  RunResult result = CrashExplorer(cfg).Run(*schedule);
  for (const std::string& v : result.violations) {
    EXPECT_NE(v.rfind("isolation: ", 0), 0u) << v;
  }
  EXPECT_TRUE(result.history_path.empty());
}

}  // namespace
}  // namespace camelot
