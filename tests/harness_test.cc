// Tests for the harness itself: World wiring, Drive vs RunSync semantics,
// StatsReport rendering, stable-log persistence across processes, and the
// explorer's balance audit.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/harness/oracle.h"
#include "src/harness/world.h"

namespace camelot {
namespace {

WorldConfig Quiet(int sites = 2) {
  WorldConfig cfg;
  cfg.site_count = sites;
  cfg.net.send_jitter_mean = 0;
  cfg.net.stall_probability = 0;
  cfg.net.receive_skew_mean = 0;
  return cfg;
}

TEST(WorldTest, SitesAreWiredAndIndependent) {
  World world(Quiet(3));
  EXPECT_EQ(world.site_count(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(world.site(i).site().id(), (SiteId{static_cast<uint32_t>(i)}));
    EXPECT_TRUE(world.site(i).site().up());
  }
  world.AddServer(1, "srv");
  EXPECT_NE(world.site(1).server("srv"), nullptr);
  EXPECT_EQ(world.site(0).server("srv"), nullptr);
  auto where = world.names().Resolve("srv");
  ASSERT_TRUE(where.ok());
  EXPECT_EQ(*where, SiteId{1});
}

TEST(WorldTest, DriveReturnsWithoutDrainingDaemons) {
  World world(Quiet(2));
  world.AddServer(1, "srv")->CreateObjectForSetup("x", EncodeInt64(0));
  AppClient app(world.site(0));
  // Open a transaction that touches the remote site; its orphan watcher will
  // keep the event queue non-idle indefinitely.
  auto tid = world.Drive([](AppClient& a) -> Async<Result<Tid>> {
    auto b = co_await a.Begin();
    co_await a.WriteInt(*b, "srv", "x", 1);
    co_return b;
  }(app));
  ASSERT_TRUE(tid.has_value());
  ASSERT_TRUE(tid->ok());
  // Drive returned even though the watcher's timer is pending.
  EXPECT_GT(world.sched().pending_events(), 0u);
  // Finish the transaction; now everything quiesces.
  auto st = world.Drive([](AppClient& a, Tid t) -> Async<Status> {
    Status r = co_await a.Commit(t);
    co_return r;
  }(app, **tid));
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->ok());
  world.RunUntilIdle();
  EXPECT_EQ(world.site(1).tranman().live_family_count(), 0u);
}

TEST(WorldTest, StatsReportContainsPerSiteCounters) {
  World world(Quiet(2));
  world.AddServer(0, "srv")->CreateObjectForSetup("x", EncodeInt64(0));
  AppClient app(world.site(0));
  world.RunSync([](AppClient& a) -> Async<bool> {
    auto b = co_await a.Begin();
    co_await a.WriteInt(*b, "srv", "x", 5);
    co_await a.Commit(*b);
    co_return true;
  }(app));
  const std::string report = world.StatsReport();
  EXPECT_NE(report.find("site 0"), std::string::npos);
  EXPECT_NE(report.find("site 1"), std::string::npos);
  EXPECT_NE(report.find("txns committed"), std::string::npos);
  EXPECT_NE(report.find("log disk writes"), std::string::npos);
  EXPECT_NE(report.find("network:"), std::string::npos);
}

TEST(StableLogPersistenceTest, SaveAndLoadRoundTripsDurableImage) {
  const std::string path = "/tmp/camelot_log_persist_test.bin";
  const Tid tid{FamilyId{SiteId{0}, 1}, 0, 0};
  {
    Scheduler sched;
    StableLog log(sched, LogConfig{});
    log.Append(LogRecord::Update(tid, "srv", "x", {1}, {2}));
    const Lsn lsn = log.Append(LogRecord::Commit(tid, {}));
    sched.Spawn([](StableLog& l, Lsn x) -> Async<void> { co_await l.Force(x); }(log, lsn));
    sched.RunUntilIdle();
    log.Append(LogRecord::End(tid));  // Volatile tail: must NOT persist.
    ASSERT_TRUE(log.SaveToFile(path));
  }
  {
    Scheduler sched;
    StableLog log(sched, LogConfig{});
    ASSERT_TRUE(log.LoadFromFile(path));
    auto records = log.ReadDurable();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].kind, LogRecordKind::kUpdate);
    EXPECT_EQ(records[1].kind, LogRecordKind::kCommit);
  }
  std::remove(path.c_str());
}

TEST(StableLogPersistenceTest, LoadRejectsCorruptImage) {
  const std::string path = "/tmp/camelot_log_persist_corrupt.bin";
  {
    Scheduler sched;
    StableLog log(sched, LogConfig{});
    const Lsn lsn = log.Append(LogRecord::Abort(Tid{FamilyId{SiteId{0}, 1}, 0, 0}));
    sched.Spawn([](StableLog& l, Lsn x) -> Async<void> { co_await l.Force(x); }(log, lsn));
    sched.RunUntilIdle();
    ASSERT_TRUE(log.SaveToFile(path));
  }
  // Flip a byte in the payload area.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 30, SEEK_SET);
    const char junk = 0x5a;
    std::fwrite(&junk, 1, 1, f);
    std::fclose(f);
  }
  Scheduler sched;
  StableLog log(sched, LogConfig{});
  EXPECT_FALSE(log.LoadFromFile(path));
  std::remove(path.c_str());
}

TEST(StableLogPersistenceTest, LoadPreservesReclaimedBaseOffset) {
  const std::string path = "/tmp/camelot_log_persist_base.bin";
  const Tid tid{FamilyId{SiteId{0}, 1}, 0, 0};
  Lsn checkpoint_start;
  {
    Scheduler sched;
    StableLog log(sched, LogConfig{});
    const Lsn first = log.Append(LogRecord::Abort(tid));
    sched.Spawn([](StableLog& l, Lsn x) -> Async<void> { co_await l.Force(x); }(log, first));
    sched.RunUntilIdle();
    checkpoint_start = log.buffered_lsn();
    const Lsn second = log.Append(LogRecord::Checkpoint());
    sched.Spawn([](StableLog& l, Lsn x) -> Async<void> { co_await l.Force(x); }(log, second));
    sched.RunUntilIdle();
    log.ReclaimBefore(checkpoint_start);
    ASSERT_TRUE(log.SaveToFile(path));
  }
  Scheduler sched;
  StableLog log(sched, LogConfig{});
  ASSERT_TRUE(log.LoadFromFile(path));
  EXPECT_EQ(log.reclaimed_bytes(), checkpoint_start.value);
  auto records = log.ReadDurable();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, LogRecordKind::kCheckpoint);
  // LSNs remain globally consistent after the reload.
  EXPECT_GT(records[0].lsn.value, checkpoint_start.value);
  std::remove(path.c_str());
}

TEST(WorldSnapshotTest, ColdBackupRestoresCommittedState) {
  const std::string prefix = "/tmp/camelot_world_snap_test";
  WorldConfig cfg = Quiet(2);
  World world(cfg);
  for (int i = 0; i < 2; ++i) {
    world.AddServer(i, "srv" + std::to_string(i))->CreateObjectForSetup("x", EncodeInt64(1));
  }
  AppClient app(world.site(0));
  auto commit = [&](int64_t value) {
    world.RunSync([](AppClient& a, int64_t v) -> Async<bool> {
      auto b = co_await a.Begin();
      co_await a.WriteInt(*b, "srv0", "x", v);
      co_await a.WriteInt(*b, "srv1", "x", v);
      co_await a.Commit(*b);
      co_return true;
    }(app, value));
  };
  auto read_x = [&](const std::string& srv) {
    auto v = world.RunSync([](AppClient& a, std::string s) -> Async<int64_t> {
      auto b = co_await a.Begin();
      auto value = co_await a.ReadInt(*b, s, "x");
      co_await a.Commit(*b);
      co_return value.value_or(-1);
    }(app, srv));
    return v.value_or(-1);
  };

  commit(42);
  for (int i = 0; i < 2; ++i) {
    const std::string base = prefix + ".site" + std::to_string(i);
    ASSERT_TRUE(world.site(i).log().SaveToFile(base + ".log"));
    ASSERT_TRUE(world.site(i).diskmgr().SaveToFile(base + ".data"));
  }
  commit(99);  // Post-snapshot state, to be rolled back.
  ASSERT_EQ(read_x("srv0"), 99);

  for (int i = 0; i < 2; ++i) {
    const std::string base = prefix + ".site" + std::to_string(i);
    world.Crash(i);
    ASSERT_TRUE(world.site(i).log().LoadFromFile(base + ".log"));
    ASSERT_TRUE(world.site(i).diskmgr().LoadFromFile(base + ".data"));
    world.Restart(i);
  }
  world.RunUntilIdle();
  EXPECT_EQ(read_x("srv0"), 42);
  EXPECT_EQ(read_x("srv1"), 42);
  for (int i = 0; i < 2; ++i) {
    const std::string base = prefix + ".site" + std::to_string(i);
    std::remove((base + ".log").c_str());
    std::remove((base + ".data").c_str());
  }
}

// The balance audit's verdicts. Three vaults whose final balances are set
// directly, and 20 transfers around the ring with distinct amounts (1..20),
// so exactly one subset of them explains any balances built below.
TEST(BalanceAuditTest, ExplainsBalancesBySubsetsHoldingEveryClientOk) {
  static constexpr int kSites = 3;
  static constexpr int kTransfers = 20;
  static constexpr int64_t kInitial = 1000;
  static constexpr int kUndetermined = 7;
  const auto attempts = [](bool seven_ok, bool seven_attempted) {
    std::vector<TransferAttempt> out(kTransfers);
    for (int i = 0; i < kTransfers; ++i) {
      TransferAttempt& t = out[static_cast<size_t>(i)];
      t.status = OkStatus();
      t.attempted = true;
      t.from_vault = i % kSites;
      t.to_vault = (i + 1) % kSites;
      t.amount = i + 1;
    }
    if (!seven_ok) {
      out[kUndetermined].status = TimedOutError("commit outcome unknown");
    }
    out[kUndetermined].attempted = seven_attempted;
    return out;
  };
  // Audits balances that apply every transfer, or every one but transfer 7.
  const auto audit = [](const std::vector<TransferAttempt>& tried, bool seven_applied) {
    std::vector<int64_t> balance(kSites, kInitial);
    for (int i = 0; i < kTransfers; ++i) {
      if (i != kUndetermined || seven_applied) {
        const TransferAttempt& t = tried[static_cast<size_t>(i)];
        balance[static_cast<size_t>(t.from_vault)] -= t.amount;
        balance[static_cast<size_t>(t.to_vault)] += t.amount;
      }
    }
    World world(Quiet(kSites));
    for (int i = 0; i < kSites; ++i) {
      world.AddServer(i, "server:" + std::to_string(i))
          ->CreateObjectForSetup("vault", EncodeInt64(balance[static_cast<size_t>(i)]));
    }
    std::vector<std::string> violations;
    AuditBalancesAndSubset(world, kSites, kInitial, tried, &violations);
    return violations;
  };
  // (a) Every transfer OK and applied.
  EXPECT_TRUE(audit(attempts(true, true), true).empty());
  // (b) An undetermined transfer may have committed...
  EXPECT_TRUE(audit(attempts(false, true), true).empty());
  // (c) ...or not.
  EXPECT_TRUE(audit(attempts(false, true), false).empty());
  // (d) A client-OK transfer missing from the balances is a lost commit.
  EXPECT_FALSE(audit(attempts(true, true), false).empty());
  // (e) A client OK for a transfer never attempted cannot be explained.
  EXPECT_FALSE(audit(attempts(true, false), true).empty());
}

}  // namespace
}  // namespace camelot
