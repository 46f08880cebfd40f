// HistoryRecorder unit and integration tests: the text format round-trips,
// malformed files are rejected with line numbers, and — the part that keeps
// the IsolationOracle honest — the recorder captures exactly the operations
// the serial-replay argument needs: aborted transactions' reads and writes
// are recorded (and then correctly ignored by the oracle), while recovery's
// redo of already-recorded effects after a crash must NOT be recorded again,
// so a history spanning a site restart still replays serializably.
#include "src/stats/history.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/harness/bank_workload.h"
#include "src/harness/isolation_oracle.h"
#include "src/harness/world.h"

namespace camelot {
namespace {

TEST(HistoryFormatTest, SerializeParseRoundTrip) {
  HistoryRecorder recorder;
  recorder.set_enabled(true);
  recorder.Record(HistoryEvent{HistoryOp::kInit, 0, 0, kInvalidTid, "vault", "balance",
                               Bytes{0x00, 0xff, 0x10}});
  recorder.Record(
      HistoryEvent{HistoryOp::kRead, 5, 1, Tid{FamilyId{1, 7}, 2, 0}, "vault", "balance",
                   Bytes{0x00, 0xff, 0x10}});
  recorder.Record(HistoryEvent{HistoryOp::kWrite, 9, 1, Tid{FamilyId{1, 7}, 2, 0}, "vault",
                               "balance", Bytes{}});
  recorder.Record(HistoryEvent{HistoryOp::kCommit, 12, 0, Tid{FamilyId{1, 7}, 0, 0},
                               std::string(), std::string(), Bytes()});
  recorder.Record(HistoryEvent{HistoryOp::kAbort, 15, 2, Tid{FamilyId{2, 1}, 0, 0},
                               std::string(), std::string(), Bytes()});

  const std::string text = recorder.Serialize();
  EXPECT_EQ(text.rfind("# camelot-history v1", 0), 0u);

  auto parsed = HistoryRecorder::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed->size(), recorder.events().size());
  for (size_t i = 0; i < parsed->size(); ++i) {
    EXPECT_EQ((*parsed)[i], recorder.events()[i]) << "event " << i;
  }
}

TEST(HistoryFormatTest, ParseRejectsMalformedInput) {
  // No header.
  EXPECT_FALSE(HistoryRecorder::Parse("5 read 0:1:0 0 vault obj -\n").ok());
  const std::string header = "# camelot-history v1\n";
  // Wrong field count.
  EXPECT_FALSE(HistoryRecorder::Parse(header + "5 read 0:1:0 0 vault\n").ok());
  // Unknown op.
  EXPECT_FALSE(HistoryRecorder::Parse(header + "5 teleport 0:1:0 0 vault obj -\n").ok());
  // Bad tid token.
  EXPECT_FALSE(HistoryRecorder::Parse(header + "5 read 0..1 0 vault obj -\n").ok());
  // Bad value hex.
  EXPECT_FALSE(HistoryRecorder::Parse(header + "5 read 0:1:0 0 vault obj zz\n").ok());
  // Valid minimal file parses.
  auto ok = HistoryRecorder::Parse(header + "5 read 0:1:0 0 vault obj 0aff\n");
  ASSERT_TRUE(ok.ok()) << ok.status().message();
  ASSERT_EQ(ok->size(), 1u);
  EXPECT_EQ((*ok)[0].value, (Bytes{0x0a, 0xff}));
}

TEST(HistoryRecorderTest, DisabledRecorderDropsEvents) {
  HistoryRecorder recorder;
  recorder.Record(HistoryEvent{HistoryOp::kInit, 0, 0, kInvalidTid, "s", "o", Bytes()});
  EXPECT_EQ(recorder.size(), 0u);
  recorder.set_enabled(true);
  recorder.Record(HistoryEvent{HistoryOp::kInit, 0, 0, kInvalidTid, "s", "o", Bytes()});
  EXPECT_EQ(recorder.size(), 1u);
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
}

WorldConfig TwoSiteConfig(uint64_t seed) {
  WorldConfig cfg;
  cfg.site_count = 2;
  cfg.seed = seed;
  return cfg;
}

size_t CountOps(const std::vector<HistoryEvent>& events, HistoryOp op,
                const std::string& object) {
  return static_cast<size_t>(
      std::count_if(events.begin(), events.end(), [&](const HistoryEvent& e) {
        return e.op == op && e.object == object;
      }));
}

TEST(HistoryRecorderTest, AbortedTransactionReadsAreRecordedButBenign) {
  World world(TwoSiteConfig(11));
  world.history().set_enabled(true);
  world.AddServer(0, "vault")->CreateObjectForSetup("obj", EncodeInt64(42));

  AppClient app(world.site(0));
  auto aborted = world.RunSync([](AppClient& client) -> Async<bool> {
    auto begin = co_await client.Begin();
    if (!begin.ok()) {
      co_return false;
    }
    auto v = co_await client.ReadInt(*begin, "vault", "obj");
    if (!v.ok()) {
      co_return false;
    }
    (void)co_await client.WriteInt(*begin, "vault", "obj", *v + 1);
    co_await client.Abort(*begin);
    co_return true;
  }(app));
  ASSERT_TRUE(aborted.value_or(false));
  world.RunUntilIdle();

  const auto& events = world.history().events();
  // The doomed transaction's read AND write are in the history...
  EXPECT_EQ(CountOps(events, HistoryOp::kRead, "obj"), 1u);
  EXPECT_EQ(CountOps(events, HistoryOp::kWrite, "obj"), 1u);
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const HistoryEvent& e) {
    return e.op == HistoryOp::kAbort;
  }));
  // ...but the abort's compensation (undo) write is NOT, and the oracle
  // ignores the aborted family entirely: no anomaly.
  IsolationReport report = IsolationOracle::Check(events);
  EXPECT_TRUE(report.ok()) << report.Explain();
  EXPECT_EQ(report.aborted, 1u);
  EXPECT_EQ(report.committed, 0u);
  // The forward image survived the undo: a fresh reader sees 42 again.
  auto value = world.RunSync([](AppClient& client) -> Async<int64_t> {
    auto begin = co_await client.Begin();
    auto v = co_await client.ReadInt(*begin, "vault", "obj");
    co_await client.Commit(*begin);
    co_return v.value_or(-1);
  }(app));
  EXPECT_EQ(value.value_or(-1), 42);
}

// One remote write of `value` to vault/obj, committed.
Async<Status> WriteAndCommit(AppClient& client, int64_t value) {
  auto begin = co_await client.Begin();
  if (!begin.ok()) {
    co_return begin.status();
  }
  Status w = co_await client.WriteInt(*begin, "vault", "obj", value);
  if (!w.ok()) {
    co_return w;
  }
  co_return co_await client.Commit(*begin);
}

// A fresh transaction's committed read of vault/obj (-1 on failure).
Async<int64_t> ReadCommitted(AppClient& client) {
  auto begin = co_await client.Begin();
  auto v = co_await client.ReadInt(*begin, "vault", "obj");
  co_await client.Commit(*begin);
  co_return v.value_or(-1);
}

// Server "vault" with obj = 0 on site 0 of a recording two-site world.
void SetupVault(World& world) {
  world.history().set_enabled(true);
  world.AddServer(0, "vault")->CreateObjectForSetup("obj", EncodeInt64(0));
}

// Crashes site 0 and waits for its recovery to finish.
void CrashAndRecover(World& world) {
  world.Crash(0);
  world.RunFor(Sec(1));
  world.Restart(0);
  world.RunUntilIdle();
}

TEST(HistoryRecorderTest, RecoveryReplayDoesNotDoubleRecord) {
  World world(TwoSiteConfig(12));
  SetupVault(world);
  AppClient app(world.site(1));  // Remote client: commits span both sites.
  for (int i = 0; i < 3; ++i) {
    auto st = world.RunSync(WriteAndCommit(app, i + 1));
    ASSERT_TRUE(st.has_value() && st->ok()) << "transfer " << i;
  }

  const size_t writes_before = CountOps(world.history().events(), HistoryOp::kWrite, "obj");
  ASSERT_EQ(writes_before, 3u);

  // Crash the server's site and recover it: recovery's redo of the committed
  // writes replays them into the page cache WITHOUT re-recording them.
  CrashAndRecover(world);
  ASSERT_TRUE(world.site(0).site().up());
  EXPECT_EQ(CountOps(world.history().events(), HistoryOp::kWrite, "obj"), writes_before)
      << "recovery redo must not duplicate history events";

  // The history spans the restart and still replays serializably, and a
  // post-restart read extends it consistently.
  auto value = world.RunSync(ReadCommitted(app));
  EXPECT_EQ(value.value_or(-1), 3);
  IsolationReport report = IsolationOracle::Check(world.history().events());
  EXPECT_TRUE(report.ok()) << report.Explain();
  EXPECT_GE(report.committed, 3u);
  EXPECT_TRUE(report.CheckFinalValue("vault", "obj", EncodeInt64(3)));
}

// --- Behaviour pins ---------------------------------------------------------------
//
// FNV-1a digests of what a world records: its serialized history, and the
// ordered ledger keys (with site and family) of every cost event. The worlds
// are the overhead bench's three-site bank run under each commit variant, and
// the crash-and-restart run above. A refactor of the recording path must
// leave both digests as they were.

uint64_t Fnv1a(uint64_t h, const std::string& text) {
  for (const unsigned char c : text) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  return (h ^ '\n') * 0x100000001b3ULL;
}

struct RecordingDigest {
  uint64_t history = 0;
  uint64_t ledger = 0;
};

RecordingDigest DigestOf(World& world) {
  RecordingDigest d{0xcbf29ce484222325ULL, 0xcbf29ce484222325ULL};
  d.history = Fnv1a(d.history, world.history().Serialize());
  for (const CostEvent& e : world.cost_ledger().events()) {
    d.ledger = Fnv1a(d.ledger, CostLedger::Key(e) + " " + std::to_string(e.site.value) + " " +
                                   std::to_string(e.family.origin.value) + ":" +
                                   std::to_string(e.family.sequence));
  }
  return d;
}

RecordingDigest BankDigest(CommitOptions options) {
  WorldConfig w;
  w.site_count = 3;
  w.seed = 42;
  World world(w);
  world.history().set_enabled(true);
  BankWorkloadConfig bank;
  bank.accounts_per_site = 4;
  bank.clients = 6;
  bank.transfers_per_client = 50;
  bank.rng_seed = 7;
  bank.options = options;
  SetupBank(world, bank);
  BankWorkloadStats stats;
  SpawnBankClients(world, bank, &stats);
  world.RunUntilIdle();
  return DigestOf(world);
}

RecordingDigest CrashRestartDigest() {
  World world(TwoSiteConfig(12));
  SetupVault(world);
  AppClient app(world.site(1));
  for (int i = 0; i < 3; ++i) {
    world.RunSync(WriteAndCommit(app, i + 1));
  }
  CrashAndRecover(world);
  world.RunSync(ReadCommitted(app));
  return DigestOf(world);
}

TEST(HistoryDigest, BankRunsMatchPinnedDigests) {
  struct Run {
    const char* name;
    RecordingDigest (*digest)();
    uint64_t history;
    uint64_t ledger;
  };
  const Run runs[] = {
      {"bank 2pc", [] { return BankDigest(CommitOptions::Optimized()); },
       0x6dbbd8ded0c562a1ULL, 0xb545713523d2cbd2ULL},
      {"bank 2pc-unopt", [] { return BankDigest(CommitOptions::Unoptimized()); },
       0xf32accd6babf5b62ULL, 0x5b4feb25d83fe371ULL},
      {"bank 2pc-int", [] { return BankDigest(CommitOptions::Intermediate()); },
       0x24858b6eb127076cULL, 0x9ee7f639448c6581ULL},
      {"bank nbc", [] { return BankDigest(CommitOptions::NonBlocking()); },
       0x8eb64b0cec1d6855ULL, 0x2c2bfd23c297a968ULL},
      {"bank paxos F=1", [] { return BankDigest(CommitOptions::Paxos(1)); },
       0x5142f09ffac27d7fULL, 0xda75cc8236235790ULL},
      {"crash and restart", CrashRestartDigest,
       0x7cae2c048e151039ULL, 0x83c9a4a3eac4d051ULL},
  };
  for (const Run& run : runs) {
    const RecordingDigest d = run.digest();
    EXPECT_EQ(d.history, run.history)
        << run.name << ": history changed (digest 0x" << std::hex << d.history << ")";
    EXPECT_EQ(d.ledger, run.ledger)
        << run.name << ": ledger events changed (digest 0x" << std::hex << d.ledger << ")";
  }
}

}  // namespace
}  // namespace camelot
