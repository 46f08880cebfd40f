// HistoryRecorder unit and integration tests: the text format round-trips,
// malformed files are rejected with line numbers, and — the part that keeps
// the IsolationOracle honest — the recorder captures exactly the operations
// the serial-replay argument needs: aborted transactions' reads and writes
// are recorded (and then correctly ignored by the oracle), while recovery's
// redo of already-recorded effects after a crash must NOT be recorded again,
// so a history spanning a site restart still replays serializably.
#include "src/harness/history.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

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

TEST(HistoryRecorderTest, RecoveryReplayDoesNotDoubleRecord) {
  World world(TwoSiteConfig(12));
  world.history().set_enabled(true);
  world.AddServer(0, "vault")->CreateObjectForSetup("obj", EncodeInt64(0));

  AppClient app(world.site(1));  // Remote client: commits span both sites.
  for (int i = 0; i < 3; ++i) {
    auto st = world.RunSync([](AppClient& client, int64_t v) -> Async<Status> {
      auto begin = co_await client.Begin();
      if (!begin.ok()) {
        co_return begin.status();
      }
      Status w = co_await client.WriteInt(*begin, "vault", "obj", v);
      if (!w.ok()) {
        co_return w;
      }
      co_return co_await client.Commit(*begin);
    }(app, i + 1));
    ASSERT_TRUE(st.has_value() && st->ok()) << "transfer " << i;
  }

  const size_t writes_before = CountOps(world.history().events(), HistoryOp::kWrite, "obj");
  ASSERT_EQ(writes_before, 3u);

  // Crash the server's site and recover it: recovery's redo of the committed
  // writes replays them into the page cache WITHOUT re-recording them.
  world.Crash(0);
  world.RunFor(Sec(1));
  world.Restart(0);
  world.RunUntilIdle();
  ASSERT_TRUE(world.site(0).site().up());
  EXPECT_EQ(CountOps(world.history().events(), HistoryOp::kWrite, "obj"), writes_before)
      << "recovery redo must not duplicate history events";

  // The history spans the restart and still replays serializably, and a
  // post-restart read extends it consistently.
  auto value = world.RunSync([](AppClient& client) -> Async<int64_t> {
    auto begin = co_await client.Begin();
    auto v = co_await client.ReadInt(*begin, "vault", "obj");
    co_await client.Commit(*begin);
    co_return v.value_or(-1);
  }(app));
  EXPECT_EQ(value.value_or(-1), 3);
  IsolationReport report = IsolationOracle::Check(world.history().events());
  EXPECT_TRUE(report.ok()) << report.Explain();
  EXPECT_GE(report.committed, 3u);
  EXPECT_TRUE(report.CheckFinalValue("vault", "obj", EncodeInt64(3)));
}

}  // namespace
}  // namespace camelot
