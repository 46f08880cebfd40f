// Protocol edge cases: simultaneous takeover coordinators, quorum widening to
// passive (read-only) acceptors, abort diffusion under incomplete knowledge,
// group-commit batch windows, and wire-format fuzzing.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "src/harness/world.h"

namespace camelot {
namespace {

WorldConfig Quiet(int sites, uint64_t seed = 1) {
  WorldConfig cfg;
  cfg.site_count = sites;
  cfg.seed = seed;
  cfg.net.send_jitter_mean = 0;
  cfg.net.stall_probability = 0;
  cfg.net.receive_skew_mean = 0;
  cfg.tranman.outcome_timeout = Usec(400000);
  cfg.tranman.retry_interval = Usec(300000);
  cfg.tranman.takeover_backoff = Usec(300000);
  return cfg;
}

std::string Srv(int i) { return "server:" + std::to_string(i); }

struct Rig {
  explicit Rig(WorldConfig cfg) : world(cfg), app(world.site(0)) {
    for (int i = 0; i < world.site_count(); ++i) {
      world.AddServer(i, Srv(i))->CreateObjectForSetup("x", EncodeInt64(0));
    }
  }
  int64_t Read(int site, int from) {
    AppClient client(world.site(from));
    auto v = world.RunSync([](AppClient& a, std::string s) -> Async<int64_t> {
      auto b = co_await a.Begin();
      auto value = co_await a.ReadInt(*b, s, "x");
      co_await a.Commit(*b);
      co_return value.value_or(-1);
    }(client, Srv(site)));
    return v.value_or(-1);
  }
  World world;
  AppClient app;
};

size_t DurableCount(World& world, int site, LogRecordKind kind) {
  size_t n = 0;
  for (const auto& rec : world.site(site).log().ReadDurable()) {
    if (rec.kind == kind) {
      ++n;
    }
  }
  return n;
}

TEST(ProtocolEdgeTest, SimultaneousTakeoverCoordinatorsConverge) {
  // With identical deterministic timeouts, BOTH subordinates become
  // coordinators in the same instant after the real coordinator dies. The
  // epoch scheme ((round << 8) | site) keeps their proposals ordered; exactly
  // one outcome results ("Having several simultaneous coordinators is
  // possible, but is not a problem").
  Rig rig(Quiet(3));
  // Re-posts copies of itself; it refers to itself by reference, not by an
  // owning pointer, so no copy keeps another alive once the world drains.
  std::function<void()> watcher;
  watcher = [&rig, &watcher] {
    if (DurableCount(rig.world, 1, LogRecordKind::kReplication) > 0 &&
        DurableCount(rig.world, 2, LogRecordKind::kReplication) > 0) {
      rig.world.net().SetPartition({{SiteId{0}}, {SiteId{1}, SiteId{2}}});
      rig.world.Crash(0);
      return;
    }
    rig.world.sched().Post(Usec(200), watcher);
  };
  rig.world.sched().Post(Usec(200), watcher);
  rig.world.sched().Spawn([](Rig& r) -> Async<void> {
    auto b = co_await r.app.Begin();
    for (int i = 0; i < 3; ++i) {
      co_await r.app.WriteInt(*b, Srv(i), "x", 42);
    }
    co_await r.app.Commit(*b, CommitOptions::NonBlocking());
  }(rig));
  rig.world.RunUntilIdle();

  // Both subordinates took over (same timeout instant) and both committed.
  EXPECT_GE(rig.world.site(1).tranman().counters().takeovers, 1u);
  EXPECT_GE(rig.world.site(2).tranman().counters().takeovers, 1u);
  EXPECT_EQ(rig.Read(1, 1), 42);
  EXPECT_EQ(rig.Read(2, 2), 42);
  const FamilyId family{SiteId{0}, 1};
  EXPECT_EQ(rig.world.site(1).tranman().QueryState(family), TmTxnState::kCommitted);
  EXPECT_EQ(rig.world.site(2).tranman().QueryState(family), TmTxnState::kCommitted);
}

TEST(ProtocolEdgeTest, ReadOnlyPassiveAcceptorsFillTheCommitQuorum) {
  // 4 participants (coordinator + 3 subs), only ONE update subordinate:
  // commit quorum = 3 but update acceptors = coordinator + 1 sub = 2. The
  // replication phase must widen to the read-only passive acceptors ("often
  // need not participate in the replication phase" — here they must).
  Rig rig(Quiet(4));
  auto status = rig.world.RunSync([](Rig& r) -> Async<Status> {
    auto b = co_await r.app.Begin();
    co_await r.app.WriteInt(*b, Srv(0), "x", 9);  // Coordinator updates.
    co_await r.app.WriteInt(*b, Srv(1), "x", 9);  // One update subordinate.
    (void)co_await r.app.ReadInt(*b, Srv(2), "x");  // Two read-only subs.
    (void)co_await r.app.ReadInt(*b, Srv(3), "x");
    Status st = co_await r.app.Commit(*b, CommitOptions::NonBlocking());
    co_return st;
  }(rig));
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok()) << status->ToString();
  // At least one read-only site holds a replication record: it was drafted
  // into the quorum as a passive acceptor.
  const size_t readonly_replications = DurableCount(rig.world, 2, LogRecordKind::kReplication) +
                                       DurableCount(rig.world, 3, LogRecordKind::kReplication);
  EXPECT_GE(readonly_replications, 1u);
  // But they never wrote prepare or update records (read-only optimization).
  EXPECT_EQ(DurableCount(rig.world, 2, LogRecordKind::kPrepare), 0u);
  EXPECT_EQ(DurableCount(rig.world, 2, LogRecordKind::kUpdate), 0u);
  EXPECT_EQ(rig.Read(1, 0), 9);
  // The notify phase reached the passive acceptors: outcome tombstones, no
  // lingering live state anywhere.
  const FamilyId family{SiteId{0}, 1};
  EXPECT_EQ(rig.world.site(2).tranman().QueryState(family), TmTxnState::kCommitted);
  EXPECT_EQ(rig.world.site(3).tranman().QueryState(family), TmTxnState::kCommitted);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.world.site(i).tranman().live_family_count(), 0u) << "site " << i;
  }
}

TEST(ProtocolEdgeTest, AbortDiffusionReachesSitesTheAborterDoesNotKnow) {
  // The abort protocol "can operate with incomplete knowledge about which
  // sites are involved": the coordinator only knows site 1; site 1 knows the
  // family also touched site 2 and must forward the abort there.
  Rig rig(Quiet(3));
  auto outcome = rig.world.RunSync([](Rig& r) -> Async<Status> {
    auto b = co_await r.app.Begin();
    co_await r.app.WriteInt(*b, Srv(1), "x", 77);
    co_await r.app.WriteInt(*b, Srv(2), "x", 77);
    // Simulate partial knowledge: the coordinator's ComMan forgets site 2
    // (e.g. the response carrying it was never merged); site 1 knows it.
    r.world.site(0).comman().Forget(b->family);
    r.world.site(0).comman().NoteSite(b->family, SiteId{1});
    r.world.site(1).comman().NoteSite(b->family, SiteId{2});
    Status st = co_await r.app.Abort(*b);
    co_return st;
  }(rig));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->ok());
  rig.world.RunUntilIdle();
  // Site 2 learned of the abort only through site 1's diffusion.
  EXPECT_EQ(rig.Read(2, 0), 0);
  EXPECT_EQ(rig.world.site(2).server(Srv(2))->locks().held_lock_count(), 0u);
  EXPECT_EQ(rig.world.site(2).tranman().live_family_count(), 0u);
}

TEST(ProtocolEdgeTest, BatchWindowCoalescesNearbyForces) {
  Scheduler sched;
  LogConfig cfg;
  cfg.group_commit = true;
  cfg.batch_window = Usec(5000);  // Helland-style group commit timer.
  StableLog log(sched, cfg);
  const Tid tid{FamilyId{SiteId{0}, 1}, 0, 0};
  int done = 0;
  auto force_at = [&](SimDuration at) {
    sched.Post(at, [&] {
      sched.Spawn([](StableLog& l, int* d) -> Async<void> {
        const Lsn lsn = l.Append(LogRecord::Abort(Tid{FamilyId{SiteId{0}, 1}, 0, 0}));
        co_await l.Force(lsn);
        ++*d;
      }(log, &done));
    });
  };
  (void)tid;
  force_at(0);
  force_at(Usec(2000));  // Arrives inside the 5 ms window: same write.
  force_at(Usec(4000));
  sched.RunUntilIdle();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(log.counters().disk_writes, 1u);
  EXPECT_EQ(log.counters().records_batched, 2u);
}

TEST(ProtocolEdgeTest, CommitAcksPiggybackOnLaterTraffic) {
  // "Camelot batches only those messages that are not in the critical path":
  // in a pipelined stream of distributed updates, each commit-ack should ride
  // the next transaction's protocol traffic instead of its own datagram.
  auto run = [](SimDuration piggyback_delay) {
    WorldConfig cfg = Quiet(2);
    cfg.tranman.piggyback_delay = piggyback_delay;
    Rig rig(cfg);
    auto ok = rig.world.RunSync([](Rig* r) -> Async<int> {
      int committed = 0;
      for (int i = 0; i < 10; ++i) {
        auto b = co_await r->app.Begin();
        co_await r->app.WriteInt(*b, Srv(0), "x", i);
        co_await r->app.WriteInt(*b, Srv(1), "x", i);
        Status st = co_await r->app.Commit(*b);
        if (st.ok()) {
          ++committed;
        }
      }
      co_return committed;
    }(&rig));
    EXPECT_EQ(ok.value_or(0), 10);
    return std::make_pair(rig.world.net().counters().datagrams_sent,
                          rig.world.site(1).tranman().counters().messages_piggybacked);
  };
  // The window must outlast the ~100 ms inter-transaction gap so the ack can
  // catch the NEXT transaction's vote.
  auto [with_piggyback, piggybacked] = run(Usec(300000));
  auto [without_piggyback, none] = run(0);
  EXPECT_EQ(none, 0u);
  EXPECT_GT(piggybacked, 0u);  // Acks actually rode other datagrams.
  EXPECT_LT(with_piggyback, without_piggyback);  // Fewer datagrams total.
}

TEST(ProtocolEdgeTest, WireFormatsSurviveRandomBytes) {
  Rng rng(2026);
  int tm_decoded = 0;
  int log_decoded = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes junk(rng.NextBounded(120));
    for (auto& b : junk) {
      b = static_cast<uint8_t>(rng.Next());
    }
    if (TmMsg::Decode(junk).ok()) {
      ++tm_decoded;
    }
    if (LogRecord::Decode(junk).ok()) {
      ++log_decoded;
    }
  }
  // No crash is the property; accidental decodes must be extremely rare.
  EXPECT_LE(tm_decoded, 2);
  EXPECT_LE(log_decoded, 2);
}

TEST(ProtocolEdgeTest, BitFlippedMessagesNeverMisparseSilently) {
  // A single bit flip either still decodes to the same field layout (benign)
  // or is rejected; it must never crash. (Checksums guard the LOG; datagrams
  // rely on structural validation.)
  TmMsg msg;
  msg.type = TmMsgType::kPrepare;
  msg.tid = Tid{FamilyId{SiteId{2}, 9}, 1, 0};
  msg.sites = {SiteId{0}, SiteId{1}, SiteId{2}};
  msg.commit_quorum = 2;
  msg.abort_quorum = 2;
  const Bytes wire = msg.Encode();
  for (size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; bit += 3) {
      Bytes mutated = wire;
      mutated[byte] ^= static_cast<uint8_t>(1u << bit);
      auto decoded = TmMsg::Decode(mutated);  // Must not crash.
      (void)decoded;
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace camelot
