// End-to-end transaction manager tests in a live multi-site world: local and
// distributed commits, the 2PC variants, read-only optimization, aborts,
// nesting, and latency sanity against the paper's numbers.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/base/codec.h"
#include "src/base/recent_families.h"
#include "src/harness/world.h"
#include "src/tranman/messages.h"

namespace camelot {
namespace {

WorldConfig QuietConfig(int sites = 2, uint64_t seed = 1) {
  WorldConfig cfg;
  cfg.site_count = sites;
  cfg.seed = seed;
  cfg.net.send_jitter_mean = 0;
  cfg.net.stall_probability = 0;  // Deterministic latencies for exact assertions.
  cfg.net.receive_skew_mean = 0;
  return cfg;
}

// A world with one "server:N" data server per site, each holding "acct" = 100.
struct Rig {
  explicit Rig(WorldConfig cfg = QuietConfig()) : world(cfg), app(world.site(0)) {
    for (int i = 0; i < world.site_count(); ++i) {
      DataServer* server = world.AddServer(i, ServerName(i));
      server->CreateObjectForSetup("acct", EncodeInt64(100));
    }
  }
  static std::string ServerName(int i) { return "server:" + std::to_string(i); }
  DataServer* server(int i) { return world.site(i).server(ServerName(i)); }

  World world;
  AppClient app;
};

// The paper's minimal transaction: one small operation per involved site.
Async<Status> MinimalTxn(AppClient& app, int n_sites, bool write,
                         CommitOptions options = CommitOptions::Optimized()) {
  auto begin = co_await app.Begin();
  if (!begin.ok()) {
    co_return begin.status();
  }
  const Tid tid = *begin;
  for (int i = 0; i < n_sites; ++i) {
    const std::string server = Rig::ServerName(i);
    if (write) {
      auto v = co_await app.ReadInt(tid, server, "acct");
      if (!v.ok()) {
        co_return v.status();
      }
      Status w = co_await app.WriteInt(tid, server, "acct", *v + 1);
      if (!w.ok()) {
        co_return w;
      }
    } else {
      auto v = co_await app.ReadInt(tid, server, "acct");
      if (!v.ok()) {
        co_return v.status();
      }
    }
  }
  Status st = co_await app.Commit(tid, options);
  co_return st;
}

TEST(TranManTest, LocalUpdateCommitsAndPersists) {
  Rig rig;
  auto status = rig.world.RunSync(MinimalTxn(rig.app, 1, /*write=*/true));
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok()) << status->ToString();
  // Flush everything and check the durable image.
  rig.world.RunSync([](DiskManager& d) -> Async<bool> {
    co_await d.FlushAll();
    co_return true;
  }(rig.world.site(0).diskmgr()));
  auto value = rig.server(0)->PeekDurable("acct");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(DecodeInt64(*value), 101);
  EXPECT_EQ(rig.world.site(0).tranman().counters().committed, 1u);
  // All locks dropped.
  EXPECT_EQ(rig.server(0)->locks().held_lock_count(), 0u);
}

TEST(TranManTest, LocalUpdateLatencyIsNearPaper24_5ms) {
  Rig rig;
  // Warm the buffer pool so the timed run has no disk faults, as in the paper
  // (they report steady-state latencies).
  rig.world.RunSync(MinimalTxn(rig.app, 1, true));
  const SimTime start = rig.world.sched().now();
  auto status = rig.world.RunSync(MinimalTxn(rig.app, 1, true));
  // Measure to when Commit returned, not including post-commit lock drops —
  // approximate by transaction-manager bookkeeping below being small.
  const double ms = ToMs(rig.world.sched().now() - start);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok());
  // Paper: 24.5 static, 31 measured. Ours should land in that neighbourhood
  // (the RunUntilIdle drain includes the off-path lock drops, a couple ms).
  EXPECT_GT(ms, 20.0);
  EXPECT_LT(ms, 40.0);
}

TEST(TranManTest, LocalReadCommitsWithNoLogWrites) {
  Rig rig;
  const uint64_t appends_before = rig.world.site(0).log().counters().appends;
  auto status = rig.world.RunSync(MinimalTxn(rig.app, 1, /*write=*/false));
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok());
  EXPECT_EQ(rig.world.site(0).log().counters().appends, appends_before);
  EXPECT_EQ(rig.world.site(0).log().counters().disk_writes, 0u);
}

TEST(TranManTest, DistributedUpdateCommitsOnAllSites) {
  Rig rig(QuietConfig(3));
  auto status = rig.world.RunSync(MinimalTxn(rig.app, 3, true));
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok()) << status->ToString();
  for (int i = 0; i < 3; ++i) {
    rig.world.RunSync([](DiskManager& d) -> Async<bool> {
      co_await d.FlushAll();
      co_return true;
    }(rig.world.site(i).diskmgr()));
    auto value = rig.server(i)->PeekDurable("acct");
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(DecodeInt64(*value), 101) << "site " << i;
    EXPECT_EQ(rig.server(i)->locks().held_lock_count(), 0u) << "site " << i;
  }
  // Coordinator committed + both subordinates committed.
  EXPECT_EQ(rig.world.site(1).tranman().counters().committed, 1u);
  EXPECT_EQ(rig.world.site(2).tranman().counters().committed, 1u);
  // Presumed-abort epilogue ran: nobody retains live state.
  EXPECT_EQ(rig.world.site(0).tranman().live_family_count(), 0u);
}

TEST(TranManTest, OptimizedVariantDropsSubordinateLocksEarlier) {
  // The Section 3.2 claim: the optimized subordinate drops its locks BEFORE
  // writing a commit record, so locks are released one log force (15 ms)
  // earlier than in the unoptimized protocol.
  auto lock_release_time = [](CommitOptions options) {
    Rig rig(QuietConfig(2));
    rig.world.sched().Spawn([](AppClient& app, CommitOptions opts) -> Async<void> {
      co_await MinimalTxn(app, 2, true, opts);
    }(rig.app, options));
    // Poll the subordinate's lock table every 0.2 ms until it empties.
    SimTime released_at = 0;
    bool saw_locks = false;
    DataServer* sub = rig.server(1);
    Scheduler& sched = rig.world.sched();
    std::function<void()> poll = [&] {
      const size_t held = sub->locks().held_lock_count();
      if (held > 0) {
        saw_locks = true;
      }
      if (saw_locks && held == 0 && released_at == 0) {
        released_at = sched.now();
        return;
      }
      sched.Post(Usec(200), poll);
    };
    sched.Post(Usec(200), poll);
    rig.world.RunUntilIdle();
    EXPECT_TRUE(saw_locks);
    EXPECT_GT(released_at, 0);
    return released_at;
  };
  const SimTime optimized = lock_release_time(CommitOptions::Optimized());
  const SimTime unoptimized = lock_release_time(CommitOptions::Unoptimized());
  // One 15 ms log force earlier (the critical-path difference).
  EXPECT_GE(unoptimized - optimized, Usec(14000));
  EXPECT_LE(unoptimized - optimized, Usec(18000));
}

TEST(TranManTest, OptimizedVariantSavesSubordinateForcesUnderMixedLoad) {
  // The paper's throughput claim (Section 3.2): "throughput at the subordinate
  // is improved because fewer log forces are required. The amount of
  // improvement is dependent upon the fraction of transactions that require
  // distributed commitment." The lazy commit record rides a LATER force that
  // was happening anyway — here, the subordinate's own local transactions.
  auto sub_disk_writes = [](CommitOptions options) {
    WorldConfig cfg = QuietConfig(2);
    cfg.log.group_commit = false;  // Make every dedicated force visible.
    Rig rig(cfg);
    rig.server(1)->CreateObjectForSetup("local", EncodeInt64(0));
    // Background: the subordinate site runs a FIXED number of local update
    // transactions (fixed so both variants do identical background work and
    // the write counts are directly comparable).
    AppClient local_app(rig.world.site(1));
    rig.world.sched().Spawn([](AppClient& app, Scheduler& sched) -> Async<void> {
      for (int i = 0; i < 40; ++i) {
        auto begin = co_await app.Begin();
        co_await app.WriteInt(*begin, Rig::ServerName(1), "local", i);
        co_await app.Commit(*begin);
        co_await sched.Delay(Usec(5000));
      }
    }(local_app, rig.world.sched()));
    // Foreground: distributed transactions from site 0, serialized.
    auto result = rig.world.RunSync([](AppClient& app, CommitOptions opts) -> Async<int> {
      int ok = 0;
      for (int i = 0; i < 5; ++i) {
        Status st = co_await MinimalTxn(app, 2, true, opts);
        if (st.ok()) {
          ++ok;
        }
      }
      co_return ok;
    }(rig.app, options));
    EXPECT_EQ(result.value_or(0), 5);
    return rig.world.site(1).log().counters().disk_writes;
  };
  const uint64_t optimized = sub_disk_writes(CommitOptions::Optimized());
  const uint64_t unoptimized = sub_disk_writes(CommitOptions::Unoptimized());
  // Unoptimized pays a dedicated commit-record force per distributed txn; the
  // optimized lazy record is covered by the background traffic's forces.
  EXPECT_LE(optimized + 4, unoptimized);
}

TEST(TranManTest, ReadOnlySubordinateWritesNoLogRecords) {
  Rig rig(QuietConfig(2));
  // Write locally, read remotely: the subordinate is read-only.
  auto status = rig.world.RunSync([](AppClient& app) -> Async<Status> {
    auto begin = co_await app.Begin();
    const Tid tid = *begin;
    co_await app.WriteInt(tid, Rig::ServerName(0), "acct", 55);
    auto remote = co_await app.ReadInt(tid, Rig::ServerName(1), "acct");
    EXPECT_TRUE(remote.ok());
    Status st = co_await app.Commit(tid);
    co_return st;
  }(rig.app));
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok()) << status->ToString();
  EXPECT_EQ(rig.world.site(1).log().counters().appends, 0u);
  EXPECT_EQ(rig.world.site(1).tranman().counters().read_only_votes, 1u);
  EXPECT_EQ(rig.server(1)->locks().held_lock_count(), 0u);
}

// A 2PC subordinate remembers the families it voted read-only on so that a
// retransmitted PREPARE gets the same vote, but only the newest
// RecentFamilies::kCapacity of them: after 5,000 read-only votes it holds
// 4,096, re-votes read-only for a recent family, and votes abort for one it
// has forgotten.
TEST(TranManTest, ReadOnlyVoteMemoryIsBoundedAndRecentVotesRepeat) {
  constexpr int kTxns = 5000;
  Rig rig(QuietConfig(2));
  std::vector<Tid> tids;
  auto status = rig.world.RunSync([](AppClient& app, std::vector<Tid>* out) -> Async<Status> {
    for (int i = 0; i < kTxns; ++i) {
      auto begin = co_await app.Begin();
      if (!begin.ok()) {
        co_return begin.status();
      }
      Status written = co_await app.WriteInt(*begin, Rig::ServerName(0), "acct", i);
      if (!written.ok()) {
        co_return written;
      }
      auto remote = co_await app.ReadInt(*begin, Rig::ServerName(1), "acct");
      if (!remote.ok()) {
        co_return remote.status();
      }
      Status committed = co_await app.Commit(*begin);
      if (!committed.ok()) {
        co_return committed;
      }
      out->push_back(*begin);
    }
    co_return OkStatus();
  }(rig.app, &tids));
  ASSERT_TRUE(status.has_value());
  ASSERT_TRUE(status->ok()) << status->ToString();
  TranMan& sub = rig.world.site(1).tranman();
  EXPECT_EQ(sub.counters().read_only_votes, static_cast<uint64_t>(kTxns));
  EXPECT_EQ(sub.readonly_voted_count(), RecentFamilies::kCapacity);

  // Stand in for the coordinator: take over site 0's datagrams and send site
  // 1 a PREPARE again for the newest family and for the oldest.
  std::vector<TmMsg> votes;
  rig.world.net().Bind(SiteId{0}, kTranManService, [&votes](Datagram dg) {
    ByteReader r(dg.body);
    const uint16_t count = r.U16();
    for (uint16_t i = 0; i < count && r.ok(); ++i) {
      auto msg = TmMsg::Decode(r.Blob());
      if (msg.ok() && msg->type == TmMsgType::kVote) {
        votes.push_back(*msg);
      }
    }
  });
  for (const Tid& tid : {tids.back(), tids.front()}) {
    TmMsg prepare;
    prepare.type = TmMsgType::kPrepare;
    prepare.tid = tid;
    prepare.from = SiteId{0};
    prepare.sites = {SiteId{0}, SiteId{1}};
    ByteWriter w;
    w.U16(1);
    w.Blob(prepare.Encode());
    rig.world.net().Send(Datagram{SiteId{0}, SiteId{1}, kTranManService,
                                  static_cast<uint32_t>(TmMsgType::kPrepare), w.Take()});
    rig.world.RunUntilIdle();
  }
  ASSERT_EQ(votes.size(), 2u);
  EXPECT_EQ(votes[0].tid, tids.back());
  EXPECT_EQ(votes[0].vote, TmVote::kReadOnly);
  EXPECT_EQ(votes[1].tid, tids.front());
  EXPECT_EQ(votes[1].vote, TmVote::kAbort);
  EXPECT_EQ(sub.readonly_voted_count(), RecentFamilies::kCapacity);
}

TEST(TranManTest, EntirelyReadOnlyDistributedTxnNeedsNoLogAnywhere) {
  Rig rig(QuietConfig(3));
  auto status = rig.world.RunSync(MinimalTxn(rig.app, 3, /*write=*/false));
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.world.site(i).log().counters().appends, 0u) << "site " << i;
  }
}

TEST(TranManTest, UserAbortUndoesAllSites) {
  Rig rig(QuietConfig(2));
  auto status = rig.world.RunSync([](AppClient& app) -> Async<Status> {
    auto begin = co_await app.Begin();
    const Tid tid = *begin;
    co_await app.WriteInt(tid, Rig::ServerName(0), "acct", 1);
    co_await app.WriteInt(tid, Rig::ServerName(1), "acct", 2);
    Status st = co_await app.Abort(tid);
    co_return st;
  }(rig.app));
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok());
  for (int i = 0; i < 2; ++i) {
    // Read back transactionally: values restored to 100.
    auto read_back = rig.world.RunSync([](AppClient& app, int site) -> Async<int64_t> {
      auto begin = co_await app.Begin();
      auto v = co_await app.ReadInt(*begin, Rig::ServerName(site), "acct");
      co_await app.Commit(*begin);
      co_return v.value_or(-1);
    }(rig.app, i));
    ASSERT_TRUE(read_back.has_value());
    EXPECT_EQ(*read_back, 100) << "site " << i;
    EXPECT_EQ(rig.server(i)->locks().held_lock_count(), 0u);
  }
}

TEST(TranManTest, VoteNoAbortsTheWholeTransaction) {
  Rig rig(QuietConfig(2));
  rig.server(1)->InjectVoteNo(1);
  auto status = rig.world.RunSync(MinimalTxn(rig.app, 2, true));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code(), StatusCode::kAborted);
  // Both sites rolled back.
  auto read_back = rig.world.RunSync([](AppClient& app) -> Async<int64_t> {
    auto begin = co_await app.Begin();
    auto v = co_await app.ReadInt(*begin, Rig::ServerName(0), "acct");
    co_await app.Commit(*begin);
    co_return v.value_or(-1);
  }(rig.app));
  EXPECT_EQ(*read_back, 100);
}

// Admission sheds a PREPARE whose client deadline passed while it queued for
// a worker, so the subordinate's own deadline check sees only a deadline that
// falls inside the PREPARE event's CPU burst. A 500 ms burst makes that
// window wide enough to aim at: the subordinate must refuse with an abort
// vote before forcing a prepare record, undo its update, release its locks
// and forget the family. The 2 s retry interval keeps the coordinator from
// retransmitting PREPARE before the vote is back.
TEST(TranManTest, SubordinateRefusesPrepareWhoseDeadlinePassesDuringItsEvent) {
  WorldConfig cfg = QuietConfig(2);
  cfg.tranman.cpu_per_event = Msec(500);
  cfg.tranman.retry_interval = Sec(2.0);
  Rig rig(cfg);
  rig.world.failpoints().set_recording(true);
  FamilyId family;
  auto status = rig.world.RunSync([](AppClient& app, FamilyId* out) -> Async<Status> {
    auto begin = co_await app.Begin();
    const Tid tid = *begin;
    *out = tid.family;
    co_await app.WriteInt(tid, Rig::ServerName(0), "acct", 70);
    co_await app.WriteInt(tid, Rig::ServerName(1), "acct", 130);
    // The commit call takes one burst at the coordinator before PREPARE goes
    // out, and the subordinate admits PREPARE about 10 ms later, so a
    // deadline 750 ms out passes during the subordinate's own burst.
    app.set_deadline(app.home().site().sched().now() + Msec(750));
    Status st = co_await app.Commit(tid);
    app.set_deadline(0);
    co_return st;
  }(rig.app, &family));
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code(), StatusCode::kAborted) << status->ToString();

  const TranManCounters& sub = rig.world.site(1).tranman().counters();
  EXPECT_EQ(sub.deadline_shed, 1u);
  EXPECT_EQ(sub.prepares_shed, 0u) << "admission shed the PREPARE before the check ran";
  EXPECT_EQ(rig.world.failpoints().hits("tm.sub.prepare_force.before", SiteId{1}), 0u);
  EXPECT_EQ(rig.world.failpoints().hits("tm.send.PREPARE", SiteId{0}), 1u);
  EXPECT_EQ(rig.world.failpoints().hits("tm.send.VOTE", SiteId{1}), 1u);
  EXPECT_EQ(rig.world.site(1).tranman().QueryState(family), TmTxnState::kUnknown);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(rig.server(i)->locks().held_lock_count(), 0u) << "site " << i;
    auto read_back = rig.world.RunSync([](AppClient& app, int site) -> Async<int64_t> {
      auto begin = co_await app.Begin();
      auto v = co_await app.ReadInt(*begin, Rig::ServerName(site), "acct");
      co_await app.Commit(*begin);
      co_return v.value_or(-1);
    }(rig.app, i));
    ASSERT_TRUE(read_back.has_value());
    EXPECT_EQ(*read_back, 100) << "site " << i;
  }
}

TEST(TranManTest, MoneyConservedAcrossTransfer) {
  Rig rig(QuietConfig(2));
  auto status = rig.world.RunSync([](AppClient& app) -> Async<Status> {
    auto begin = co_await app.Begin();
    const Tid tid = *begin;
    auto a = co_await app.ReadInt(tid, Rig::ServerName(0), "acct");
    auto b = co_await app.ReadInt(tid, Rig::ServerName(1), "acct");
    co_await app.WriteInt(tid, Rig::ServerName(0), "acct", *a - 30);
    co_await app.WriteInt(tid, Rig::ServerName(1), "acct", *b + 30);
    Status st = co_await app.Commit(tid);
    co_return st;
  }(rig.app));
  ASSERT_TRUE(status.has_value() && status->ok());
  auto sum = rig.world.RunSync([](AppClient& app) -> Async<int64_t> {
    auto begin = co_await app.Begin();
    auto a = co_await app.ReadInt(*begin, Rig::ServerName(0), "acct");
    auto b = co_await app.ReadInt(*begin, Rig::ServerName(1), "acct");
    co_await app.Commit(*begin);
    co_return *a + *b;
  }(rig.app));
  EXPECT_EQ(*sum, 200);
}

TEST(TranManTest, NonBlockingCommitWorksAndForcesTwicePerSite) {
  Rig rig(QuietConfig(2));
  auto status = rig.world.RunSync(MinimalTxn(rig.app, 2, true, CommitOptions::NonBlocking()));
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok()) << status->ToString();
  // Coordinator: prepare + replication + commit forced? Paper: coordinator
  // forces prepare and commit (its replication record travels with prepare
  // data; ours is separate but batched with the commit in wall-clock).
  // Subordinate: prepare + replication forced; commit record lazy.
  const auto& sub_log = rig.world.site(1).log().counters();
  EXPECT_GE(sub_log.disk_writes, 2u);
  EXPECT_LE(sub_log.disk_writes, 3u);  // +1 lazy commit-record write in idle world.
  // Tombstones retained (change 4), but no live protocol state.
  EXPECT_EQ(rig.world.site(0).tranman().live_family_count(), 0u);
  EXPECT_EQ(rig.world.site(1).tranman().live_family_count(), 0u);
}

TEST(TranManTest, NonBlockingReadOnlyMatchesTwoPhaseShape) {
  Rig rig(QuietConfig(2));
  auto status = rig.world.RunSync(MinimalTxn(rig.app, 2, false, CommitOptions::NonBlocking()));
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok());
  // Read-only: no forced records anywhere.
  EXPECT_EQ(rig.world.site(0).log().counters().disk_writes, 0u);
  EXPECT_EQ(rig.world.site(1).log().counters().disk_writes, 0u);
}

TEST(TranManTest, NestedCommitMergesIntoParent) {
  Rig rig(QuietConfig(1));
  auto result = rig.world.RunSync([](AppClient& app) -> Async<Status> {
    auto top = co_await app.Begin();
    const Tid parent = *top;
    auto nested = co_await app.Begin(parent);
    if (!nested.ok()) {
      co_return nested.status();
    }
    co_await app.WriteInt(*nested, Rig::ServerName(0), "acct", 500);
    Status nc = co_await app.Commit(*nested);  // Nested commit.
    if (!nc.ok()) {
      co_return nc;
    }
    // Parent can see and overwrite the child's work (lock inherited).
    auto v = co_await app.ReadInt(parent, Rig::ServerName(0), "acct");
    EXPECT_EQ(v.value_or(-1), 500);
    Status st = co_await app.Commit(parent);
    co_return st;
  }(rig.app));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << result->ToString();
  auto read_back = rig.world.RunSync([](AppClient& app) -> Async<int64_t> {
    auto begin = co_await app.Begin();
    auto v = co_await app.ReadInt(*begin, Rig::ServerName(0), "acct");
    co_await app.Commit(*begin);
    co_return v.value_or(-1);
  }(rig.app));
  EXPECT_EQ(*read_back, 500);
}

TEST(TranManTest, NestedAbortUndoesOnlyTheSubtree) {
  Rig rig(QuietConfig(2));
  auto result = rig.world.RunSync([](AppClient& app) -> Async<Status> {
    auto top = co_await app.Begin();
    const Tid parent = *top;
    // Parent writes site 0.
    co_await app.WriteInt(parent, Rig::ServerName(0), "acct", 111);
    // Child writes site 1, then aborts.
    auto nested = co_await app.Begin(parent);
    co_await app.WriteInt(*nested, Rig::ServerName(1), "acct", 999);
    Status na = co_await app.Abort(*nested);
    EXPECT_TRUE(na.ok());
    Status st = co_await app.Commit(parent);
    co_return st;
  }(rig.app));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << result->ToString();
  auto values = rig.world.RunSync([](AppClient& app) -> Async<std::pair<int64_t, int64_t>> {
    auto begin = co_await app.Begin();
    auto a = co_await app.ReadInt(*begin, Rig::ServerName(0), "acct");
    auto b = co_await app.ReadInt(*begin, Rig::ServerName(1), "acct");
    co_await app.Commit(*begin);
    co_return std::make_pair(a.value_or(-1), b.value_or(-1));
  }(rig.app));
  EXPECT_EQ(values->first, 111);   // Parent's write survived.
  EXPECT_EQ(values->second, 100);  // Child's write undone.
}

TEST(TranManTest, CommitWithActiveNestedChildIsRejected) {
  Rig rig(QuietConfig(1));
  auto result = rig.world.RunSync([](AppClient& app) -> Async<Status> {
    auto top = co_await app.Begin();
    auto nested = co_await app.Begin(*top);
    (void)nested;
    Status st = co_await app.Commit(*top);
    co_return st;
  }(rig.app));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->code(), StatusCode::kFailedPrecondition);
}

TEST(TranManTest, SerializedConflictingTransactionsBothCommit) {
  Rig rig(QuietConfig(2));
  // Two pipelined transactions updating the same element (the paper's 4.2
  // lock-contention scenario): the second's operation waits for the first's
  // locks to drop, then proceeds.
  int committed = 0;
  SimTime second_write_done = 0;
  for (int round = 0; round < 2; ++round) {
    rig.world.sched().Spawn([](AppClient& app, World& w, int round_id, int* ok,
                               SimTime* wrote_at) -> Async<void> {
      auto begin = co_await app.Begin();
      const Tid tid = *begin;
      Status ws = co_await app.WriteInt(tid, Rig::ServerName(1), "acct", 7 + round_id);
      EXPECT_TRUE(ws.ok()) << ws.ToString();
      if (round_id == 1) {
        *wrote_at = w.sched().now();
      }
      Status st = co_await app.Commit(tid);
      if (st.ok()) {
        ++*ok;
      } else {
        co_await app.Abort(tid);
      }
    }(rig.app, rig.world, round, &committed, &second_write_done));
  }
  rig.world.RunUntilIdle();
  EXPECT_EQ(committed, 2);
  // The second write could only complete after the first transaction's commit
  // released the lock (first commit point is >= ~80ms in).
  EXPECT_GT(second_write_done, Usec(80000));
  auto read_back = rig.world.RunSync([](AppClient& app) -> Async<int64_t> {
    auto begin = co_await app.Begin();
    auto v = co_await app.ReadInt(*begin, Rig::ServerName(1), "acct");
    co_await app.Commit(*begin);
    co_return v.value_or(-1);
  }(rig.app));
  EXPECT_EQ(*read_back, 8);  // The later writer's value won.
}

TEST(TranManTest, UpgradeDeadlockResolvesByTimeoutWithCleanState) {
  Rig rig(QuietConfig(2));
  // Classic upgrade deadlock: both transactions read (S) then write (X) the
  // same object. Lock timeouts break it; both transactions then abort, and no
  // locks or transaction state leak.
  int failures = 0;
  int done = 0;
  for (int round = 0; round < 2; ++round) {
    rig.world.sched().Spawn([](AppClient& app, int* fails, int* fin) -> Async<void> {
      auto begin = co_await app.Begin();
      const Tid tid = *begin;
      auto v = co_await app.ReadInt(tid, Rig::ServerName(1), "acct");
      Status ws = co_await app.WriteInt(tid, Rig::ServerName(1), "acct",
                                        v.value_or(0) + 1);
      if (!ws.ok()) {
        ++*fails;
        co_await app.Abort(tid);
      } else {
        Status st = co_await app.Commit(tid);
        if (!st.ok()) {
          ++*fails;
        }
      }
      ++*fin;
    }(rig.app, &failures, &done));
  }
  rig.world.RunUntilIdle();
  EXPECT_EQ(done, 2);
  EXPECT_GE(failures, 1);  // At least one victim.
  EXPECT_EQ(rig.server(1)->locks().held_lock_count(), 0u);
  EXPECT_EQ(rig.server(1)->locks().waiter_count(), 0u);
  // Data still consistent: 100 (both aborted) or 101 (one survived).
  auto read_back = rig.world.RunSync([](AppClient& app) -> Async<int64_t> {
    auto begin = co_await app.Begin();
    auto v = co_await app.ReadInt(*begin, Rig::ServerName(1), "acct");
    co_await app.Commit(*begin);
    co_return v.value_or(-1);
  }(rig.app));
  EXPECT_TRUE(*read_back == 100 || *read_back == 101) << *read_back;
}

}  // namespace
}  // namespace camelot
