// Failure-injection integration tests: crashes at chosen protocol points,
// recovery, 2PC blocking, non-blocking takeover, partitions, and randomized
// atomicity sweeps (money conservation under arbitrary crash timing).
//
// Crash timing is expressed with named failpoints (src/base/failpoint.h):
// arming "tm.2pc.commit_force.before"@0 crashes the coordinator exactly at
// that protocol point, replacing the old poll-the-durable-log watchers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/harness/world.h"

namespace camelot {
namespace {

WorldConfig FailConfig(int sites, uint64_t seed = 1) {
  WorldConfig cfg;
  cfg.site_count = sites;
  cfg.seed = seed;
  cfg.net.send_jitter_mean = 0;
  cfg.net.stall_probability = 0;
  cfg.net.receive_skew_mean = 0;
  // Tighter protocol timers so failure scenarios resolve quickly.
  cfg.tranman.outcome_timeout = Usec(400000);
  cfg.tranman.retry_interval = Usec(300000);
  cfg.tranman.takeover_backoff = Usec(300000);
  cfg.tranman.orphan_check_interval = Sec(1.0);
  cfg.ipc.rpc_timeout = Sec(1.5);
  return cfg;
}

struct Rig {
  explicit Rig(WorldConfig cfg) : world(cfg), app(world.site(0)) {
    for (int i = 0; i < world.site_count(); ++i) {
      DataServer* server = world.AddServer(i, ServerName(i));
      server->CreateObjectForSetup("acct", EncodeInt64(100));
    }
  }
  static std::string ServerName(int i) { return "server:" + std::to_string(i); }
  DataServer* server(int i) { return world.site(i).server(ServerName(i)); }

  // Reads `acct` on `site_index` in a fresh transaction issued from a healthy
  // home site (`from`).
  int64_t ReadAcct(int site_index, int from = -1) {
    if (from < 0) {
      from = site_index;
    }
    AppClient client(world.site(from));
    auto v = world.RunSync([](AppClient& a, std::string srv) -> Async<int64_t> {
      auto begin = co_await a.Begin();
      if (!begin.ok()) {
        co_return -1;
      }
      auto value = co_await a.ReadInt(*begin, srv, "acct");
      co_await a.Commit(*begin);
      co_return value.value_or(-1);
    }(client, ServerName(site_index)));
    return v.value_or(-1);
  }

  // Arms a one-shot crash of `victim` at the first hit of `point`.
  void CrashAt(const char* point, int victim) {
    world.failpoints().Arm(point, SiteId{static_cast<uint32_t>(victim)},
                           FailpointArm::Crash(1));
  }

  World world;
  AppClient app;
};

Async<Status> TransferTxn(AppClient& app, const std::string& from_srv,
                          const std::string& to_srv, int64_t amount, CommitOptions options) {
  auto begin = co_await app.Begin();
  if (!begin.ok()) {
    co_return begin.status();
  }
  const Tid tid = *begin;
  auto a = co_await app.ReadInt(tid, from_srv, "acct");
  auto b = co_await app.ReadInt(tid, to_srv, "acct");
  if (!a.ok() || !b.ok()) {
    co_await app.Abort(tid);
    co_return AbortedError("read failed");
  }
  Status w1 = co_await app.WriteInt(tid, from_srv, "acct", *a - amount);
  Status w2 = co_await app.WriteInt(tid, to_srv, "acct", *b + amount);
  if (!w1.ok() || !w2.ok()) {
    co_await app.Abort(tid);
    co_return AbortedError("write failed");
  }
  Status st = co_await app.Commit(tid, options);
  co_return st;
}

// Writes `acct` at every site in one transaction and commits it.
Async<void> WriteEverySite(Rig& r, CommitOptions options) {
  auto begin = co_await r.app.Begin();
  const Tid tid = *begin;
  for (int i = 0; i < r.world.site_count(); ++i) {
    co_await r.app.WriteInt(tid, Rig::ServerName(i), "acct", 55);
  }
  co_await r.app.Commit(tid, options);
}

// At the first hit of "<point>.before" on `site`, notes the site's idle
// workers and appends to `held` whether one fewer is idle once the force is
// in flight (a zero-delay event runs after the force has suspended).
void ProbeWorkerHold(Rig& rig, const std::string& point, int site, std::vector<bool>* held) {
  rig.world.failpoints().Arm(
      point + ".before", SiteId{static_cast<uint32_t>(site)},
      FailpointArm::Callback(1, [&rig, site, held] {
        WorkerPool& pool = rig.world.site(site).tranman().pool();
        const size_t idle = pool.available();
        rig.world.sched().Post(0, [&pool, idle, held] {
          held->push_back(pool.available() < idle);
        });
      }));
}

TEST(FailureTest, CrashBeforeCommitPresumesAbortEverywhere) {
  Rig rig(FailConfig(2));
  // Transaction writes both sites, then the coordinator dies before commit.
  rig.world.sched().Spawn([](Rig& r) -> Async<void> {
    auto begin = co_await r.app.Begin();
    const Tid tid = *begin;
    co_await r.app.WriteInt(tid, Rig::ServerName(0), "acct", 7);
    co_await r.app.WriteInt(tid, Rig::ServerName(1), "acct", 7);
    r.world.Crash(0);  // Dies with the transaction active.
  }(rig));
  rig.world.RunUntilIdle();
  // The subordinate's orphan watcher must eventually abort and release locks.
  EXPECT_EQ(rig.server(1)->locks().held_lock_count(), 0u);
  EXPECT_EQ(rig.world.site(1).tranman().counters().orphans_aborted, 1u);
  EXPECT_EQ(rig.ReadAcct(1), 100);

  rig.world.Restart(0);
  rig.world.RunUntilIdle();
  EXPECT_EQ(rig.ReadAcct(0), 100);  // Undone by restart recovery.
}

TEST(FailureTest, TwoPhaseSubordinateBlocksUntilCoordinatorReturns_Abort) {
  Rig rig(FailConfig(2));
  // Crash the coordinator at the brink of its commit force — squarely inside
  // the window of vulnerability: the subordinate's prepare record is durable
  // (its vote is in) but the coordinator's commit record does not exist.
  rig.CrashAt("tm.2pc.commit_force.before", 0);
  std::optional<Status> commit_status;
  rig.world.sched().Spawn([](Rig& r, std::optional<Status>* out) -> Async<void> {
    Status st = co_await TransferTxn(r.app, Rig::ServerName(0), Rig::ServerName(1), 10,
                                     CommitOptions::Optimized());
    *out = st;
  }(rig, &commit_status));

  // Give the subordinate time to notice and block (but the world cannot go
  // idle yet: it is retrying status queries).
  rig.world.RunFor(Sec(3));
  const FamilyId family{SiteId{0}, 1};
  EXPECT_TRUE(rig.world.site(1).tranman().IsBlocked(family));
  EXPECT_GT(rig.server(1)->locks().held_lock_count(), 0u);
  EXPECT_GT(rig.world.site(1).tranman().counters().blocked_periods, 0u);

  // The coordinator returns with no commit record: presumed abort resolves it.
  rig.world.Restart(0);
  rig.world.RunUntilIdle();
  EXPECT_FALSE(rig.world.site(1).tranman().IsBlocked(family));
  EXPECT_EQ(rig.server(1)->locks().held_lock_count(), 0u);
  EXPECT_EQ(rig.ReadAcct(0), 100);
  EXPECT_EQ(rig.ReadAcct(1), 100);
}

TEST(FailureTest, TwoPhaseCoordinatorCrashAfterCommitPointStillCommits) {
  Rig rig(FailConfig(2));
  // Crash the coordinator as soon as its commit record is durable (before the
  // COMMIT notification can be sent to the subordinate).
  rig.CrashAt("tm.2pc.commit_force.after", 0);
  rig.world.sched().Spawn([](Rig& r) -> Async<void> {
    co_await TransferTxn(r.app, Rig::ServerName(0), Rig::ServerName(1), 10,
                         CommitOptions::Optimized());
  }(rig));
  // Whether or not the commit datagram was already on the wire at crash time,
  // the forced commit record means the decision is COMMIT, period.
  rig.world.RunFor(Sec(3));
  rig.world.Restart(0);
  rig.world.RunUntilIdle();
  // Recovery resumed phase 2: the decision was COMMIT and must prevail.
  EXPECT_EQ(rig.ReadAcct(1), 110);
  EXPECT_EQ(rig.ReadAcct(0), 90);
  EXPECT_EQ(rig.server(1)->locks().held_lock_count(), 0u);
  // Coordinator's log gained an End record after the resumed phase 2 finished.
  EXPECT_EQ(rig.world.site(0).tranman().live_family_count(), 0u);
}

TEST(FailureTest, NonBlockingTakeoverCommitsAfterCoordinatorCrash) {
  Rig rig(FailConfig(3));
  // Crash the coordinator at the brink of its commit force: the replicate
  // phase reached its quorum (commit intent is durable at subordinates) but
  // no subordinate has learned the outcome.
  rig.CrashAt("tm.nbc.commit_force.before", 0);
  std::optional<Status> status;
  rig.world.sched().Spawn([](Rig& r, std::optional<Status>* out) -> Async<void> {
    auto begin = co_await r.app.Begin();
    const Tid tid = *begin;
    for (int i = 0; i < 3; ++i) {
      co_await r.app.WriteInt(tid, Rig::ServerName(i), "acct", 55);
    }
    *out = co_await r.app.Commit(tid, CommitOptions::NonBlocking());
  }(rig, &status));
  rig.world.RunUntilIdle();

  // The subordinates elected themselves coordinators and finished with COMMIT
  // (commit-intent replications existed at a quorum).
  EXPECT_GT(rig.world.site(1).tranman().counters().takeovers +
                rig.world.site(2).tranman().counters().takeovers,
            0u);
  EXPECT_EQ(rig.ReadAcct(1), 55);
  EXPECT_EQ(rig.ReadAcct(2), 55);
  EXPECT_EQ(rig.server(1)->locks().held_lock_count(), 0u);
  EXPECT_EQ(rig.server(2)->locks().held_lock_count(), 0u);

  // The crashed coordinator recovers and adopts the same outcome.
  rig.world.Restart(0);
  rig.world.RunUntilIdle();
  EXPECT_EQ(rig.ReadAcct(0), 55);
}

TEST(FailureTest, NonBlockingTakeoverAbortsWhenNoReplicationExists) {
  Rig rig(FailConfig(3));
  // Crash the coordinator right after the subordinates prepare, before its
  // replicate phase starts: no commit intent exists anywhere, so takeover
  // must ABORT.
  rig.CrashAt("tm.nbc.replicate_force.before", 0);
  rig.world.sched().Spawn([](Rig& r) -> Async<void> {
    auto begin = co_await r.app.Begin();
    const Tid tid = *begin;
    for (int i = 0; i < 3; ++i) {
      co_await r.app.WriteInt(tid, Rig::ServerName(i), "acct", 55);
    }
    co_await r.app.Commit(tid, CommitOptions::NonBlocking());
  }(rig));
  rig.world.RunUntilIdle();

  EXPECT_EQ(rig.ReadAcct(1), 100);
  EXPECT_EQ(rig.ReadAcct(2), 100);
  EXPECT_EQ(rig.server(1)->locks().held_lock_count(), 0u);
  EXPECT_EQ(rig.server(2)->locks().held_lock_count(), 0u);

  rig.world.Restart(0);
  rig.world.RunUntilIdle();
  EXPECT_EQ(rig.ReadAcct(0), 100);
}

TEST(FailureTest, NonBlockingTakeoverCountsUnknownAnswersTowardAbort) {
  // Site 2 dies before its prepare record is durable, and the coordinator
  // dies retransmitting the PREPARE site 2 never answered; only site 1 is
  // prepared. Site 2 restarts without the family. NBC participants keep
  // outcome tombstones, so its kUnknown answer proves it can never join a
  // commit quorum: site 1's takeover counts it toward the abort quorum
  // (Qa = 2) and aborts while the coordinator is still down, with no
  // replication ack to wait for.
  Rig rig(FailConfig(3));
  rig.CrashAt("tm.sub.prepare_force.before", 2);
  rig.world.failpoints().Arm("tm.send.PREPARE", SiteId{0}, FailpointArm::Crash(2));
  rig.world.sched().Spawn([](Rig& r) -> Async<void> {
    auto begin = co_await r.app.Begin();
    const Tid tid = *begin;
    for (int i = 0; i < 3; ++i) {
      co_await r.app.WriteInt(tid, Rig::ServerName(i), "acct", 55);
    }
    co_await r.app.Commit(tid, CommitOptions::NonBlocking());
  }(rig));
  rig.world.RunFor(Sec(2));
  rig.world.Restart(2);
  rig.world.RunFor(Sec(30));

  ASSERT_FALSE(rig.world.site(0).site().up());
  const FamilyId family{SiteId{0}, 1};
  EXPECT_GE(rig.world.site(1).tranman().counters().takeovers, 1u);
  EXPECT_EQ(rig.world.site(1).tranman().QueryState(family), TmTxnState::kAborted);
  EXPECT_EQ(rig.server(1)->locks().held_lock_count(), 0u);
  EXPECT_EQ(rig.ReadAcct(1), 100);
  EXPECT_EQ(rig.ReadAcct(2), 100);

  rig.world.Restart(0);
  rig.world.RunUntilIdle();
  EXPECT_EQ(rig.ReadAcct(0), 100);
  EXPECT_EQ(rig.world.site(0).tranman().live_family_count(), 0u);
}

TEST(FailureTest, NonBlockingReadOnlySubordinatesStartNoTakeover) {
  // Every subordinate only reads and the coordinator writes, so the local
  // commit record alone decides (CommitLocalOnly); the coordinator dies at
  // the brink of that force. The spec's take.start lets a read-only
  // participant awaiting its tombstone start a takeover, but the runtime's
  // read-only subordinates are passive acceptors: no inbox, no
  // SubordinateWait, and the SITE-UP and topology probes skip them. So none
  // starts a takeover while the coordinator is down, and the sites that
  // decide agree once it is back.
  Rig rig(FailConfig(3));
  rig.CrashAt("tm.local.commit_force.before", 0);
  rig.world.sched().Spawn([](Rig& r) -> Async<void> {
    auto begin = co_await r.app.Begin();
    const Tid tid = *begin;
    co_await r.app.WriteInt(tid, Rig::ServerName(0), "acct", 55);
    co_await r.app.ReadInt(tid, Rig::ServerName(1), "acct");
    co_await r.app.ReadInt(tid, Rig::ServerName(2), "acct");
    co_await r.app.Commit(tid, CommitOptions::NonBlocking());
  }(rig));
  rig.world.RunFor(Sec(30));

  ASSERT_FALSE(rig.world.site(0).site().up());
  const FamilyId family{SiteId{0}, 1};
  for (int i = 1; i < 3; ++i) {
    const TranMan& tm = rig.world.site(i).tranman();
    EXPECT_EQ(tm.counters().read_only_votes, 1u) << i;
    EXPECT_EQ(tm.counters().takeovers, 0u) << i;
    EXPECT_EQ(tm.QueryState(family), TmTxnState::kPrepared) << i;
    EXPECT_EQ(rig.server(i)->locks().held_lock_count(), 0u) << i;
  }

  rig.world.Restart(0);
  rig.world.RunUntilIdle();
  std::optional<TmTxnState> outcome;
  for (int i = 0; i < 3; ++i) {
    const TmTxnState state = rig.world.site(i).tranman().QueryState(family);
    if (state != TmTxnState::kCommitted && state != TmTxnState::kAborted) {
      continue;
    }
    if (!outcome.has_value()) {
      outcome = state;
    }
    EXPECT_EQ(state, *outcome) << i;
  }
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(rig.ReadAcct(0), *outcome == TmTxnState::kCommitted ? 55 : 100);
}

TEST(FailureTest, ForcesHoldAWorkerWhereTheModelSaysSo) {
  // A coordinator's forces and an update subordinate's prepare and commit
  // forces occupy a worker for their whole duration (Section 3.4); an
  // acceptor's accept outside the coordinator, the takeover's included, does
  // not. The shared Accept and CoordinatorCommit steps take the hold as an
  // argument, and no trace digest sees it while workers are idle.
  struct Probe {
    CommitOptions options;
    const char* point;
    int site;
    bool held;
  };
  const Probe probes[] = {
      {CommitOptions::Optimized(), "tm.2pc.commit_force", 0, true},
      {CommitOptions::Optimized(), "tm.sub.prepare_force", 1, true},
      {CommitOptions::Unoptimized(), "tm.sub.commit_force", 1, true},
      {CommitOptions::NonBlocking(), "tm.nbc.prepare_force", 0, true},
      {CommitOptions::NonBlocking(), "tm.nbc.replicate_force", 0, true},
      {CommitOptions::NonBlocking(), "tm.nbc.commit_force", 0, true},
      {CommitOptions::NonBlocking(), "tm.accept.replicate_force", 1, false},
      {CommitOptions::Paxos(1), "tm.paxos.prepare_force", 0, true},
      {CommitOptions::Paxos(1), "tm.paxos.accept_force", 0, true},
      {CommitOptions::Paxos(1), "tm.paxos.accept_force", 1, false},
  };
  for (const Probe& probe : probes) {
    Rig rig(FailConfig(3));
    std::vector<bool> held;
    ProbeWorkerHold(rig, probe.point, probe.site, &held);
    rig.world.sched().Spawn(WriteEverySite(rig, probe.options));
    rig.world.RunUntilIdle();
    ASSERT_EQ(held.size(), 1u) << probe.point << "@" << probe.site;
    EXPECT_EQ(held[0], probe.held) << probe.point << "@" << probe.site;
  }

  // The subordinates take over from a coordinator that died at its commit
  // force; their own accepts hold no worker.
  Rig rig(FailConfig(3));
  rig.CrashAt("tm.nbc.commit_force.before", 0);
  std::vector<bool> held;
  for (int site = 1; site < 3; ++site) {
    ProbeWorkerHold(rig, "tm.takeover.replicate_force", site, &held);
  }
  rig.world.sched().Spawn(WriteEverySite(rig, CommitOptions::NonBlocking()));
  rig.world.RunUntilIdle();
  ASSERT_FALSE(held.empty());
  for (const bool h : held) {
    EXPECT_FALSE(h);
  }
}

TEST(FailureTest, NonBlockingCoordinatorCountsAcksAtTheEpochItReplicated) {
  // Site 1 loses its ack of the coordinator's epoch-0 REPLICATE and site 2's
  // is held 500 ms; the coordinator's resends are lost. Site 1 times out,
  // takes over at a higher ballot, and the coordinator accepts it; site 1's
  // COMMIT and site 2's first takeover read are lost. Site 2's held ack then
  // completes the coordinator's quorum: an NBC coordinator counts acks at
  // the epoch it replicated, not at its live accepted epoch (AwaitQuorum),
  // so it reaches its own commit point.
  Rig rig(FailConfig(3));
  FailpointRegistry& fp = rig.world.failpoints();
  fp.Arm("tm.send.REPLICATE-ACK", SiteId{1}, FailpointArm::Drop(1));
  fp.Arm("tm.send.REPLICATE-ACK", SiteId{2}, FailpointArm::Delay(1, Msec(500)));
  for (uint64_t hit = 2; hit <= 4; ++hit) {
    fp.Arm("tm.send.REPLICATE", SiteId{0}, FailpointArm::Drop(hit));
  }
  fp.Arm("tm.send.COMMIT", SiteId{1}, FailpointArm::Drop(1));
  fp.Arm("tm.send.STATUS-REQ", SiteId{2}, FailpointArm::Drop(1));
  rig.world.sched().Spawn(WriteEverySite(rig, CommitOptions::NonBlocking()));
  rig.world.RunUntilIdle();

  EXPECT_EQ(rig.world.site(1).tranman().counters().takeovers, 1u);
  EXPECT_EQ(fp.hits("tm.accept.replicate_force.before", SiteId{0}), 1u);
  EXPECT_EQ(fp.hits("tm.nbc.commit_force.before", SiteId{0}), 1u);
  const FamilyId family{SiteId{0}, 1};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.world.site(i).tranman().QueryState(family), TmTxnState::kCommitted) << i;
    EXPECT_EQ(rig.ReadAcct(i), 55) << i;
  }
}

TEST(FailureTest, DelayedSendDiesWithItsIncarnation) {
  // The coordinator's PREPARE is held 400 ms at its tm.send point. Its
  // retransmit 300 ms later crashes the site, which restarts 50 ms after
  // that, so the held PREPARE comes due in the next incarnation. The send
  // gate must drop it: the restarted coordinator presumed the family
  // aborted, and the subordinate may learn of it only from its orphan watch.
  Rig rig(FailConfig(2));
  rig.world.failpoints().Arm("tm.send.PREPARE", SiteId{0}, FailpointArm::Delay(1, Msec(400)));
  rig.world.failpoints().Arm("tm.send.PREPARE", SiteId{0}, FailpointArm::Callback(2, [&rig] {
                               rig.world.Crash(0);
                               rig.world.sched().Post(Msec(50), [&rig] { rig.world.Restart(0); });
                             }));
  rig.world.sched().Spawn([](Rig& r) -> Async<void> {
    co_await TransferTxn(r.app, Rig::ServerName(0), Rig::ServerName(1), 10,
                         CommitOptions::Optimized());
  }(rig));
  rig.world.RunUntilIdle();

  EXPECT_EQ(rig.world.failpoints().hits("tm.send.PREPARE", SiteId{0}), 2u);
  EXPECT_EQ(rig.world.site(1).tranman().counters().prepares_handled, 0u);
  EXPECT_EQ(rig.world.site(1).tranman().counters().orphans_aborted, 1u);
  EXPECT_EQ(rig.server(1)->locks().held_lock_count(), 0u);
  EXPECT_EQ(rig.ReadAcct(0), 100);
  EXPECT_EQ(rig.ReadAcct(1), 100);
}

TEST(FailureTest, NonBlockingSurvivesPartitionOfCoordinator) {
  Rig rig(FailConfig(3));
  // Partition the coordinator away at the brink of its commit force, once
  // replication reached its quorum; the majority side {1,2} must decide
  // without it. A callback arm replaces the old durable-log polling watcher.
  rig.world.failpoints().Arm(
      "tm.nbc.commit_force.before", SiteId{0}, FailpointArm::Callback(1, [&rig] {
        rig.world.net().SetPartition({{SiteId{0}}, {SiteId{1}, SiteId{2}}});
        // Heal after a while so the coordinator can learn the outcome.
        rig.world.sched().Post(Sec(8), [&rig] { rig.world.net().ClearPartition(); });
      }));

  std::optional<Status> status;
  rig.world.sched().Spawn([](Rig& r, std::optional<Status>* out) -> Async<void> {
    auto begin = co_await r.app.Begin();
    const Tid tid = *begin;
    for (int i = 0; i < 3; ++i) {
      co_await r.app.WriteInt(tid, Rig::ServerName(i), "acct", 77);
    }
    *out = co_await r.app.Commit(tid, CommitOptions::NonBlocking());
  }(rig, &status));
  rig.world.RunUntilIdle();

  // Majority committed during the partition; coordinator converged after heal.
  EXPECT_EQ(rig.ReadAcct(1), 77);
  EXPECT_EQ(rig.ReadAcct(2), 77);
  EXPECT_EQ(rig.ReadAcct(0), 77);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.server(i)->locks().held_lock_count(), 0u) << i;
  }
}

TEST(FailureTest, RecoveryIsIdempotentAcrossDoubleCrash) {
  Rig rig(FailConfig(2));
  // Commit a transaction normally.
  auto st = rig.world.RunSync(TransferTxn(rig.app, Rig::ServerName(0), Rig::ServerName(1), 25,
                                          CommitOptions::Optimized()));
  ASSERT_TRUE(st.has_value() && st->ok());
  // Crash and recover twice; the committed state must survive both times.
  for (int round = 0; round < 2; ++round) {
    rig.world.Crash(0);
    rig.world.Crash(1);
    rig.world.RunFor(Sec(1));
    rig.world.Restart(0);
    rig.world.Restart(1);
    rig.world.RunUntilIdle();
    EXPECT_EQ(rig.ReadAcct(0), 75) << "round " << round;
    EXPECT_EQ(rig.ReadAcct(1), 125) << "round " << round;
  }
}

// The big atomicity property: under a coordinator crash at an ARBITRARY moment
// during a stream of transfers, after recovery the total money is conserved
// and no locks or live transactions leak.
TEST(FailureTest, MoneyConservedUnderRandomCoordinatorCrash) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Rig rig(FailConfig(3, seed));
    Rng rng(seed * 97);
    // Stream of transfers from site 0's application.
    rig.world.sched().Spawn([](Rig& r) -> Async<void> {
      for (int i = 0; i < 8; ++i) {
        const int from = i % 3;
        const int to = (i + 1) % 3;
        const CommitOptions options = (i % 2 == 0) ? CommitOptions::Optimized()
                                                   : CommitOptions::NonBlocking();
        co_await TransferTxn(r.app, Rig::ServerName(from), Rig::ServerName(to), 5, options);
        if (!r.world.site(0).site().up()) {
          co_return;
        }
      }
    }(rig));
    // Crash the coordinator site at a random instant inside the stream.
    const SimDuration crash_at = Usec(static_cast<int64_t>(rng.NextBounded(900000)));
    rig.world.sched().Post(crash_at, [&rig] { rig.world.Crash(0); });
    rig.world.RunUntilIdle();
    rig.world.Restart(0);
    rig.world.RunUntilIdle();

    int64_t total = 0;
    for (int i = 0; i < 3; ++i) {
      const int64_t v = rig.ReadAcct(i, /*from=*/1);
      ASSERT_GE(v, 0) << "seed " << seed << " site " << i;
      total += v;
      EXPECT_EQ(rig.server(i)->locks().held_lock_count(), 0u) << "seed " << seed;
    }
    EXPECT_EQ(total, 300) << "seed " << seed;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(rig.world.site(i).tranman().live_family_count(), 0u)
          << "seed " << seed << " site " << i;
    }
  }
}

TEST(FailureTest, MoneyConservedUnderRandomSubordinateCrash) {
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    Rig rig(FailConfig(3, seed));
    Rng rng(seed * 131);
    int attempted = 0;
    int committed = 0;
    rig.world.sched().Spawn([](Rig& r, int* att, int* com) -> Async<void> {
      for (int i = 0; i < 8; ++i) {
        ++*att;
        Status st = co_await TransferTxn(r.app, Rig::ServerName(1), Rig::ServerName(2), 5,
                                         (i % 2 == 0) ? CommitOptions::Optimized()
                                                      : CommitOptions::NonBlocking());
        if (st.ok()) {
          ++*com;
        }
      }
    }(rig, &attempted, &committed));
    const int victim = 1 + static_cast<int>(rng.NextBounded(2));
    const SimDuration crash_at = Usec(static_cast<int64_t>(rng.NextBounded(900000)));
    rig.world.sched().Post(crash_at, [&rig, victim] { rig.world.Crash(victim); });
    // Restart the victim a little later so in-flight protocols must cope with
    // the outage window.
    rig.world.sched().Post(crash_at + Sec(2), [&rig, victim] { rig.world.Restart(victim); });
    rig.world.RunUntilIdle();

    int64_t total = 0;
    for (int i = 0; i < 3; ++i) {
      const int64_t v = rig.ReadAcct(i, /*from=*/0);
      ASSERT_GE(v, 0) << "seed " << seed << " site " << i;
      total += v;
    }
    EXPECT_EQ(total, 300) << "seed " << seed << " (attempted " << attempted << ", committed "
                          << committed << ")";
  }
}

}  // namespace
}  // namespace camelot
