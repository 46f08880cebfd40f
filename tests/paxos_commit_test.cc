// Protocol-behavior tests for Paxos Commit (Gray & Lamport) in a live world:
// the happy path through the replicated registrar, the F = 0 collapse to
// optimized 2PC, non-blocking progress when an acceptor dies, and leader
// takeover resolving both outcomes after a coordinator crash — the property
// 2PC cannot offer — including takeovers led and answered by a participant
// outside the acceptor set.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "src/harness/world.h"

namespace camelot {
namespace {

WorldConfig QuietConfig(int sites = 3, uint64_t seed = 1) {
  WorldConfig cfg;
  cfg.site_count = sites;
  cfg.seed = seed;
  cfg.net.send_jitter_mean = 0;
  cfg.net.stall_probability = 0;
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

  // The durable (post-flush) value of "acct" at site i.
  int64_t DurableAcct(int i) {
    world.RunSync([](DiskManager& d) -> Async<bool> {
      co_await d.FlushAll();
      co_return true;
    }(world.site(i).diskmgr()));
    auto value = server(i)->PeekDurable("acct");
    EXPECT_TRUE(value.ok()) << "site " << i;
    return value.ok() ? DecodeInt64(*value) : -1;
  }

  uint64_t TotalTakeovers() {
    uint64_t n = 0;
    for (int i = 0; i < world.site_count(); ++i) {
      n += world.site(i).tranman().counters().takeovers;
    }
    return n;
  }

  World world;
  AppClient app;
};

// One increment of "acct" on each of the first n_sites sites, committed with
// `options`.
Async<Status> IncrementTxn(AppClient& app, int n_sites, CommitOptions options) {
  auto begin = co_await app.Begin();
  if (!begin.ok()) {
    co_return begin.status();
  }
  const Tid tid = *begin;
  for (int i = 0; i < n_sites; ++i) {
    const std::string server = Rig::ServerName(i);
    auto v = co_await app.ReadInt(tid, server, "acct");
    if (!v.ok()) {
      co_return v.status();
    }
    Status w = co_await app.WriteInt(tid, server, "acct", *v + 1);
    if (!w.ok()) {
      co_return w;
    }
  }
  co_return co_await app.Commit(tid, options);
}

// Spawns `task` without draining: the crash tests need the world to keep
// running (takeover timers, retransmissions) after the client's own site
// dies under it mid-commit.
template <typename T>
Async<void> Capture(Async<T> task, std::optional<T>* out) {
  out->emplace(co_await std::move(task));
}

TEST(PaxosCommitTest, DistributedCommitPersistsOnAllSitesThroughAcceptors) {
  Rig rig(QuietConfig(3));
  rig.world.failpoints().set_recording(true);
  auto status = rig.world.RunSync(IncrementTxn(rig.app, 3, CommitOptions::Paxos(1)));
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok()) << status->ToString();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.DurableAcct(i), 101) << "site " << i;
    // All three sites are acceptors (2F+1 = 3): each forced a ballot-0
    // accept record — the replicated registrar the takeover path reads.
    EXPECT_GE(rig.world.failpoints().hits("tm.paxos.accept_force.after",
                                          SiteId{static_cast<uint32_t>(i)}),
              1u)
        << "site " << i;
  }
  EXPECT_EQ(rig.TotalTakeovers(), 0u);
}

TEST(PaxosCommitTest, FZeroCollapsesToOptimizedTwoPhase) {
  // F = 0 means one acceptor (the coordinator) and quorum 1: the paper's
  // degenerate case, routed literally through the optimized-2PC coordinator.
  Rig rig(QuietConfig(3));
  rig.world.failpoints().set_recording(true);
  auto status = rig.world.RunSync(IncrementTxn(rig.app, 3, CommitOptions::Paxos(0)));
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok()) << status->ToString();
  EXPECT_EQ(rig.world.failpoints().hits("tm.2pc.commit_force.after", SiteId{0}), 1u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.world.failpoints().hits("tm.paxos.accept_force.after",
                                          SiteId{static_cast<uint32_t>(i)}),
              0u);
    EXPECT_EQ(rig.DurableAcct(i), 101) << "site " << i;
  }
}

TEST(PaxosCommitTest, AcceptorCrashDoesNotBlockCommitAtFOne) {
  // Kill acceptor 1 the moment it starts forcing its accept record. The
  // coordinator still reaches F+1 = 2 accepts (itself + site 2), so the
  // client's commit succeeds — a single failure never blocks Paxos Commit.
  Rig rig(QuietConfig(3));
  rig.world.failpoints().Arm("tm.paxos.accept_force.before", SiteId{1}, FailpointArm::Crash());
  std::optional<Status> status;
  rig.world.sched().Spawn(Capture(IncrementTxn(rig.app, 3, CommitOptions::Paxos(1)), &status));
  rig.world.RunFor(Sec(30));
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->ok()) << status->ToString();
  EXPECT_EQ(rig.DurableAcct(0), 101);
  EXPECT_EQ(rig.DurableAcct(2), 101);
  // The dead acceptor recovers, finds its prepared family, asks around, and
  // commits too.
  rig.world.Restart(1);
  rig.world.RunFor(Sec(30));
  EXPECT_EQ(rig.DurableAcct(1), 101);
  EXPECT_EQ(rig.world.site(1).tranman().counters().duplicate_effects, 0u);
}

TEST(PaxosCommitTest, CoordinatorCrashAfterAcceptQuorumResolvesToCommitByTakeover) {
  // The coordinator dies immediately after its own ballot-0 accept force. Its
  // vote multicast already reached acceptors 1 and 2, so they hold (or will
  // force) commit-deciding accepts: a takeover leader reading any F+1 = 2 of
  // the three registrars sees the decision and drives commit — no blocking on
  // the dead coordinator, which is exactly where 2PC would wedge.
  Rig rig(QuietConfig(3));
  rig.world.failpoints().Arm("tm.paxos.accept_force.after", SiteId{0}, FailpointArm::Crash());
  std::optional<Status> status;
  rig.world.sched().Spawn(Capture(IncrementTxn(rig.app, 3, CommitOptions::Paxos(1)), &status));
  rig.world.RunFor(Sec(60));
  // The client lived on the crashed site; its commit call never returns a
  // verdict. The survivors must still resolve.
  EXPECT_GE(rig.TotalTakeovers(), 1u);
  EXPECT_EQ(rig.DurableAcct(1), 101);
  EXPECT_EQ(rig.DurableAcct(2), 101);
  // The coordinator restarts, recovers its prepared family, and learns the
  // commit from the survivors' tombstones.
  rig.world.Restart(0);
  rig.world.RunFor(Sec(60));
  EXPECT_EQ(rig.DurableAcct(0), 101);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.world.site(i).tranman().counters().heuristic_damage, 0u) << "site " << i;
    EXPECT_EQ(rig.world.site(i).tranman().counters().duplicate_effects, 0u) << "site " << i;
  }
}

TEST(PaxosCommitTest, CoordinatorCrashBeforeItsVoteResolvesToAbortByTakeover) {
  // The coordinator dies before multicasting its own vote, which also
  // precedes the PREPARE fan-out: the subordinates never hear of the
  // transaction at all and orphan-abort their staged writes. The interesting
  // party is the coordinator itself — it restarts holding a prepared family
  // (its vote was hardened before the crash) that it must NOT presume abort
  // on, since it cannot know which sends completed. Its takeover reads
  // promised-empty testimony from acceptors 1 and 2 ("never accepted
  // anything, and now promised away ballot 0") and aborts at a higher
  // ballot, replicating the abort through them as passive acceptors.
  Rig rig(QuietConfig(3));
  rig.world.failpoints().Arm("tm.send.VOTE", SiteId{0}, FailpointArm::Crash());
  std::optional<Status> status;
  rig.world.sched().Spawn(Capture(IncrementTxn(rig.app, 3, CommitOptions::Paxos(1)), &status));
  rig.world.RunFor(Sec(60));
  EXPECT_EQ(rig.DurableAcct(1), 100);
  EXPECT_EQ(rig.DurableAcct(2), 100);
  rig.world.Restart(0);
  rig.world.RunFor(Sec(60));
  EXPECT_GE(rig.world.site(0).tranman().counters().takeovers, 1u);
  EXPECT_EQ(rig.DurableAcct(0), 100);
  // The family resolved — nothing left blocked holding vault 0's lock.
  EXPECT_EQ(rig.world.site(0).tranman().live_family_count(), 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.world.site(i).tranman().counters().heuristic_damage, 0u) << "site " << i;
  }
}

TEST(PaxosCommitTest, NonAcceptorLeadsAndAnswersTakeoverAfterCoordinatorCrash) {
  // Four updating sites under F = 1 seat acceptors 0..2 only, so site 3 is a
  // participant outside the registrar — a shape no three-site explorer
  // workload reaches. With the coordinator dead after its ballot-0 accept,
  // site 3 times out in doubt too: it leads takeovers without forcing an
  // accept of its own (only acceptors' accepts count), and its answers to
  // the other leaders' reads count for nothing.
  Rig rig(QuietConfig(4));
  rig.world.failpoints().set_recording(true);
  rig.world.failpoints().Arm("tm.paxos.accept_force.after", SiteId{0}, FailpointArm::Crash());
  std::optional<Status> status;
  rig.world.sched().Spawn(Capture(IncrementTxn(rig.app, 4, CommitOptions::Paxos(1)), &status));
  rig.world.RunFor(Sec(60));
  rig.world.Restart(0);
  rig.world.RunFor(Sec(60));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.DurableAcct(i), 101) << "site " << i;
    const TranMan& tm = rig.world.site(i).tranman();
    EXPECT_EQ(tm.live_family_count(), 0u) << "site " << i;
    EXPECT_EQ(tm.counters().heuristic_damage, 0u) << "site " << i;
    EXPECT_EQ(tm.counters().duplicate_effects, 0u) << "site " << i;
  }
  EXPECT_GE(rig.world.site(3).tranman().counters().takeovers, 1u);
  EXPECT_EQ(rig.world.failpoints().hits("tm.takeover.replicate_force.before", SiteId{3}), 0u);
}

TEST(PaxosCommitTest, AcceptorSetIsFirstTwoQcMinusOneSites) {
  const std::vector<SiteId> sites = {SiteId{0}, SiteId{1}, SiteId{2}, SiteId{3}, SiteId{4}};
  EXPECT_EQ(TranMan::PaxosAcceptors(sites, 2).size(), 3u);  // F=1: 2*2-1.
  EXPECT_EQ(TranMan::PaxosAcceptors(sites, 3).size(), 5u);  // F=2: 2*3-1.
  EXPECT_EQ(TranMan::PaxosAcceptors(sites, 1).size(), 1u);  // F=0: coordinator only.
  // Clamped to the participant count when the transaction is too narrow.
  const std::vector<SiteId> narrow = {SiteId{0}, SiteId{1}};
  EXPECT_EQ(TranMan::PaxosAcceptors(narrow, 3).size(), 2u);
  // The coordinator (first site) always leads the acceptor list.
  EXPECT_EQ(TranMan::PaxosAcceptors(sites, 2).front(), SiteId{0});
}

}  // namespace
}  // namespace camelot
