#include "src/stats/cost_ledger.h"

#include <string>

#include <gtest/gtest.h>

#include "src/base/types.h"
#include "src/ipc/site.h"
#include "src/net/network.h"
#include "src/sim/scheduler.h"
#include "src/stats/history.h"

namespace camelot {
namespace {

CostEvent Event(uint32_t site, const std::string& role, const std::string& phase,
                CostPrimitive primitive, uint64_t family_seq = 1) {
  return CostEvent{FamilyId{SiteId{0}, family_seq}, SiteId{site}, role, phase, primitive};
}

TEST(CostLedgerTest, KeyUsesRolePhaseAndPrimitiveSuffix) {
  EXPECT_EQ(CostLedger::Key(Event(0, "coord", "2pc.commit", CostPrimitive::kLogForce)),
            "coord/2pc.commit/force");
  EXPECT_EQ(CostLedger::Key(Event(1, "sub", "COMMIT-ACK", CostPrimitive::kDatagram)),
            "sub/COMMIT-ACK/dgram");
  EXPECT_EQ(CostLedger::Key(Event(0, "ipc", "tranman", CostPrimitive::kLocalIpc)),
            "ipc/tranman/call");
  EXPECT_EQ(CostLedger::Key(Event(0, "ipc", "server", CostPrimitive::kLocalIpcServer)),
            "ipc/server/server_call");
  EXPECT_EQ(CostLedger::Key(Event(0, "ipc", "server", CostPrimitive::kLocalOutOfLine)),
            "ipc/server/oob");
  EXPECT_EQ(CostLedger::Key(Event(0, "ipc", "server", CostPrimitive::kLocalOneway)),
            "ipc/server/oneway");
  EXPECT_EQ(CostLedger::Key(Event(0, "ipc", "comman", CostPrimitive::kRemoteRpc)),
            "ipc/comman/rpc");
  EXPECT_EQ(CostLedger::Key(Event(0, "sub", "commit", CostPrimitive::kLogSpool)),
            "sub/commit/spool");
}

TEST(CostLedgerTest, CountsAggregateByKey) {
  CostLedger ledger;
  ledger.Record(Event(0, "coord", "2pc.commit", CostPrimitive::kLogForce));
  ledger.Record(Event(0, "coord", "2pc.commit", CostPrimitive::kLogForce));
  ledger.Record(Event(1, "sub", "prepare", CostPrimitive::kLogForce));
  const CountVector counts = ledger.Counts();
  EXPECT_EQ(counts.at("coord/2pc.commit/force"), 2);
  EXPECT_EQ(counts.at("sub/prepare/force"), 1);
  EXPECT_EQ(counts.size(), 2u);
}

TEST(CostLedgerTest, ProtocolCountsDropIpcLayer) {
  CostLedger ledger;
  ledger.Record(Event(0, "coord", "COMMIT", CostPrimitive::kDatagram));
  ledger.Record(Event(0, "ipc", "tranman", CostPrimitive::kLocalIpc));
  EXPECT_EQ(ledger.Counts().at("ipc/tranman/call"), 1);
  const CountVector protocol = ledger.ProtocolCounts();
  EXPECT_EQ(protocol.count("ipc/tranman/call"), 0u);
  EXPECT_EQ(protocol.at("coord/COMMIT/dgram"), 1);
}

TEST(CostLedgerTest, UnexpectedRolesStayInConformanceDomain) {
  // Takeover activity during a "fault-free" run must surface in a diff, not
  // vanish into an exclusion list.
  CostLedger ledger;
  ledger.Record(Event(2, "takeover", "replicate", CostPrimitive::kLogForce));
  EXPECT_EQ(ledger.Counts().at("takeover/replicate/force"), 1);
  EXPECT_EQ(ledger.ProtocolCounts().at("takeover/replicate/force"), 1);
}

TEST(CostLedgerTest, DiffEmptyIffEqual) {
  CountVector a{{"coord/commit/force", 1}, {"sub/prepare/force", 2}};
  CountVector b = a;
  EXPECT_EQ(CostLedger::Diff(a, b), "");
  b["sub/prepare/force"] = 3;
  const std::string diff = CostLedger::Diff(a, b);
  EXPECT_NE(diff.find("sub/prepare/force"), std::string::npos);
  EXPECT_NE(diff.find("predicted 2"), std::string::npos);
  EXPECT_NE(diff.find("measured 3"), std::string::npos);
  EXPECT_NE(diff.find("(+1)"), std::string::npos);
  // Keys only on one side appear too, with a signed delta.
  CountVector missing{{"coord/commit/force", 1}};
  const std::string missing_diff = CostLedger::Diff(a, missing);
  EXPECT_NE(missing_diff.find("sub/prepare/force"), std::string::npos);
  EXPECT_NE(missing_diff.find("(-2)"), std::string::npos);
}

TEST(CostLedgerTest, AddCountsMerges) {
  CountVector into{{"a/b/force", 1}};
  AddCounts(into, CountVector{{"a/b/force", 2}, {"c/d/dgram", 1}});
  EXPECT_EQ(into.at("a/b/force"), 3);
  EXPECT_EQ(into.at("c/d/dgram"), 1);
}

TEST(CostLedgerTest, RenderListsEveryEntry) {
  const std::string rendered =
      CostLedger::Render(CountVector{{"a/b/force", 1}, {"c/d/dgram", 2}});
  EXPECT_NE(rendered.find("a/b/force"), std::string::npos);
  EXPECT_NE(rendered.find("c/d/dgram"), std::string::npos);
}

// --- Recording through the Site -----------------------------------------------

struct SiteRig {
  SiteRig() : sched(1), net(sched, NetConfig{}), site(sched, net, SiteId{7}, IpcConfig{}) {
    site.RegisterService("tranman:1", [](RpcContext, uint32_t, Bytes) -> Async<RpcResult> {
      co_return RpcResult{OkStatus(), {}};
    });
  }

  // One of each recording call, plus a local one-way IPC (which records an
  // ipc/tranman/oneway cost event). Run the scheduler afterwards to deliver it.
  void RecordOneOfEach(const Tid& tid) {
    site.RecordCost(tid.family, "coord", "2pc.commit", CostPrimitive::kLogForce);
    site.NotifyLocal("tranman:1", 0, Bytes(), RpcContext{SiteId{7}, tid, 0});
    site.RecordServed(HistoryOp::kWrite, tid, "vault", "obj", Bytes{0x2a});
    site.RecordOutcome(tid.family, /*committed=*/true);
  }

  Scheduler sched;
  Network net;
  Site site;
};

const Tid kTid{FamilyId{SiteId{7}, 3}, 0, 0};

TEST(SiteRecordingTest, SiteWithoutStoresRecordsNothing) {
  SiteRig rig;
  CostLedger ledger;
  HistoryRecorder history;
  history.set_enabled(true);
  rig.site.set_recorders(&ledger, &history);
  rig.site.set_recorders(nullptr, nullptr);
  rig.RecordOneOfEach(kTid);  // Must not crash.
  rig.sched.RunUntilIdle();
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_EQ(history.size(), 0u);
}

TEST(SiteRecordingTest, CostEventsCarrySiteId) {
  SiteRig rig;
  CostLedger ledger;
  rig.site.set_recorders(&ledger, nullptr);
  rig.RecordOneOfEach(kTid);
  rig.sched.RunUntilIdle();
  ASSERT_EQ(ledger.size(), 2u);
  for (const CostEvent& e : ledger.events()) {
    EXPECT_EQ(e.site, SiteId{7});
    EXPECT_EQ(e.family, kTid.family);
  }
  EXPECT_EQ(CostLedger::Key(ledger.events()[0]), "coord/2pc.commit/force");
  // Local IPCs key by the service family, not the instance.
  EXPECT_EQ(CostLedger::Key(ledger.events()[1]), "ipc/tranman/oneway");
}

TEST(SiteRecordingTest, HistoryEventsCarrySiteIdAndVirtualTime) {
  SiteRig rig;
  HistoryRecorder history;
  history.set_enabled(true);
  rig.site.set_recorders(nullptr, &history);
  rig.sched.Post(Usec(2500), [&rig] { rig.RecordOneOfEach(kTid); });
  rig.sched.RunUntilIdle();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history.events()[0],
            (HistoryEvent{HistoryOp::kWrite, Usec(2500), SiteId{7}, kTid, "vault", "obj",
                          Bytes{0x2a}}));
  EXPECT_EQ(history.events()[1], (HistoryEvent{HistoryOp::kCommit, Usec(2500), SiteId{7},
                                               kTid, std::string(), std::string(), Bytes()}));
}

TEST(SiteRecordingTest, HistoryStaysEmptyWhileDisabled) {
  SiteRig rig;
  CostLedger ledger;
  HistoryRecorder history;
  rig.site.set_recorders(&ledger, &history);
  rig.RecordOneOfEach(kTid);
  rig.sched.RunUntilIdle();
  EXPECT_EQ(history.size(), 0u);
  EXPECT_EQ(ledger.size(), 2u);  // The ledger records regardless.
  history.set_enabled(true);
  rig.RecordOneOfEach(kTid);
  rig.sched.RunUntilIdle();
  EXPECT_EQ(history.size(), 2u);
}

}  // namespace
}  // namespace camelot
