// DataServer: a Camelot data server managing recoverable objects.
//
// Each server controls a set of named objects (instances of abstract types; we
// provide byte-blob values with int64 helpers), serializes access with the
// family-based lock manager, joins a transaction with the local TranMan on
// first touch (Figure 1, event 4), logs old/new values through the disk
// manager "as late as possible" (event 5), and answers the transaction
// manager's vote / commit / abort upcalls.
//
// The server's volatile state (join table, per-family update lists, locks) is
// lost on a crash; its durable state is whatever the disk manager and log
// preserve, which the recovery module repairs at restart.
//
// Every setup install and every read or write the server serves is reported
// to its Site (Site::RecordServed), the input of the isolation oracle.
// Recovery replays and abort compensation are NOT reported: they
// reconstruct or cancel writes the history already holds, and re-reporting
// them would corrupt a serial replay.
#ifndef SRC_SERVER_DATA_SERVER_H_
#define SRC_SERVER_DATA_SERVER_H_

#include <deque>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/failpoint.h"
#include "src/diskmgr/disk_manager.h"
#include "src/ipc/name_service.h"
#include "src/ipc/site.h"
#include "src/lockmgr/lock_manager.h"
#include "src/tranman/local_api.h"

namespace camelot {

struct ServerConfig {
  // Table 2: get lock / drop lock 0.5 ms each; data access negligible.
  SimDuration lock_cost = Usec(500);
  // How long an operation waits for a contended lock before giving up (the
  // deadlock fallback; the failed operation aborts its transaction). Must be
  // shorter than the RPC timeout so the caller learns the outcome from us,
  // not from a transport timeout.
  SimDuration lock_wait_timeout = Sec(2.0);
};

struct ServerCounters {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t joins = 0;
  uint64_t votes_update = 0;
  uint64_t votes_readonly = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  // Read/write/create requests refused because the propagated client deadline
  // had already passed when they arrived (zombie work shed before locking).
  uint64_t deadline_rejects = 0;
};

class DataServer {
 public:
  DataServer(Site& site, std::string name, DiskManager& diskmgr, NameService& names,
             ServerConfig config = {});

  const std::string& name() const { return name_; }
  LockManager& locks() { return locks_; }
  const ServerCounters& counters() const { return counters_; }

  // Failpoint handle for the abort/undo path (point "server.undo": a kDrop
  // arm skips one compensation write — the injected-anomaly lever the
  // isolation oracle's mutation tests pull).
  void set_failpoints(Failpoints failpoints) { failpoints_ = std::move(failpoints); }

  // Non-transactional setup: installs an object directly on the data disk.
  void CreateObjectForSetup(const std::string& object, Bytes value);

  // Testing hook: make the server vote "no" on the next `n` vote requests.
  void InjectVoteNo(int n) { inject_vote_no_ = n; }

  // Direct durable read (recovery/test inspection; no locks, no cost).
  Result<Bytes> PeekDurable(const std::string& object) const;

  // Recovery: reconstructs the volatile trace of one update belonging to a
  // prepared-but-undecided transaction — re-takes its exclusive lock and
  // re-registers the update so a later commit/abort upcall behaves normally.
  // Called in log order during restart.
  Async<void> RestorePreparedUpdate(const Tid& tid, const std::string& object, Bytes old_value,
                                    Bytes new_value, Lsn lsn);

 private:
  struct UpdateEntry {
    Tid tid;
    std::string object;
    Bytes old_value;
    Bytes new_value;
    Lsn lsn;
  };
  struct FamilyState {
    bool joined = false;    // Join reported to the local TranMan.
    std::vector<UpdateEntry> updates;  // In execution order.
  };

  Async<RpcResult> Handle(RpcContext ctx, uint32_t method, Bytes body);
  Async<RpcResult> HandleRead(const Tid& tid, const std::string& object);
  Async<RpcResult> HandleWrite(const Tid& tid, const std::string& object, Bytes value);
  Async<RpcResult> HandleVote(const Tid& top);
  Async<RpcResult> HandleCommitFamily(const Tid& top);
  Async<RpcResult> HandleAbortFamily(const Tid& top);
  Async<RpcResult> HandleNestedCommit(const Tid& child, const Tid& parent);
  Async<RpcResult> HandleAbortSubtree(const Tid& top, const std::vector<uint32_t>& serials);

  // First-touch join with the local transaction manager.
  Async<Status> EnsureJoined(const Tid& tid);
  // Undo the given updates (newest first) and forget them.
  Async<void> UndoUpdates(std::vector<UpdateEntry> updates);

  // Zombie-operation defense: an operation whose caller already gave up (RPC
  // timeout) may complete after its family committed/aborted; concluded
  // families reject late operations instead of resurrecting state.
  bool Concluded(const FamilyId& family) const;
  void MarkConcluded(const FamilyId& family);

  Site& site_;
  std::string name_;
  DiskManager& diskmgr_;
  NameService& names_;
  ServerConfig config_;
  LockManager locks_;
  std::unordered_map<FamilyId, FamilyState> families_;
  std::set<FamilyId> concluded_;
  std::deque<FamilyId> concluded_order_;
  ServerCounters counters_;
  Failpoints failpoints_;
  int inject_vote_no_ = 0;
};

}  // namespace camelot

#endif  // SRC_SERVER_DATA_SERVER_H_
