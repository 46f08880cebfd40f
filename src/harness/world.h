// CamelotWorld: wires up an N-site Camelot installation inside one simulation.
//
// Every site gets the paper's process set: NetMsgServer, Communication
// Manager, Disk Manager (owning the stable log with group commit), Recovery
// Manager, and the Transaction Manager, plus any data servers the caller
// adds. This is the embedding API used by the examples, tests, and every
// bench.
#ifndef SRC_HARNESS_WORLD_H_
#define SRC_HARNESS_WORLD_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/failpoint.h"
#include "src/comman/comman.h"
#include "src/diskmgr/disk_manager.h"
#include "src/ipc/name_service.h"
#include "src/ipc/netmsg.h"
#include "src/ipc/site.h"
#include "src/net/network.h"
#include "src/recovery/recovery.h"
#include "src/server/data_server.h"
#include "src/sim/scheduler.h"
#include "src/stats/cost_ledger.h"
#include "src/stats/history.h"
#include "src/tranman/tranman.h"
#include "src/wal/stable_log.h"

namespace camelot {

struct WorldConfig {
  int site_count = 2;
  uint64_t seed = 1;
  NetConfig net;
  IpcConfig ipc;
  LogConfig log;
  DiskConfig disk;
  ServerConfig server;
  TranManConfig tranman;
};

// One site's full Camelot process set.
class CamelotSite {
 public:
  CamelotSite(Scheduler& sched, Network& net, NameService& names, SiteId id,
              const WorldConfig& config, FailpointRegistry& failpoints,
              CostLedger& cost_ledger, HistoryRecorder& history);

  Site& site() { return site_; }
  NetMsgServer& netmsg() { return netmsg_; }
  ComMan& comman() { return comman_; }
  StableLog& log() { return log_; }
  DiskManager& diskmgr() { return diskmgr_; }
  TranMan& tranman() { return tranman_; }
  RecoveryManager& recovery() { return recovery_; }

  DataServer* AddServer(const std::string& name, ServerConfig config);
  DataServer* server(const std::string& name);
  std::map<std::string, DataServer*> ServerMap();

  // Media-recovery observability: the report of the most recent restart, and
  // totals accumulated across every restart of this site (the chaos soak
  // asserts on these).
  struct RecoveryTotals {
    size_t recoveries = 0;
    size_t failed_recoveries = 0;  // Non-OK status (interior log corruption).
    size_t frames_salvaged = 0;
    size_t pages_repaired = 0;
    size_t repair_failures = 0;
  };
  void RecordRecovery(const RecoveryReport& report);
  const RecoveryReport& last_recovery() const { return last_recovery_; }
  const RecoveryTotals& recovery_totals() const { return recovery_totals_; }

 private:
  Site site_;
  NetMsgServer netmsg_;
  NameService& names_;
  ComMan comman_;
  StableLog log_;
  DiskManager diskmgr_;
  TranMan tranman_;
  RecoveryManager recovery_;
  std::map<std::string, std::unique_ptr<DataServer>> servers_;
  Failpoints failpoint_handle_;    // Shared by late-added servers (AddServer).
  RecoveryReport last_recovery_;
  RecoveryTotals recovery_totals_;
};

class World {
 public:
  explicit World(WorldConfig config = {});

  Scheduler& sched() { return sched_; }
  Network& net() { return net_; }
  NameService& names() { return names_; }
  const WorldConfig& config() const { return config_; }
  int site_count() const { return static_cast<int>(sites_.size()); }
  CamelotSite& site(int index) { return *sites_.at(static_cast<size_t>(index)); }

  DataServer* AddServer(int site_index, const std::string& name);

  // Failure injection. Restart spawns the recovery process automatically.
  void Crash(int site_index);
  void Restart(int site_index);

  // The shared failpoint registry every site's components evaluate against
  // (arm points / record discovery here; see base/failpoint.h).
  FailpointRegistry& failpoints() { return failpoints_; }

  // The world-wide primitive-cost ledger: every protocol log force/spool,
  // datagram, and local IPC lands here tagged {family, site, role, phase}.
  // The ConformanceOracle compares it against the static analysis.
  CostLedger& cost_ledger() { return cost_ledger_; }

  // The world-wide operation history (off until history().set_enabled(true)):
  // every served read/write and top-level outcome transition, the input the
  // IsolationOracle checks. See src/stats/history.h.
  HistoryRecorder& history() { return history_; }

  // Drives the simulation.
  size_t RunUntilIdle() { return sched_.RunUntilIdle(); }
  size_t RunFor(SimDuration d) { return sched_.RunUntil(sched_.now() + d); }

  // A per-site operational snapshot (transactions, logging, disk, network),
  // rendered as a fixed-width table — the observability surface an operator
  // of a Camelot installation would watch.
  std::string StatsReport();

  // Spawns `task` and drains the scheduler; returns the captured result
  // (nullopt if the task never completed — e.g. it is blocked).
  template <typename T>
  std::optional<T> RunSync(Async<T> task) {
    std::optional<T> result;
    sched_.Spawn(Capture(std::move(task), &result));
    sched_.RunUntilIdle();
    return result;
  }

  // Like RunSync but stops as soon as the task completes (plus a short settle
  // window), leaving long-lived daemons pending. Use this from drivers that
  // hold transactions open across calls (e.g. the interactive shell): an open
  // transaction's orphan watcher keeps the event queue legitimately non-idle.
  template <typename T>
  std::optional<T> Drive(Async<T> task, SimDuration settle = Usec(100000)) {
    std::optional<T> result;
    sched_.Spawn(Capture(std::move(task), &result));
    while (!result.has_value() && sched_.RunUntilIdle(1) > 0) {
    }
    if (result.has_value()) {
      RunFor(settle);
    }
    return result;
  }

 private:
  template <typename T>
  static Async<void> Capture(Async<T> task, std::optional<T>* out) {
    out->emplace(co_await std::move(task));
  }

  WorldConfig config_;
  Scheduler sched_;
  Network net_;
  NameService names_;
  FailpointRegistry failpoints_;  // Declared before sites_: handles point here.
  CostLedger cost_ledger_;        // Likewise: every Site records here.
  HistoryRecorder history_;       // Likewise.
  std::vector<std::unique_ptr<CamelotSite>> sites_;
};

// Application-side façade: issues the calls of Figure 1 with their real costs
// (name lookups, local IPC to TranMan, ComMan-mediated operations).
class AppClient {
 public:
  explicit AppClient(CamelotSite& home) : home_(home) {}

  // Client deadline (absolute virtual time; 0 = none) attached to every
  // subsequent Begin/Commit/Abort/Read/Write so servers and transaction
  // managers can shed the work once it is past the point of usefulness.
  void set_deadline(SimTime deadline) { deadline_ = deadline; }
  SimTime deadline() const { return deadline_; }

  Async<Result<Tid>> Begin(Tid parent = kInvalidTid);
  Async<Status> Commit(const Tid& tid, CommitOptions options = CommitOptions::Optimized());
  Async<Status> Abort(const Tid& tid);

  Async<Result<Bytes>> Read(const Tid& tid, const std::string& server,
                            const std::string& object);
  Async<Status> Write(const Tid& tid, const std::string& server, const std::string& object,
                      Bytes value);
  Async<Result<int64_t>> ReadInt(const Tid& tid, const std::string& server,
                                 const std::string& object);
  Async<Status> WriteInt(const Tid& tid, const std::string& server, const std::string& object,
                         int64_t value);

  CamelotSite& home() { return home_; }

 private:
  CamelotSite& home_;
  SimTime deadline_ = 0;
};

}  // namespace camelot

#endif  // SRC_HARNESS_WORLD_H_
