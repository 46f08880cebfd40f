// Site: one machine in the simulated distributed system.
//
// A Site hosts named services (the per-process request ports of the paper's
// Figure 1: application, data servers, TranMan, ComMan, Disk Manager,
// Recovery), provides local IPC with Mach-like costs, and implements crash /
// restart with an incarnation counter so that work spawned before a crash can
// detect that its world is gone.
//
// A Site is also the one place its components record what they observe: the
// cost primitives they execute (into the world's CostLedger) and the reads,
// writes and outcomes they serve (into the world's HistoryRecorder). Every
// event carries this site's id; history events also carry its virtual time.
#ifndef SRC_IPC_SITE_H_
#define SRC_IPC_SITE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/ipc/ipc.h"
#include "src/net/network.h"
#include "src/sim/scheduler.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/stats/cost_ledger.h"
#include "src/stats/history.h"

namespace camelot {

class Site {
 public:
  // A service handler: processes one request and returns the response.
  using Handler = std::function<Async<RpcResult>(RpcContext, uint32_t method, Bytes body)>;

  Site(Scheduler& sched, Network& net, SiteId id, IpcConfig ipc_config);

  SiteId id() const { return id_; }
  Scheduler& sched() { return sched_; }
  Network& net() { return net_; }
  const IpcConfig& ipc() const { return ipc_config_; }
  // Experiments tune IPC costs between runs (never mid-call).
  IpcConfig& mutable_ipc() { return ipc_config_; }

  // --- Recording ---------------------------------------------------------------
  // Installs the world's ledger and history (either may be null); a site with
  // neither records nothing. Failpoints are wired separately: they control
  // the run, where recording only observes it.
  void set_recorders(CostLedger* ledger, HistoryRecorder* history) {
    ledger_ = ledger;
    history_ = history;
  }

  // One cost-model primitive executed here on behalf of `family`. Every local
  // IPC records one, keyed by the target service family.
  void RecordCost(const FamilyId& family, std::string_view role, std::string_view phase,
                  CostPrimitive primitive);

  // A read or write a data server served, or a setup install (kInit). While
  // history is off this is one branch: no event is built.
  void RecordServed(HistoryOp op, const Tid& tid, const std::string& server,
                    const std::string& object, const Bytes& value) {
    if (recording_history()) {
      history_->Record(HistoryEvent{op, sched_.now(), id_, tid, server, object, value});
    }
  }

  // A top-level commit or abort transition this site applied.
  void RecordOutcome(const FamilyId& family, bool committed);

  // --- Liveness ---------------------------------------------------------------
  bool up() const { return up_; }
  uint32_t incarnation() const { return incarnation_; }

  // Crash: the site stops sending and receiving; all registered crash listeners
  // fire (processes close their mailboxes); volatile state is lost by the
  // owning components.
  void Crash();
  // Restart: bumps the incarnation; the world then runs recovery (see
  // World::Restart).
  void Restart();

  void AddCrashListener(std::function<void()> fn) { crash_listeners_.push_back(std::move(fn)); }

  // --- Services ---------------------------------------------------------------
  void RegisterService(const std::string& name, Handler handler);

  // Synchronous local RPC to a service on this site. Applies the Mach local IPC
  // cost (split request/reply); `to_data_server` selects the heavier
  // local_rpc_server cost. Fails kUnavailable if the site is down or the
  // service is missing, kNotFound if the service does not exist.
  Async<RpcResult> CallLocal(const std::string& service, uint32_t method, Bytes body,
                             RpcContext ctx, bool to_data_server);

  // One-way local message (fire and forget, 1 ms). The handler's response is
  // discarded.
  void NotifyLocal(const std::string& service, uint32_t method, Bytes body, RpcContext ctx);

  // Dispatch used by the NetMsgServer when a remote request arrives. No local
  // IPC cost here; transport costs are charged by the caller.
  Async<RpcResult> Dispatch(const std::string& service, uint32_t method, Bytes body,
                            RpcContext ctx);

 private:
  bool recording_history() const { return history_ != nullptr && history_->enabled(); }

  Scheduler& sched_;
  Network& net_;
  SiteId id_;
  IpcConfig ipc_config_;
  SimMutex kernel_;  // The single master-processor run queue (see IpcConfig).
  CostLedger* ledger_ = nullptr;
  HistoryRecorder* history_ = nullptr;
  bool up_ = true;
  uint32_t incarnation_ = 0;
  std::unordered_map<std::string, Handler> services_;
  std::vector<std::function<void()>> crash_listeners_;
};

}  // namespace camelot

#endif  // SRC_IPC_SITE_H_
