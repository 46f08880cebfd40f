#include "src/ipc/site.h"

#include "src/base/logging.h"

namespace camelot {

namespace {

// "server:3" and "server:7" are the same kind of IPC target; the ledger keys
// by the service family, not the instance.
std::string_view ServicePhase(std::string_view service) {
  return service.substr(0, service.find(':'));
}

}  // namespace

Site::Site(Scheduler& sched, Network& net, SiteId id, IpcConfig ipc_config)
    : sched_(sched), net_(net), id_(id), ipc_config_(ipc_config), kernel_(sched) {
  net_.RegisterSite(id_);
}

void Site::RecordCost(const FamilyId& family, std::string_view role, std::string_view phase,
                      CostPrimitive primitive) {
  if (ledger_ != nullptr) {
    ledger_->Record(CostEvent{family, id_, std::string(role), std::string(phase), primitive});
  }
}

void Site::RecordOutcome(const FamilyId& family, bool committed) {
  if (recording_history()) {
    history_->Record(HistoryEvent{committed ? HistoryOp::kCommit : HistoryOp::kAbort,
                                  sched_.now(), id_, Tid{family, 0, 0}, std::string(),
                                  std::string(), Bytes()});
  }
}

void Site::Crash() {
  if (!up_) {
    return;
  }
  up_ = false;
  net_.CrashSite(id_);
  CTRACE("[%8.1fms] %s CRASH", ToMs(sched_.now()), ToString(id_).c_str());
  // Listeners close mailboxes and discard volatile state.
  for (auto& fn : crash_listeners_) {
    fn();
  }
}

void Site::Restart() {
  if (up_) {
    return;
  }
  up_ = true;
  ++incarnation_;
  net_.RestartSite(id_);
  CTRACE("[%8.1fms] %s RESTART (incarnation %u)", ToMs(sched_.now()), ToString(id_).c_str(),
         incarnation_);
}

void Site::RegisterService(const std::string& name, Handler handler) {
  services_[name] = std::move(handler);
}

Async<RpcResult> Site::CallLocal(const std::string& service, uint32_t method, Bytes body,
                                 RpcContext ctx, bool to_data_server) {
  if (!up_) {
    co_return RpcResult{UnavailableError("site down"), {}};
  }
  SimDuration cost = to_data_server ? ipc_config_.local_rpc_server : ipc_config_.local_rpc;
  CostPrimitive primitive =
      to_data_server ? CostPrimitive::kLocalIpcServer : CostPrimitive::kLocalIpc;
  if (body.size() >= ipc_config_.out_of_line_threshold) {
    cost = ipc_config_.local_out_of_line;
    primitive = CostPrimitive::kLocalOutOfLine;
  }
  RecordCost(ctx.tid.family, "ipc", ServicePhase(service), primitive);
  const uint32_t inc = incarnation_;
  co_await sched_.Delay(cost / 2);  // Request transfer.
  if (!up_ || incarnation_ != inc) {
    co_return RpcResult{UnavailableError("site crashed during call"), {}};
  }
  RpcResult result = co_await Dispatch(service, method, std::move(body), ctx);
  co_await sched_.Delay(cost - cost / 2);  // Reply transfer.
  if (!up_ || incarnation_ != inc) {
    co_return RpcResult{UnavailableError("site crashed during call"), {}};
  }
  co_return result;
}

namespace {

Async<void> RunOneWay(Site* site, std::string service, uint32_t method, Bytes body, RpcContext ctx,
                      SimDuration delay, uint32_t inc) {
  co_await site->sched().Delay(delay);
  if (!site->up() || site->incarnation() != inc) {
    co_return;
  }
  co_await site->Dispatch(service, method, std::move(body), ctx);
}

}  // namespace

void Site::NotifyLocal(const std::string& service, uint32_t method, Bytes body, RpcContext ctx) {
  if (!up_) {
    return;
  }
  RecordCost(ctx.tid.family, "ipc", ServicePhase(service), CostPrimitive::kLocalOneway);
  sched_.Spawn(RunOneWay(this, service, method, std::move(body), ctx, ipc_config_.local_oneway,
                         incarnation_));
}

Async<RpcResult> Site::Dispatch(const std::string& service, uint32_t method, Bytes body,
                                RpcContext ctx) {
  if (!up_) {
    co_return RpcResult{UnavailableError("site down"), {}};
  }
  auto it = services_.find(service);
  if (it == services_.end()) {
    co_return RpcResult{NotFoundError("no such service: " + service), {}};
  }
  // Copy the handler: a crash/restart may rebuild the registry mid-call.
  Handler handler = it->second;
  if (ipc_config_.kernel_cpu_per_ipc > 0) {
    // All message dispatch funnels through one kernel processor. The cost is
    // exponentially distributed around the configured mean: kernel work is
    // bursty, and that burstiness is what de-phases concurrent transactions.
    co_await kernel_.Lock();
    co_await sched_.Delay(static_cast<SimDuration>(
        sched_.rng().NextExponential(static_cast<double>(ipc_config_.kernel_cpu_per_ipc))));
    kernel_.Unlock();
    if (!up_) {
      co_return RpcResult{UnavailableError("site down"), {}};
    }
  }
  RpcResult result = co_await handler(ctx, method, std::move(body));
  co_return result;
}

}  // namespace camelot
