#include "src/ipc/netmsg.h"

#include <utility>

#include "src/base/logging.h"

namespace camelot {

namespace {

constexpr uint32_t kRequestType = 1;
constexpr uint32_t kResponseType = 2;
constexpr size_t kServedCacheLimit = 8192;
constexpr size_t kRetransmitLogLimit = 4096;

struct RequestWire {
  uint64_t rpc_id;
  SiteId caller;
  std::string service;
  uint32_t method;
  bool via_comman;
  Tid tid;
  SimTime deadline;  // Client deadline (absolute virtual time; 0 = none).
  Bytes body;
};

Bytes EncodeRequest(const RequestWire& r) {
  ByteWriter w;
  w.U64(r.rpc_id);
  w.Site(r.caller);
  w.Str(r.service);
  w.U32(r.method);
  w.U8(r.via_comman ? 1 : 0);
  w.Transaction(r.tid);
  w.I64(r.deadline);
  w.Blob(r.body);
  return w.Take();
}

bool DecodeRequest(const Bytes& wire, RequestWire* out) {
  ByteReader r(wire);
  out->rpc_id = r.U64();
  out->caller = r.Site();
  out->service = r.Str();
  out->method = r.U32();
  out->via_comman = r.U8() != 0;
  out->tid = r.Transaction();
  out->deadline = r.I64();
  out->body = r.Blob();
  return r.ok();
}

struct ResponseWire {
  uint64_t rpc_id;
  uint32_t status_code;
  std::string status_msg;
  int64_t handler_us;  // Time spent inside the handler, for RpcTrace.
  Tid tid;
  SiteId responder;
  uint32_t incarnation;  // Responder's incarnation (crash detection).
  Bytes piggyback;  // ComMan site list, opaque to this layer.
  Bytes body;
};

Bytes EncodeResponse(const ResponseWire& r) {
  ByteWriter w;
  w.U64(r.rpc_id);
  w.U32(r.status_code);
  w.Str(r.status_msg);
  w.I64(r.handler_us);
  w.Transaction(r.tid);
  w.Site(r.responder);
  w.U32(r.incarnation);
  w.Blob(r.piggyback);
  w.Blob(r.body);
  return w.Take();
}

bool DecodeResponse(const Bytes& wire, ResponseWire* out) {
  ByteReader r(wire);
  out->rpc_id = r.U64();
  out->status_code = r.U32();
  out->status_msg = r.Str();
  out->handler_us = r.I64();
  out->tid = r.Transaction();
  out->responder = r.Site();
  out->incarnation = r.U32();
  out->piggyback = r.Blob();
  out->body = r.Blob();
  return r.ok();
}

}  // namespace

NetMsgServer::NetMsgServer(Site& site, Network& net)
    : site_(site),
      net_(net),
      rng_(0xa076'1d64'78bd'642fULL ^ (site.id().value * 0xe703'7ed1'a0b4'28dbULL)),
      budget_(site.ipc().rpc_retry_budget_ratio, site.ipc().rpc_retry_budget_cap) {
  net_.Bind(site_.id(), kNetMsgService, [this](Datagram dg) { OnDatagram(std::move(dg)); });
  site_.AddCrashListener([this] {
    // All connection state is volatile: pending callers see closed channels.
    for (auto& [id, call] : pending_) {
      call.reply->Close();
    }
    pending_.clear();
    served_.clear();
    served_order_.clear();
    in_progress_.clear();
  });
}

Async<RpcResult> NetMsgServer::Call(SiteId dst, const std::string& service, uint32_t method,
                                    Bytes body, RpcContext ctx, bool via_comman, RpcTrace* trace) {
  const SimTime start = site_.sched().now();
  const uint32_t inc = site_.incarnation();
  const IpcConfig& ipc = site_.ipc();
  site_.RecordCost(ctx.tid.family, "ipc", via_comman ? "comman" : "netmsg",
                   CostPrimitive::kRemoteRpc);

  // Caller-side ComMan interposition: client->ComMan->NMS instead of client->NMS.
  const SimDuration comman_leg = via_comman
      ? (ipc.comman_cpu_per_site / 2 + ipc.comman_ipc_total / 4)
      : 0;
  if (comman_leg > 0) {
    co_await site_.sched().Delay(comman_leg);
  }

  const uint64_t rpc_id = (static_cast<uint64_t>(site_.id().value) << 40) | next_rpc_id_++;
  RequestWire req{rpc_id, site_.id(), service, method, via_comman, ctx.tid, ctx.deadline,
                  std::move(body)};
  // Encoded once; every retransmit below resends the same shared buffer.
  const SharedBytes wire = EncodeRequest(req);

  auto reply = std::make_shared<Channel<SharedBytes>>(site_.sched());
  pending_[rpc_id] = PendingCall{reply};

  const SimTime deadline = site_.sched().now() + ipc.rpc_timeout;
  std::optional<SharedBytes> raw;
  ++calls_;
  // Budget knobs are re-read per call so harnesses can reconfigure a live
  // site (tokens and counters survive reconfiguration).
  budget_.Configure(ipc.rpc_retry_budget_ratio, ipc.rpc_retry_budget_cap);
  budget_.OnAttempt();
  int attempt = 0;
  while (true) {
    if (!site_.up() || site_.incarnation() != inc) {
      pending_.erase(rpc_id);
      co_return RpcResult{UnavailableError("caller site crashed"), {}};
    }
    if (attempt == 0) {
      net_.Send(Datagram{site_.id(), dst, kNetMsgService, kRequestType, wire});
    } else if (budget_.TryRetry()) {
      ++retransmits_;
      if (retransmit_times_.size() < kRetransmitLogLimit) {
        retransmit_times_.push_back(site_.sched().now());
      }
      net_.Send(Datagram{site_.id(), dst, kNetMsgService, kRequestType, wire});
      CDEBUG("[%8.1fms] %s nms retransmit rpc %llu -> %s", ToMs(site_.sched().now()),
             ToString(site_.id()).c_str(), static_cast<unsigned long long>(rpc_id),
             ToString(dst).c_str());
    }
    const SimDuration wait =
        std::min<SimDuration>(RetryGap(attempt++), deadline - site_.sched().now());
    if (wait <= 0) {
      break;
    }
    raw = co_await reply->ReceiveTimeout(wait);
    if (raw.has_value() || reply->closed()) {
      break;
    }
    if (site_.sched().now() >= deadline) {
      break;
    }
  }
  pending_.erase(rpc_id);

  if (!site_.up() || site_.incarnation() != inc) {
    co_return RpcResult{UnavailableError("caller site crashed"), {}};
  }
  if (!raw.has_value()) {
    co_return RpcResult{TimedOutError("no response from " + ToString(dst)), {}};
  }

  ResponseWire resp;
  if (!DecodeResponse(*raw, &resp)) {
    co_return RpcResult{CorruptionError("bad response wire format"), {}};
  }

  // Caller-side ComMan on the reply path: ingest the piggybacked site list
  // and the responder's incarnation.
  if (via_comman) {
    if (response_ingest_ && resp.tid.IsValid()) {
      response_ingest_(resp.tid, resp.piggyback, resp.responder, resp.incarnation);
    }
    co_await site_.sched().Delay(comman_leg);
  }

  if (trace != nullptr) {
    trace->total = site_.sched().now() - start;
    trace->server = resp.handler_us;
    trace->comman_cpu = via_comman ? 2 * ipc.comman_cpu_per_site : 0;
    trace->comman_ipc = via_comman ? ipc.comman_ipc_total : 0;
    trace->netmsg = trace->total - trace->comman_cpu - trace->comman_ipc - trace->server;
  }

  Status status = resp.status_code == 0
      ? OkStatus()
      : Status(static_cast<StatusCode>(resp.status_code), resp.status_msg);
  co_return RpcResult{std::move(status), std::move(resp.body)};
}

SimDuration NetMsgServer::RetryGap(int attempt) {
  const IpcConfig& ipc = site_.ipc();
  double d = static_cast<double>(ipc.rpc_retry_interval);
  const double cap = static_cast<double>(std::max(ipc.rpc_retry_cap, ipc.rpc_retry_interval));
  for (int i = 0; i < attempt && d < cap; ++i) {
    d *= 2.0;
  }
  d = std::min(d, cap);
  d *= 0.8 + 0.4 * rng_.NextDouble();  // ±20% jitter.
  return std::max<SimDuration>(static_cast<SimDuration>(d), 1);
}

void NetMsgServer::OnDatagram(Datagram dg) {
  if (!site_.up()) {
    return;
  }
  if (dg.type == kRequestType) {
    HandleRequest(std::move(dg.body));
  } else if (dg.type == kResponseType) {
    HandleResponse(std::move(dg.body));
  }
}

void NetMsgServer::HandleRequest(SharedBytes wire) {
  RequestWire req;
  if (!DecodeRequest(wire, &req)) {
    return;
  }
  // Duplicate suppression.
  if (auto it = served_.find(req.rpc_id); it != served_.end()) {
    SendResponse(req.caller, it->second);
    return;
  }
  if (in_progress_.contains(req.rpc_id)) {
    return;  // Original execution will respond.
  }
  in_progress_[req.rpc_id] = true;
  site_.sched().Spawn(RunRequest(req.rpc_id, req.caller, std::move(req.service), req.method,
                                 req.via_comman, req.tid, req.deadline, std::move(req.body)));
}

Async<void> NetMsgServer::RunRequest(uint64_t rpc_id, SiteId caller, std::string service,
                                     uint32_t method, bool via_comman, Tid tid, SimTime deadline,
                                     Bytes body) {
  const uint32_t inc = site_.incarnation();
  const IpcConfig& ipc = site_.ipc();

  // Destination-side ComMan interposition on the request path.
  if (via_comman) {
    if (request_ingest_ && tid.IsValid()) {
      request_ingest_(tid, caller);
    }
    co_await site_.sched().Delay(ipc.comman_cpu_per_site / 2 + ipc.comman_ipc_total / 4);
    if (!site_.up() || site_.incarnation() != inc) {
      co_return;
    }
  }

  const SimTime handler_start = site_.sched().now();
  RpcContext ctx{caller, tid, deadline};
  RpcResult result = co_await site_.Dispatch(service, method, std::move(body), ctx);
  const SimDuration handler_us = site_.sched().now() - handler_start;
  if (!site_.up() || site_.incarnation() != inc) {
    co_return;  // Crashed while processing: no response, caller times out.
  }

  // Destination-side ComMan on the reply path: attach the site list.
  Bytes piggyback;
  if (via_comman) {
    if (response_decorator_ && tid.IsValid()) {
      piggyback = response_decorator_(tid);
    }
    co_await site_.sched().Delay(ipc.comman_cpu_per_site / 2 + ipc.comman_ipc_total / 4);
    if (!site_.up() || site_.incarnation() != inc) {
      co_return;
    }
  }

  ResponseWire resp{rpc_id, static_cast<uint32_t>(result.status.code()), result.status.message(),
                    handler_us, tid, site_.id(), site_.incarnation(), std::move(piggyback),
                    std::move(result.body)};
  // One shared buffer backs the cache entry and the outgoing datagram.
  SharedBytes resp_wire = EncodeResponse(resp);
  in_progress_.erase(rpc_id);
  CacheResponse(rpc_id, resp_wire);
  SendResponse(caller, std::move(resp_wire));
}

void NetMsgServer::SendResponse(SiteId dst, SharedBytes wire) {
  net_.Send(Datagram{site_.id(), dst, kNetMsgService, kResponseType, std::move(wire)});
}

void NetMsgServer::CacheResponse(uint64_t rpc_id, SharedBytes wire) {
  served_[rpc_id] = std::move(wire);
  served_order_.push_back(rpc_id);
  while (served_order_.size() > kServedCacheLimit) {
    served_.erase(served_order_.front());
    served_order_.pop_front();
  }
}

void NetMsgServer::HandleResponse(SharedBytes wire) {
  ByteReader r(wire);
  const uint64_t rpc_id = r.U64();
  if (!r.ok()) {
    return;
  }
  auto it = pending_.find(rpc_id);
  if (it == pending_.end()) {
    return;  // Late or duplicate response.
  }
  it->second.reply->Send(std::move(wire));
  pending_.erase(it);
}

}  // namespace camelot
