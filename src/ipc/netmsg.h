// NetMsgServer: the per-site store-and-forward agent that carries RPCs between
// sites (the Mach network message server of the paper's Section 3.1).
//
// Requests and responses travel as datagrams over the Network; the
// NetMsgServer provides the "reliable connection" illusion by retransmitting
// requests and suppressing duplicates with a response cache. The Communication
// Manager (src/comman) interposes on this path, adding its costs and spying on
// transaction site lists via the decorator hooks below.
#ifndef SRC_IPC_NETMSG_H_
#define SRC_IPC_NETMSG_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/rng.h"
#include "src/ipc/ipc.h"
#include "src/ipc/retry_budget.h"
#include "src/ipc/site.h"
#include "src/net/network.h"
#include "src/sim/channel.h"

namespace camelot {

class NetMsgServer {
 public:
  NetMsgServer(Site& site, Network& net);

  // Synchronous remote RPC. `via_comman` charges the Communication Manager
  // costs on both sites (every Camelot data RPC sets this; see src/comman).
  // Retries until `site.ipc().rpc_timeout`, then fails kTimedOut.
  // `trace`, if non-null, receives the latency attribution.
  Async<RpcResult> Call(SiteId dst, const std::string& service, uint32_t method, Bytes body,
                        RpcContext ctx, bool via_comman, RpcTrace* trace = nullptr);

  // --- ComMan interposition hooks ---------------------------------------------
  // Called at the responding site to produce piggyback data attached to the
  // response (Camelot: the list of sites used to generate the response).
  void set_response_decorator(std::function<Bytes(const Tid&)> fn) {
    response_decorator_ = std::move(fn);
  }
  // Called at the caller when a response (with piggyback data) arrives; also
  // reports which site answered and that site's incarnation, so the ComMan
  // can detect a participant that crashed and restarted mid-transaction.
  void set_response_ingest(
      std::function<void(const Tid&, const Bytes&, SiteId, uint32_t)> fn) {
    response_ingest_ = std::move(fn);
  }
  // Called at the destination when a request on behalf of `tid` arrives from a
  // remote site (Camelot: the destination learns the caller participates).
  void set_request_ingest(std::function<void(const Tid&, SiteId)> fn) {
    request_ingest_ = std::move(fn);
  }

  // --- Retransmit observability -----------------------------------------------
  uint64_t calls() const { return calls_; }
  uint64_t retransmits() const { return retransmits_; }
  uint64_t retransmits_suppressed() const { return budget_.suppressed(); }
  // Virtual times of the most recent retransmits (bounded log), so tests can
  // assert concurrent callers do not retransmit in lockstep waves.
  const std::vector<SimTime>& retransmit_times() const { return retransmit_times_; }

 private:
  struct PendingCall {
    std::shared_ptr<Channel<SharedBytes>> reply;  // Raw response wire bytes.
  };

  void OnDatagram(Datagram dg);
  void HandleRequest(SharedBytes wire);
  void HandleResponse(SharedBytes wire);
  Async<void> RunRequest(uint64_t rpc_id, SiteId caller, std::string service, uint32_t method,
                         bool via_comman, Tid tid, SimTime deadline, Bytes body);
  void SendResponse(SiteId dst, SharedBytes wire);
  void CacheResponse(uint64_t rpc_id, SharedBytes wire);

  // Next retransmit gap for `attempt` (0-based): capped jittered exponential
  // backoff, mirroring TranMan::Backoff.
  SimDuration RetryGap(int attempt);

  Site& site_;
  Network& net_;
  // Backoff jitter draws come from a per-site rng (NOT the shared scheduler
  // rng) so adding a retransmit never perturbs unrelated draws.
  Rng rng_;
  RetryBudget budget_;
  uint64_t calls_ = 0;
  uint64_t retransmits_ = 0;
  std::vector<SimTime> retransmit_times_;
  uint64_t next_rpc_id_ = 1;
  std::unordered_map<uint64_t, PendingCall> pending_;
  // Duplicate suppression: rpc_id -> cached response wire (bounded FIFO).
  // Shared buffers: re-serving a duplicate resends the cached wire without
  // copying it.
  std::unordered_map<uint64_t, SharedBytes> served_;
  std::deque<uint64_t> served_order_;
  std::unordered_map<uint64_t, bool> in_progress_;
  std::function<Bytes(const Tid&)> response_decorator_;
  std::function<void(const Tid&, const Bytes&, SiteId, uint32_t)> response_ingest_;
  std::function<void(const Tid&, SiteId)> request_ingest_;
};

}  // namespace camelot

#endif  // SRC_IPC_NETMSG_H_
