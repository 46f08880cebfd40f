// IPC cost model and common RPC types.
//
// All costs default to the paper's Table 2 / Section 4.1 measurements of Mach
// 2.0 on the IBM RT PC. Round-trip costs are split evenly between the request
// and reply directions when applied.
#ifndef SRC_IPC_IPC_H_
#define SRC_IPC_IPC_H_

#include <cstdint>
#include <string>

#include "src/base/codec.h"
#include "src/base/status.h"
#include "src/base/types.h"

namespace camelot {

struct IpcConfig {
  // Synchronous local call+reply between Camelot system processes (Table 2: 1.5 ms).
  SimDuration local_rpc = Usec(1500);
  // Synchronous local call+reply into a data server (Table 2: 3 ms).
  SimDuration local_rpc_server = Usec(3000);
  // One-way local in-line message (Table 2: 1 ms).
  SimDuration local_oneway = Usec(1000);
  // Local IPC carrying out-of-line (lazily mapped) data (Table 2: 5.5 ms).
  SimDuration local_out_of_line = Usec(5500);
  // Payloads at or above this size use out-of-line transfer.
  size_t out_of_line_threshold = 1024;

  // Base NetMsgServer-to-NetMsgServer RPC round trip (Section 4.1: 19.1 ms).
  SimDuration netmsg_rpc = Usec(19100);
  // ComMan <-> NetMsgServer IPC, round trip across both sites (Section 4.1: 2 x 1.5 ms).
  SimDuration comman_ipc_total = Usec(3000);
  // ComMan CPU per call at EACH site (Section 4.1: 3.2 ms per site).
  SimDuration comman_cpu_per_site = Usec(3200);

  // How long a remote RPC waits for its response before failing kTimedOut.
  SimDuration rpc_timeout = Sec(3.0);
  // Retransmit gaps while waiting: the first gap is rpc_retry_interval, then
  // capped jittered exponential backoff (x2 per attempt, ±20%, capped at
  // rpc_retry_cap) — fixed-interval retransmits from many callers march in
  // lockstep and re-lose together on a congested link.
  SimDuration rpc_retry_interval = Usec(500000);
  SimDuration rpc_retry_cap = Sec(2.0);
  // Token-bucket budget for retransmits: each fresh Call earns
  // rpc_retry_budget_ratio tokens (capped at rpc_retry_budget_cap); each
  // retransmit spends one. When empty, the caller keeps waiting without
  // resending, so retransmits cannot amplify offered load during overload.
  // ratio <= 0 (the default) = unlimited.
  double rpc_retry_budget_ratio = 0.0;
  double rpc_retry_budget_cap = 0.0;

  // Kernel CPU consumed per dispatched message, serialized on ONE processor.
  // Models the paper's Mach 2.0 "single run queue on one master processor";
  // 0 disables the bottleneck (the default for latency experiments, where one
  // transaction runs at a time and queueing never occurs).
  SimDuration kernel_cpu_per_ipc = 0;
};

// Per-call latency attribution, for the Section 4.1 breakdown bench.
struct RpcTrace {
  SimDuration netmsg = 0;      // Base NMS transport (both directions).
  SimDuration comman_ipc = 0;  // ComMan<->NMS hops.
  SimDuration comman_cpu = 0;  // ComMan processing.
  SimDuration server = 0;      // Time inside the remote handler.
  SimDuration total = 0;
};

// Context visible to an RPC handler.
struct RpcContext {
  SiteId caller_site = kInvalidSite;
  Tid tid = kInvalidTid;  // Transaction on whose behalf the call is made (may be invalid).
  // Client deadline (absolute virtual time; 0 = none), propagated on the wire
  // so servers can shed work that is already past the point of usefulness.
  SimTime deadline = 0;
};

// An RPC response: status code plus payload bytes.
struct RpcResult {
  Status status;
  Bytes body;
};

}  // namespace camelot

#endif  // SRC_IPC_IPC_H_
