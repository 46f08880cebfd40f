// CostLedger: a queryable record of every cost-model primitive the running
// system executes — log forces and spooled appends, datagrams, local IPCs,
// remote RPCs — each tagged {family, site, role, phase, primitive}.
//
// The paper's static analysis (src/analysis) predicts protocol latency as a
// sum of exactly these primitives (Table 2). The ledger is the measured side
// of that equation: the ConformanceOracle (src/harness) diffs the predicted
// primitive-count vector against the ledger after every fault-free protocol
// run, so an extra log force or datagram fails tests instead of silently
// invalidating every reproduced figure.
//
// Components record through their Site (Site::RecordCost), which stamps the
// site id; a site with no ledger installed records nothing. Count vectors
// are keyed "role/phase/primitive", e.g.
//   coord/2pc.commit/force   sub/COMMIT-ACK/dgram   ipc/tranman/call
// Roles "coord", "sub", "acceptor", "takeover" and "peer" describe protocol
// work, recorded by TranMan where the family and role are known; "ipc" the
// local/remote IPC layer. Raw sends and log appends are counted per site by
// NetCounters and LogCounters, not here.
#ifndef SRC_STATS_COST_LEDGER_H_
#define SRC_STATS_COST_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/types.h"

namespace camelot {

// One countable primitive from the paper's Table 2 cost model.
enum class CostPrimitive {
  kLogForce,        // Synchronous log force (15ms in the model).
  kLogSpool,        // Unforced log append (free in the model, counted anyway).
  kDatagram,        // One protocol message to one destination.
  kLocalIpc,        // Local RPC, client-style (1.5ms).
  kLocalIpcServer,  // Local RPC into a data server (3.0ms).
  kLocalOutOfLine,  // Local RPC with out-of-line body (5.5ms).
  kLocalOneway,     // Local one-way notification (1.0ms).
  kRemoteRpc,       // Remote server-to-server RPC (29ms).
};

// Short key suffix: "force", "spool", "dgram", "call", "server_call", "oob",
// "oneway", "rpc".
const char* CostPrimitiveSuffix(CostPrimitive primitive);

struct CostEvent {
  FamilyId family;    // Invalid origin when not attributable to one family.
  SiteId site;
  std::string role;   // "coord", "sub", "acceptor", "takeover", "peer", "ipc", ...
  std::string phase;  // Protocol step ("2pc.commit") or message type ("PREPARE").
  CostPrimitive primitive = CostPrimitive::kLogForce;
};

// Counts keyed "role/phase/primitive-suffix". A std::map so diffs and
// renders are deterministically ordered.
using CountVector = std::map<std::string, int64_t>;

// Merge `add` into `into` (key-wise sum).
void AddCounts(CountVector& into, const CountVector& add);

class CostLedger {
 public:
  void Record(CostEvent event) { events_.push_back(std::move(event)); }
  void Clear() { events_.clear(); }
  size_t size() const { return events_.size(); }
  const std::vector<CostEvent>& events() const { return events_; }

  // Every event: the conformance domain. Unexpected roles (e.g. "takeover"
  // activity during a fault-free run) are deliberately kept so they show up
  // in a diff.
  CountVector Counts() const;
  // Protocol-only view: Counts() minus the IPC layer ("ipc/..."). This is
  // what the explorers gate their discovery runs against.
  CountVector ProtocolCounts() const;

  // "role/phase/primitive-suffix" for one event.
  static std::string Key(const CostEvent& event);

  // Human-readable per-primitive diff; empty string iff the vectors match
  // exactly. Lines look like:
  //   sub/commit/force: predicted 0, measured 1 (+1)
  static std::string Diff(const CountVector& predicted, const CountVector& measured);

  // One "key: count" line per entry, for reports.
  static std::string Render(const CountVector& counts);

 private:
  std::vector<CostEvent> events_;
};

}  // namespace camelot

#endif  // SRC_STATS_COST_LEDGER_H_
