#include "src/analysis/static_analysis.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace camelot {

double PathAnalysis::TotalMs() const {
  double total = 0;
  for (const auto& ev : events) {
    total += ev.ms;
  }
  return total;
}

std::string PathAnalysis::Formula() const {
  int forces = 0;
  int datagrams = 0;
  int rpcs = 0;
  double local = 0;
  for (const auto& ev : events) {
    if (ev.name.find("log force") != std::string::npos) {
      ++forces;
    } else if (ev.name.find("datagram") != std::string::npos) {
      ++datagrams;
    } else if (ev.name.find("remote op") != std::string::npos) {
      ++rpcs;
    } else {
      local += ev.ms;
    }
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%d LF + %d DG + %d RPC + %.1fms local", forces, datagrams,
                rpcs, local);
  return buf;
}

double OperationProcessingMs(int subordinates, const PrimitiveCosts& costs) {
  return (costs.local_ipc_server + costs.get_lock) + subordinates * costs.remote_rpc;
}

namespace {

// The shared front of every minimal transaction: begin, the (serial)
// operations at each site, and the commit call with the local vote.
void FrontEvents(PathAnalysis* path, TxnKind kind, int subordinates,
                 const PrimitiveCosts& c) {
  (void)kind;
  path->events.push_back({"begin-transaction (local IPC)", c.local_ipc});
  path->events.push_back({"local operation (IPC to server)", c.local_ipc_server});
  path->events.push_back({"join-transaction (local IPC)", c.local_ipc});
  path->events.push_back({"get lock", c.get_lock});
  for (int i = 0; i < subordinates; ++i) {
    path->events.push_back({"remote op " + std::to_string(i + 1), c.remote_rpc});
  }
  path->events.push_back({"commit-transaction call (local IPC)", c.local_ipc});
  path->events.push_back({"vote local server (local IPC)", c.local_ipc});
}

// Acceptor-set sizing: min(2F+1, participants), clamped odd so quorums are
// strict majorities of the set. The runtime and the spec share
// PaxosAcceptorCount (local_api.h); this hand copy stays independent of it,
// so the conformance gate checks that one against the hand analysis.
int64_t HandAcceptorCount(uint32_t paxos_f, int64_t subordinates) {
  int64_t a = std::min<int64_t>(2 * static_cast<int64_t>(paxos_f) + 1, subordinates + 1);
  if (a % 2 == 0) {
    --a;
  }
  return a;
}

}  // namespace

PathAnalysis CompletionPath(const CommitOptions& options, TxnKind kind, int subordinates,
                            const PrimitiveCosts& c) {
  if (options.protocol != CommitProtocol::kPaxos) {
    return CompletionPath(options.protocol, kind, subordinates, c);
  }
  if (HandAcceptorCount(options.paxos_f, subordinates) <= 1) {
    // Gray & Lamport's degenerate case: F = 0 Paxos Commit IS the optimized
    // two-phase protocol, path for path.
    return CompletionPath(CommitProtocol::kTwoPhase, kind, subordinates, c);
  }
  PathAnalysis path;
  FrontEvents(&path, kind, subordinates, c);
  // Read-only transactions skip the prepare force, the accept round, and the
  // notify phase entirely (same shape as the other protocols).
  if (kind == TxnKind::kRead) {
    path.events.push_back({"prepare datagram", c.datagram});
    path.events.push_back({"subordinate vote (local IPC)", c.local_ipc});
    path.events.push_back({"vote datagram", c.datagram});
    return path;
  }
  // Votes fan to the whole acceptor set and the ballot-0 accepts proceed in
  // parallel, so F never appears in the path length. The commit record is only
  // spooled: F+1 durable accepts already carry the decision, which is how
  // Paxos Commit undercuts NBC by one force and one datagram.
  path.events.push_back({"coordinator prepare log force", c.log_force});
  path.events.push_back({"prepare datagram", c.datagram});
  path.events.push_back({"subordinate vote (local IPC)", c.local_ipc});
  path.events.push_back({"subordinate prepare log force", c.log_force});
  path.events.push_back({"vote datagram", c.datagram});
  path.events.push_back({"acceptor accept log force", c.log_force});
  path.events.push_back({"accepted datagram", c.datagram});
  return path;
}

PathAnalysis CompletionPath(CommitProtocol protocol, TxnKind kind, int subordinates,
                            const PrimitiveCosts& c) {
  if (protocol == CommitProtocol::kPaxos) {
    // Protocol-only callers get the smallest non-degenerate registrar (F = 1).
    return CompletionPath(CommitOptions::Paxos(1), kind, subordinates, c);
  }
  PathAnalysis path;
  FrontEvents(&path, kind, subordinates, c);

  if (subordinates == 0) {
    if (kind == TxnKind::kWrite) {
      path.events.push_back({"commit log force", c.log_force});
    }
    return path;
  }

  if (protocol == CommitProtocol::kTwoPhase) {
    path.events.push_back({"prepare datagram", c.datagram});
    path.events.push_back({"subordinate vote (local IPC)", c.local_ipc});
    if (kind == TxnKind::kWrite) {
      path.events.push_back({"subordinate prepare log force", c.log_force});
    }
    path.events.push_back({"vote datagram", c.datagram});
    if (kind == TxnKind::kWrite) {
      path.events.push_back({"coordinator commit log force", c.log_force});
    }
    return path;
  }

  // Non-blocking commitment. Read-only transactions skip the coordinator
  // prepare, replication, and notify phases entirely (same shape as 2PC).
  if (kind == TxnKind::kRead) {
    path.events.push_back({"prepare datagram", c.datagram});
    path.events.push_back({"subordinate vote (local IPC)", c.local_ipc});
    path.events.push_back({"vote datagram", c.datagram});
    return path;
  }
  path.events.push_back({"coordinator prepare log force", c.log_force});
  path.events.push_back({"prepare datagram", c.datagram});
  path.events.push_back({"subordinate vote (local IPC)", c.local_ipc});
  path.events.push_back({"subordinate prepare log force", c.log_force});
  path.events.push_back({"vote datagram", c.datagram});
  path.events.push_back({"replicate datagram", c.datagram});
  path.events.push_back({"subordinate replication log force", c.log_force});
  path.events.push_back({"replicate-ack datagram", c.datagram});
  path.events.push_back({"coordinator commit log force", c.log_force});
  return path;
}

CountVector ExpectedProtocolCounts(const CommitOptions& options, int update_subs,
                                   int readonly_subs, bool local_updates, TxnOutcome outcome) {
  CountVector counts;
  const int64_t u = update_subs;
  const int64_t r = readonly_subs;
  const int64_t s = u + r;
  auto add = [&counts](const char* key, int64_t n) {
    if (n > 0) {
      counts[key] += n;
    }
  };

  if (outcome == TxnOutcome::kAbort) {
    // Client abort before any prepare: one unforced abort record per
    // participant, one ABORT datagram per subordinate, no acks (presumed
    // abort), no forwards (each subordinate only knows the coordinator).
    add("coord/abort/spool", 1);
    add("coord/ABORT/dgram", s);
    add("sub/abort/spool", s);
    return counts;
  }

  if (s == 0) {
    // Local-only commit: one force iff anything was written.
    add("coord/local.commit/force", local_updates ? 1 : 0);
    return counts;
  }

  if (options.protocol == CommitProtocol::kPaxos) {
    const int64_t a = HandAcceptorCount(options.paxos_f, s);
    if (a <= 1) {
      // F_eff = 0: Gray & Lamport's theorem — Paxos Commit with a single
      // acceptor is EXACTLY the optimized two-phase protocol, count for count.
      return ExpectedProtocolCounts(CommitOptions::Optimized(), update_subs, readonly_subs,
                                    local_updates, outcome);
    }
    // Phase 1: prepare fan-out; every yes vote fans to the whole acceptor set
    // (the first `a` participant sites, coordinator first) minus its sender.
    add("coord/PREPARE/dgram", s);
    add("coord/paxos.prepare/force", local_updates ? 1 : 0);
    add("coord/VOTE/dgram", a - 1);
    add("sub/VOTE/dgram", s * a - (a - 1));
    add("sub/prepare/force", u);
    if (u == 0 && !local_updates) {
      // Entirely read-only: trivially committed, no accept round. The
      // lingering read-only acceptors are told the outcome and ack their
      // tombstones (the acks land on the retired family).
      add("coord/COMMIT/dgram", a - 1);
      add("sub/COMMIT-ACK/dgram", a - 1);
      return counts;
    }
    // Ballot-0 accepts: every acceptor forces one batched accept record; the
    // remote ones report theirs to the leader.
    add("acceptor/paxos.accept/force", a);
    add("acceptor/PAXOS-ACCEPTED/dgram", a - 1);
    // Commit point: spooled, never forced — F+1 durable accepts carry the
    // decision across any F crashes.
    add("coord/paxos.commit/spool", 1);
    // Notify phase: update subordinates plus the read-only remote acceptors
    // (update sites are assumed to occupy the front of the site list, which is
    // join order — how every harness workload builds it).
    const int64_t ro_acceptors = std::min(r, std::max<int64_t>(0, (a - 1) - u));
    add("coord/COMMIT/dgram", u + ro_acceptors);
    add("sub/COMMIT-ACK/dgram", u + ro_acceptors);
    add("sub/commit/spool", u);
    add("sub/ack/force", u);
    add("coord/end/spool", 1);
    return counts;
  }

  // Phase 1 is shared: prepare fan-out, one vote each, a prepare force at
  // every update subordinate (read-only voters write nothing).
  add("coord/PREPARE/dgram", s);
  add("sub/VOTE/dgram", s);
  add("sub/prepare/force", u);

  if (options.protocol == CommitProtocol::kTwoPhase) {
    if (u == 0 && !local_updates) {
      return counts;  // Entirely read-only: no commit record, no phase 2.
    }
    add("coord/2pc.commit/force", 1);
    add("coord/end/spool", 1);
    add("coord/COMMIT/dgram", u);
    add("sub/COMMIT-ACK/dgram", u);
    if (options.force_subordinate_commit) {
      add("sub/commit/force", u);
      // The intermediate variant forces AND delays the ack behind an ack
      // force; the unoptimized baseline acks immediately after its force.
      add("sub/ack/force", options.piggyback_commit_ack ? u : 0);
    } else {
      // Section 3.2: the subordinate spools its commit record and forces
      // only before the (delayed, piggybacked) ack.
      add("sub/commit/spool", u);
      add("sub/ack/force", u);
    }
    return counts;
  }

  // Non-blocking commitment.
  if (u == 0) {
    // Every subordinate read-only: the local commit record alone decides;
    // passive acceptors are told the outcome and ack their tombstones.
    add("coord/local.commit/force", local_updates ? 1 : 0);
    add("coord/COMMIT/dgram", s);
    add("sub/COMMIT-ACK/dgram", s);
    return counts;
  }
  add("coord/nbc.prepare/force", local_updates ? 1 : 0);
  add("coord/nbc.replicate/force", 1);
  // Replication targets: the update subordinates, widened to the read-only
  // pool when the update sites (plus the coordinator) cannot form the quorum.
  const int64_t n = s + 1;
  const int64_t commit_quorum = n / 2 + 1;
  const int64_t targets = (u + 1 >= commit_quorum) ? u : s;
  add("coord/REPLICATE/dgram", targets);
  add("sub/accept.replicate/force", targets);
  add("sub/REPLICATE-ACK/dgram", targets);
  add("coord/nbc.commit/force", 1);
  // Notify phase covers every subordinate: update subs spool + ack-force,
  // passive acceptors ack immediately.
  add("coord/COMMIT/dgram", s);
  add("sub/COMMIT-ACK/dgram", s);
  add("sub/commit/spool", u);
  add("sub/ack/force", u);
  add("coord/end/spool", 1);
  return counts;
}

CountVector ExpectedMinimalTxnCounts(const CommitOptions& options, TxnKind kind,
                                     int subordinates, TxnOutcome outcome) {
  const int64_t s = subordinates;
  const bool write = kind == TxnKind::kWrite;
  CountVector counts = ExpectedProtocolCounts(options, write ? subordinates : 0,
                                              write ? 0 : subordinates, write, outcome);
  auto add = [&counts](const char* key, int64_t n) {
    if (n > 0) {
      counts[key] += n;
    }
  };
  // Begin + one join per participating site + the commit (or abort) call.
  add("ipc/tranman/call", s + 3);
  // The coordinator's own operation is a local data-server IPC; each
  // subordinate operation is one ComMan-mediated remote RPC.
  add("ipc/server/server_call", 1);
  add("ipc/comman/rpc", s);
  if (outcome == TxnOutcome::kCommit) {
    // One local vote upcall per site, one drop-locks one-way per site.
    add("ipc/server/call", s + 1);
    add("ipc/server/oneway", s + 1);
  } else {
    // Abort: no votes; each site's abort-family call undoes and drops locks.
    add("ipc/server/call", s + 1);
  }
  return counts;
}

namespace {

void AppendCriticalTail(PathAnalysis* path, TxnKind kind, int subordinates,
                        const PrimitiveCosts& c) {
  if (subordinates == 0) {
    path->events.push_back({"drop-locks call (local one-way)", c.local_oneway});
    path->events.push_back({"drop lock", c.drop_lock});
    return;
  }
  if (kind == TxnKind::kWrite) {
    path->events.push_back({"commit datagram", c.datagram});
    path->events.push_back({"subordinate drop-locks call (local one-way)", c.local_oneway});
    path->events.push_back({"drop lock", c.drop_lock});
  } else {
    path->events.push_back({"drop-locks call (local one-way)", c.local_oneway});
    path->events.push_back({"drop lock", c.drop_lock});
  }
}

}  // namespace

PathAnalysis CriticalPath(const CommitOptions& options, TxnKind kind, int subordinates,
                          const PrimitiveCosts& c) {
  PathAnalysis path = CompletionPath(options, kind, subordinates, c);
  AppendCriticalTail(&path, kind, subordinates, c);
  return path;
}

PathAnalysis CriticalPath(CommitProtocol protocol, TxnKind kind, int subordinates,
                          const PrimitiveCosts& c) {
  PathAnalysis path = CompletionPath(protocol, kind, subordinates, c);
  if (subordinates == 0) {
    path.events.push_back({"drop-locks call (local one-way)", c.local_oneway});
    path.events.push_back({"drop lock", c.drop_lock});
    return path;
  }
  if (kind == TxnKind::kWrite) {
    // "The length of the completion path is one datagram shorter for both
    // protocols": the outcome notification to the subordinates.
    path.events.push_back({"commit datagram", c.datagram});
    path.events.push_back({"subordinate drop-locks call (local one-way)", c.local_oneway});
    path.events.push_back({"drop lock", c.drop_lock});
  } else {
    // Read-only subordinates drop their (read) locks when they vote; only the
    // local read locks remain until the call returns.
    path.events.push_back({"drop-locks call (local one-way)", c.local_oneway});
    path.events.push_back({"drop lock", c.drop_lock});
  }
  return path;
}

}  // namespace camelot
