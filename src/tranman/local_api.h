// The local RPC protocol spoken between applications, data servers, and the
// transaction manager on one site (Figure 1 of the paper). This header defines
// method numbers, payload encodings and the commit-variant names only; it
// creates no link dependency on the tranman library.
#ifndef SRC_TRANMAN_LOCAL_API_H_
#define SRC_TRANMAN_LOCAL_API_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/codec.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/wal/log_record.h"  // CommitProtocol.

namespace camelot {

// Every site's transaction manager registers under this service name.
inline constexpr char kTranManServiceName[] = "tranman";

// --- Transaction manager methods (application- and server-facing) -------------
enum TmMethod : uint32_t {
  kTmBegin = 1,   // {Transaction parent?}            -> {Transaction tid}
  kTmCommit = 2,  // {Transaction, CommitOptions}     -> status only
  kTmAbort = 3,   // {Transaction}                    -> status only
  kTmJoin = 4,    // {Transaction, Str server_name}   -> status only (server -> TranMan)
  // Remote TranMan-to-TranMan control (sent via NetMsgServer RPC, not datagrams,
  // because they are off the commit critical path):
  kTmNestedCommitRemote = 10,  // {Transaction child, Transaction parent} -> status
  kTmAbortSubtreeRemote = 11,  // {Transaction top, U32 n, n x U32 serials} -> status
  kTmQueryStatus = 12,         // {Transaction} -> {U8 TmTxnState} (orphan probing)
};

// The commitment protocol variant requested on commit-transaction. The paper's
// Section 3.2 optimization corresponds to {force_subordinate_commit = false,
// piggyback_commit_ack = true}; the unoptimized baseline is {true, false}; the
// dissected intermediate is {true, true}.
struct CommitOptions {
  CommitProtocol protocol = CommitProtocol::kTwoPhase;
  bool force_subordinate_commit = false;
  bool piggyback_commit_ack = true;
  // Paxos Commit fault tolerance: the protocol places min(2F+1, participants)
  // acceptors (clamped odd) on the participant sites, coordinator first. F=0
  // degenerates to exactly the optimized two-phase protocol.
  uint32_t paxos_f = 0;

  static CommitOptions Optimized() { return {CommitProtocol::kTwoPhase, false, true, 0}; }
  static CommitOptions Unoptimized() { return {CommitProtocol::kTwoPhase, true, false, 0}; }
  static CommitOptions Intermediate() { return {CommitProtocol::kTwoPhase, true, true, 0}; }
  static CommitOptions NonBlocking() { return {CommitProtocol::kNonBlocking, false, true, 0}; }
  static CommitOptions Paxos(uint32_t f) { return {CommitProtocol::kPaxos, false, true, f}; }
};

// Paxos Commit's acceptor count for a family with `subordinates` remote
// participants: min(2F+1, subordinates+1), made odd so that quorums are
// strict majorities. Computed in 64 bits, so it holds for every F.
inline int PaxosAcceptorCount(uint32_t f, int subordinates) {
  const int64_t a = std::min<int64_t>(2 * int64_t{f} + 1, int64_t{subordinates} + 1);
  return static_cast<int>(a % 2 == 0 ? a - 1 : a);
}

// The commit variants' names, shared by replay recipes and the model checker:
// "2pc" (Optimized), "2pc-unopt" (Unoptimized), "2pc-int" (Intermediate),
// "nbc" (NonBlocking), "paxos" (Paxos Commit; the name does not carry F, and
// ParseProtocolName gives F=1, the smallest non-degenerate acceptor set).
inline std::string ProtocolName(const CommitOptions& options) {
  if (options.protocol == CommitProtocol::kPaxos) {
    return "paxos";
  }
  if (options.protocol == CommitProtocol::kNonBlocking) {
    return "nbc";
  }
  if (options.force_subordinate_commit) {
    return options.piggyback_commit_ack ? "2pc-int" : "2pc-unopt";
  }
  return "2pc";
}

inline Result<CommitOptions> ParseProtocolName(std::string_view name) {
  if (name == "2pc") {
    return CommitOptions::Optimized();
  }
  if (name == "2pc-unopt") {
    return CommitOptions::Unoptimized();
  }
  if (name == "2pc-int") {
    return CommitOptions::Intermediate();
  }
  if (name == "nbc") {
    return CommitOptions::NonBlocking();
  }
  if (name == "paxos") {
    return CommitOptions::Paxos(1);
  }
  return InvalidArgumentError("unknown protocol name: " + std::string(name));
}

inline Bytes EncodeBeginRequest(const Tid& parent) {
  ByteWriter w;
  w.Transaction(parent);
  return w.Take();
}

inline Bytes EncodeCommitRequest(const Tid& tid, const CommitOptions& options) {
  ByteWriter w;
  w.Transaction(tid);
  w.U8(static_cast<uint8_t>(options.protocol));
  w.U8(options.force_subordinate_commit ? 1 : 0);
  w.U8(options.piggyback_commit_ack ? 1 : 0);
  w.U32(options.paxos_f);
  return w.Take();
}

inline Bytes EncodeTidOnly(const Tid& tid) {
  ByteWriter w;
  w.Transaction(tid);
  return w.Take();
}

inline Bytes EncodeJoinRequest(const Tid& tid, const std::string& server_name) {
  ByteWriter w;
  w.Transaction(tid);
  w.Str(server_name);
  return w.Take();
}

// --- Data server methods --------------------------------------------------------
enum ServerMethod : uint32_t {
  // Client-facing operations.
  kSrvRead = 1,    // {Transaction, Str object}              -> {Blob value}
  kSrvWrite = 2,   // {Transaction, Str object, Blob value}  -> status only
  kSrvCreate = 3,  // {Transaction, Str object, Blob value}  -> status only

  // TranMan-facing transaction management upcalls.
  kSrvVote = 10,          // {Transaction top}              -> {U8 ServerVote}
  kSrvCommitFamily = 11,  // {Transaction top}              -> status (drop locks)
  kSrvAbortFamily = 12,   // {Transaction top}              -> status (undo + drop locks)
  kSrvNestedCommit = 13,  // {Transaction child, Transaction parent} -> status
  kSrvAbortSubtree = 14,  // {Transaction top, U32 n, n x U32 serials} -> status
};

enum class ServerVote : uint8_t {
  kNo = 0,        // Refuse to commit (forces abort).
  kUpdate = 1,    // Prepared; transaction wrote here.
  kReadOnly = 2,  // Participated read-only; no second phase needed.
};

inline Bytes EncodeObjectRequest(const Tid& tid, const std::string& object) {
  ByteWriter w;
  w.Transaction(tid);
  w.Str(object);
  return w.Take();
}

inline Bytes EncodeWriteRequest(const Tid& tid, const std::string& object, const Bytes& value) {
  ByteWriter w;
  w.Transaction(tid);
  w.Str(object);
  w.Blob(value);
  return w.Take();
}

inline Bytes EncodeNestedCommitRequest(const Tid& child, const Tid& parent) {
  ByteWriter w;
  w.Transaction(child);
  w.Transaction(parent);
  return w.Take();
}

inline Bytes EncodeAbortSubtreeRequest(const Tid& top, const std::vector<uint32_t>& serials) {
  ByteWriter w;
  w.Transaction(top);
  w.U32(static_cast<uint32_t>(serials.size()));
  for (uint32_t s : serials) {
    w.U32(s);
  }
  return w.Take();
}

// Helpers for int64-valued objects (bank balances, counters, ...).
inline Bytes EncodeInt64(int64_t v) {
  ByteWriter w;
  w.I64(v);
  return w.Take();
}

inline int64_t DecodeInt64(const Bytes& b) {
  ByteReader r(b);
  return r.I64();
}

}  // namespace camelot

#endif  // SRC_TRANMAN_LOCAL_API_H_
