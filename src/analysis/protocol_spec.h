// Declarative commit-protocol specifications.
//
// Each commit variant (optimized / unoptimized / intermediate two-phase,
// non-blocking, Paxos Commit) is expressed as a table of guarded transition
// rules over a small abstract machine: processes with volatile state plus an
// abstract durable log (Force advances the durable prefix, Spool merely
// appends), and a persistent message SET for the network (sends are
// idempotent, delivery never removes a message — duplication and reordering
// come for free; an explicit bounded "lose" move models permanent loss).
//
// The same spec serves three masters:
//   1. The explicit-state model checker (model_checker.h) explores every
//      interleaving of rule firings plus bounded crash / loss / no-vote
//      choices and checks named safety invariants.
//   2. FoldFaultFree() deterministically runs the spec along the fault-free
//      path and emits the CountVector of forces / spools / datagrams, keyed
//      exactly like the CostLedger, so the spec-derived counts can be
//      asserted equal to the hand-written ExpectedProtocolCounts and to the
//      runtime ledger — three independent derivations that must agree.
//   3. SpecKnobs expose deliberate weakenings (drop a force, weaken a
//      quorum, skip a promise check) so a seeded mutation suite can prove
//      the checker actually kills buggy specs.
//
// A variant's rule table composes the coordinator's shared vote-phase steps
// (CoordinatorStart, CoordinatorVoteRecord, AbortOnNoVote and
// VoteTimeoutAbort in protocol_spec.cc) with the rules only it has, so a new
// variant writes only what it does differently. Rule names and each
// variant's rule order are part of the explored state space: ForEachSuccessor
// enumerates moves rule by rule, and the checker's digests and violation
// reports pin both.
//
// Modeling notes, where the spec is deliberately more abstract than the
// runtime: transitions are atomic (a crash lands between rule firings, never
// between a force and the send in the same rule — rules that force and then
// fan out are split so that window is explorable); takeover promises are
// durable here (the runtime keeps volatile orphan promises and compensates
// with coordinator-defer, see DESIGN.md "Protocol model checking").
#ifndef SRC_ANALYSIS_PROTOCOL_SPEC_H_
#define SRC_ANALYSIS_PROTOCOL_SPEC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/analysis/static_analysis.h"  // TxnOutcome.
#include "src/stats/cost_ledger.h"
#include "src/tranman/local_api.h"

namespace camelot {

// --- Scenario and mutation knobs ---------------------------------------------

// One cell of the conformance matrix: which variant, how many update /
// read-only subordinates, whether the coordinator's own site wrote, and
// whether the client commits or aborts.
struct SpecScenario {
  CommitOptions options;
  int update_subs = 0;
  int readonly_subs = 0;
  bool local_updates = true;
  TxnOutcome outcome = TxnOutcome::kCommit;

  int subs() const { return update_subs + readonly_subs; }
  int procs() const { return subs() + 1; }  // Coordinator is proc 0.
  std::string Label() const;
};

// Deliberate spec weakenings. The default-constructed knobs ARE the faithful
// protocol; each flag below removes one safety ingredient so the mutation
// suite can assert the checker names the resulting violation.
struct SpecKnobs {
  bool force_coordinator_commit = true;   // 2PC commit record forced (not spooled).
  bool force_subordinate_prepare = true;  // Update sub forces its prepare record.
  bool force_subordinate_ack = true;      // Delayed-ack force (optimized / intermediate).
  bool honor_subordinate_commit_force = true;  // Unopt/intermediate commit force lands.
  bool check_promise = true;              // Accept only epochs >= promised.
  bool check_all_votes = true;            // Decide only on a complete yes vote set.
  bool paxos_accept_needs_all_votes = true;  // Ballot-0 accepts need the full vote set.
  bool takeover_adopts_accepted_value = true;  // Read-round accepted value wins.
  bool presume_abort_on_unknown = true;   // Status reply for a forgotten family.
  bool notify_before_retire = true;       // Coordinator fans out COMMIT before end.
  bool drop_locks_on_decide = true;       // Deciding releases the site's locks.
  int replication_quorum_delta = 0;       // Added to NBC's majority quorum.
  int accept_quorum_delta = 0;            // Added to Paxos' F+1 commit quorum.
};

// Fault budgets consumed by the checker's environment moves.
struct SpecBounds {
  int max_crashes = 0;
  int max_losses = 0;
  int max_no_votes = 0;
  int max_takeover_rounds = 1;  // Per-process takeover attempts (nbc / paxos).
  // Cap on takeover rounds summed across all processes. The per-process
  // bound shapes fairness; this one caps the state space (a directed
  // mutation scenario often wants exactly one round in total).
  int max_total_takeovers = 1000;
};

// --- Abstract machine state --------------------------------------------------

enum class SpecDecision : uint8_t { kNone = 0, kCommit = 1, kAbort = 2 };
const char* SpecDecisionName(SpecDecision d);

// Wire messages. Names mirror the runtime TmMsgType wire names so traces and
// tm.send.* replay recipes read the same as runtime logs.
enum class SpecMsgType : uint8_t {
  kPrepare = 0,
  kVote,
  kCommit,
  kAbort,
  kCommitAck,
  kReplicate,
  kReplicateAck,
  kStatusReq,
  kStatusResp,
  kPaxosAccepted,
};
inline constexpr size_t kSpecMsgTypes = static_cast<size_t>(SpecMsgType::kPaxosAccepted) + 1;
const char* SpecMsgTypeName(SpecMsgType t);

struct SpecMsg {
  uint8_t from = 0;
  uint8_t to = 0;
  SpecMsgType type = SpecMsgType::kPrepare;
  uint8_t vote = 0;        // kVote: ServerVote value. kStatusResp: SpecDecision known.
  uint64_t epoch = 0;      // Ballot / replication epoch (kReplicate, kStatusReq, ...).
  uint8_t value = 0;       // SpecDecision payload (kReplicate, kStatusResp accepted).
  uint64_t accepted = 0;   // kStatusResp: responder's accepted epoch (0 = none).

  friend bool operator<(const SpecMsg& a, const SpecMsg& b) {
    return a.Key() < b.Key();
  }
  friend bool operator==(const SpecMsg& a, const SpecMsg& b) { return a.Key() == b.Key(); }
  std::array<uint64_t, 3> Key() const {
    return {static_cast<uint64_t>(from) << 32 | static_cast<uint64_t>(to) << 16 |
                static_cast<uint64_t>(type) << 8 | vote,
            epoch, static_cast<uint64_t>(value) << 56 | accepted};
  }
  std::string Describe() const;
};

enum class SpecLogKind : uint8_t {
  kPrepareRec = 0,  // Coordinator or subordinate prepare.
  kCommitRec,
  kAbortRec,
  kAcceptRec,   // Replication / ballot accept (epoch, value).
  kAckRec,      // Subordinate delayed-ack force marker.
  kEndRec,      // Coordinator end-of-family spool.
  kPromiseRec,  // Durable takeover promise (epoch).
};

struct SpecLogRec {
  SpecLogKind kind = SpecLogKind::kPrepareRec;
  uint64_t epoch = 0;
  SpecDecision value = SpecDecision::kNone;
};

enum class SpecPhase : uint8_t {
  kStart = 0,       // Nothing protocol-visible happened yet.
  kVoteWait,        // Coordinator gathering votes.
  kPrepared,        // Subordinate prepared / in doubt; also recovered-in-doubt.
  kRepWait,         // Coordinator gathering replicate-acks / ballot-0 accepts.
  kNotify,          // Decision durable; fanning out / gathering COMMIT-ACKs.
  kRoWait,          // Read-only participant awaiting its outcome tombstone.
  kGather,          // Takeover leader: read (promise) round.
  kTakeRepWait,     // Takeover leader: accept round.
  kLeadNotify,      // Takeover leader: decision durable, notifying / gathering acks.
  kDone,            // Retired; family forgotten.
};
const char* SpecPhaseName(SpecPhase p);

struct SpecProc {
  bool crashed = false;
  SpecPhase phase = SpecPhase::kStart;
  bool locks = false;
  SpecDecision decided = SpecDecision::kNone;  // Volatile; rebuilt from the log.
  uint64_t promised = 0;
  bool has_accepted = false;
  uint64_t accepted_epoch = 0;
  SpecDecision accepted_value = SpecDecision::kNone;
  uint16_t voted_mask = 0;  // Bit p: vote from proc p recorded here.
  uint16_t no_mask = 0;
  uint16_t acks = 0;        // COMMIT-ACK senders (coordinator / takeover leader).
  uint16_t rep_acks = 0;    // REPLICATE-ACK / PAXOS-ACCEPTED senders for cur epoch.
  uint16_t promises = 0;    // STATUS-RESP senders for lead_epoch.
  uint64_t lead_epoch = 0;
  uint8_t takeover_rounds = 0;
  bool fanout_sent = false;     // Send-once latch for the current phase's fan-out.
  uint8_t notifier = 0;         // Who told this sub the outcome (ack destination).
  bool saw_decision = false;    // Takeover read round found an existing decision.
  SpecDecision seen_decision = SpecDecision::kNone;
  bool best_has = false;        // Takeover read round: best accepted value so far.
  uint64_t best_epoch = 0;
  SpecDecision best_value = SpecDecision::kNone;
  std::vector<SpecLogRec> log;
  uint32_t durable_len = 0;  // log[0..durable_len) survives a crash.
};

struct SpecState {
  std::vector<SpecProc> procs;
  std::vector<SpecMsg> net;  // Sorted, unique: a persistent message set.
  uint8_t crashes_used = 0;
  uint8_t losses_used = 0;
  uint8_t no_votes_used = 0;
  // Externally observed decisions (what each site told its client / servers).
  // Survive crashes: once observed, a decision is out in the world.
  std::array<SpecDecision, 16> observed{};
  // Set by SpecCtx::Decide when an observed decision flips — the checker
  // reports it as the "decision-stability" violation.
  bool stability_broken = false;
  uint8_t stability_proc = 0;

  bool HasMsg(const SpecMsg& m) const;
  bool AddMsg(const SpecMsg& m);   // Set-insert; false when already present.
  void EraseMsg(const SpecMsg& m);
};

// --- Transition effects ------------------------------------------------------

// What one transition did, for counting and for trace / replay rendering.
struct SpecEffect {
  CountVector counts;                 // role/phase/primitive deltas.
  std::vector<std::string> notes;     // Human-readable sub-actions.
  // Runtime force points executed, in order: (proc, point) with point like
  // "tm.sub.prepare_force" — crash replay recipes append ".after".
  std::vector<std::pair<int, std::string>> forces;
  // Datagrams actually inserted (new to the set): (from, wire type name).
  std::vector<std::pair<int, std::string>> sends;
};

// Mutation-facing action API handed to rule bodies. All counting and
// durability bookkeeping funnels through here so the fold and the checker
// can never disagree about what a rule did. With a null `eff` the state
// changes alone are made: no counts, trails or notes are built.
class SpecCtx {
 public:
  SpecCtx(const class SpecMachine& m, SpecState* s, int self, SpecEffect* eff)
      : m_(m), s_(s), self_(self), eff_(eff) {}

  SpecProc& me();
  int self() const { return self_; }
  const class SpecMachine& machine() const { return m_; }
  const SpecScenario& scenario() const;
  const SpecKnobs& knobs() const;

  // Append `rec` and advance the durable prefix over everything spooled so
  // far. `point` names the runtime failpoint (nullptr when the runtime has no
  // corresponding force, e.g. durable takeover promises).
  void Force(const char* role, const char* phase, const char* point, SpecLogRec rec);
  // Append without durability; lost if no later force lands before a crash.
  void Spool(const char* role, const char* phase, SpecLogRec rec);
  // Idempotent datagram into the persistent set; counts one dgram per
  // destination on first insertion only (matching the ledger's send-once
  // runtime). Self-sends are a modeling error.
  void Send(const char* role, int to, SpecMsg msg);
  // Record the externally visible decision. Flags decision-stability if an
  // already-observed decision flips.
  void Decide(SpecDecision d);
  // Release this site's locks (no-op under the keep-locks mutation knob).
  void DropLocks();
  void Retire() { me().phase = SpecPhase::kDone; }

 private:
  void Note(std::string note);  // Only with a non-null effect.

  const SpecMachine& m_;
  SpecState* s_;
  int self_;
  SpecEffect* eff_;
};

// One guarded transition. `trigger` set => the rule consumes (a copy of) a
// network message of that type addressed to `self`; unset => internal rule.
// `fault_only` rules model timeout / recovery-driven behavior and are
// excluded from the fault-free fold.
struct SpecRule {
  std::string name;
  bool fault_only = false;
  // Consumes one per-process takeover round; ForEachSuccessor gates it
  // against SpecBounds::max_takeover_rounds.
  bool takeover_start = false;
  std::optional<SpecMsgType> trigger;
  std::function<bool(const SpecMachine&, const SpecState&, int self, const SpecMsg* msg)> guard;
  std::function<void(SpecCtx&, const SpecMsg* msg)> apply;
};

// --- The machine -------------------------------------------------------------

// A move is one transition of the global state: a rule firing (internal or
// message-triggered) or an environment choice (crash, recover, lose, no-vote).
struct SpecMove {
  enum class Kind : uint8_t { kRule, kDeliver, kCrash, kRecover, kLose, kNoVote };
  Kind kind = Kind::kRule;
  int proc = 0;   // Acting process (rule self / crash target / no-voter).
  int rule = -1;  // Index into rules() for kRule / kDeliver.
  SpecMsg msg;    // The delivered / lost message.

  friend bool operator==(const SpecMove&, const SpecMove&) = default;
};

// Working storage for ForEachSuccessor. Each candidate move is applied to
// `state` in place and encoded into `bytes`, so once the buffers have grown
// to the largest state seen, enumerating moves allocates nothing. A thread
// needs its own.
struct SpecScratch {
  std::vector<SpecMove> moves;
  SpecState state;
  std::string bytes;
};

// Encoding limits. The vote and ack masks are 16 bits wide and `observed`
// has 16 slots, so a machine holds at most kSpecMaxProcs processes.
// Canonical writes each epoch (16 * round + proc) as one byte, so no takeover
// round may exceed kSpecMaxRound, and a STATUS-RESP's accepted epoch + 1 (0
// means none) must fit the byte too: SpecMachine::EpochsFitOneByte, which
// leaves round 15 to machines of at most 15 processes.
inline constexpr int kSpecMaxProcs = 16;
inline constexpr int kSpecMaxRound = 15;

class SpecMachine {
 public:
  // Requires non-negative subordinate counts and at most kSpecMaxProcs
  // processes.
  explicit SpecMachine(const SpecScenario& scenario, const SpecKnobs& knobs = {});

  const SpecScenario& scenario() const { return scenario_; }
  const SpecKnobs& knobs() const { return knobs_; }
  const std::vector<SpecRule>& rules() const { return rules_; }
  int n() const { return scenario_.procs(); }

  bool IsCoordinator(int p) const { return p == 0; }
  bool IsUpdateSub(int p) const { return p >= 1 && p <= scenario_.update_subs; }
  // Paxos: the first min(2F+1, n) participant sites (clamped odd),
  // coordinator first. Empty for other variants.
  bool IsAcceptor(int p) const { return p < acceptors_; }
  int acceptor_count() const { return acceptors_; }
  int commit_quorum() const { return commit_quorum_; }  // NBC majority / Paxos F_eff+1.
  int read_quorum() const { return read_quorum_; }
  // Whether proc p must eventually learn the outcome (coordinator + update
  // subs; read-only participants may retire uninformed under 2PC).
  bool NeedsDecision(int p) const;
  // Whether proc p may start a takeover round (nbc / paxos only).
  bool TakeoverCandidate(int p) const;
  // The coordinator's own vote, from the scenario.
  ServerVote CoordinatorVote() const;
  // Fault-free notify fan-out / ack set: 2PC update subs, NBC every sub,
  // Paxos update subs plus read-only remote acceptors.
  const std::vector<int>& NotifyTargets() const { return notify_targets_; }
  // NBC replication targets (update subs, widened to all subs when the update
  // sites plus the coordinator cannot form the majority).
  const std::vector<int>& RepTargets() const { return rep_targets_; }
  uint16_t UpdateSubMask() const;
  uint16_t AcceptorMask() const;  // All-procs mask outside Paxos.
  uint16_t AllVoteMask() const { return static_cast<uint16_t>((1u << n()) - 1); }
  // The highest takeover round an exploration under `bounds` can reach; 0
  // for variants without takeover. A start takes either the starter's next
  // round (at most max_takeover_rounds) or one past the highest round it
  // promised. Only a process under its own budget starts, and one that jumps
  // past the budget starts no more, so each of the other n() - 1 processes
  // adds at most one round; and no round exceeds the number of starts.
  int HighestRound(const SpecBounds& bounds) const;
  // Whether the highest epoch an exploration under `bounds` can reach, plus
  // one, fits the byte Canonical writes it in.
  bool EpochsFitOneByte(const SpecBounds& bounds) const;

  SpecState Initial() const;

  // The one definition of an enabled move, which the checker's BFS, its
  // trace replay and the fault-free fold all enumerate through. Calls
  // visit(move, successor, successor_bytes) for every enabled move of `s`,
  // in deterministic order, skipping each move whose successor encodes to
  // `bytes`, the canonical bytes of `s` itself. The successor and its bytes
  // live in `scratch` and are overwritten by the next move. A false return
  // from `visit` ends the enumeration.
  template <typename Visit>
  void ForEachSuccessor(const SpecState& s, std::string_view bytes, const SpecBounds& bounds,
                        SpecScratch* scratch, Visit&& visit) const {
    EnabledMoves(s, bounds, &scratch->moves);
    for (const SpecMove& move : scratch->moves) {
      scratch->state = s;
      ApplyTo(&scratch->state, move);
      CanonicalInto(scratch->state, &scratch->bytes);
      if (scratch->bytes != bytes &&
          !visit(move, std::as_const(scratch->state), std::string_view(scratch->bytes))) {
        return;
      }
    }
  }

  // Apply `move` to `s` in place; `eff` (optional) receives counts / notes /
  // force+send trails for traces and replay recipes. With no `eff` none of
  // them is built.
  void ApplyTo(SpecState* s, const SpecMove& move, SpecEffect* eff = nullptr) const;
  // ApplyTo on a copy of `s`; returns the successor.
  SpecState Apply(const SpecState& s, const SpecMove& move, SpecEffect* eff = nullptr) const;

  std::string MoveLabel(const SpecMove& move) const;

  // Canonical byte-serialization of `s`: within the encoding limits above,
  // two states serialize equally only if they are equal. The checker dedups
  // by a 128-bit fingerprint of these bytes and digests the bytes themselves.
  std::string Canonical(const SpecState& s) const;
  // Canonical into `*bytes`, reusing its capacity.
  void CanonicalInto(const SpecState& s, std::string* bytes) const;
  // Overwrites `s` with the state that `bytes`, written by Canonical,
  // encode, reusing its capacity. It inverts Canonical: re-encoding gives
  // `bytes` back, and the decoded state is the encoded one wherever
  // Canonical tells states apart. The checker's frontier holds bytes and
  // decodes each state when it expands it.
  void Decode(std::string_view bytes, SpecState* s) const;
  std::string DumpState(const SpecState& s) const;

  // Crash-recovery: rebuild proc p's volatile state from its durable log.
  // Variant-specific (2PC presumes abort, Paxos rejoins in doubt, ...).
  // `eff` may be null.
  void Recover(SpecState* s, int p, SpecEffect* eff) const;

  // Deterministically run the non-fault rules to quiescence and collect the
  // CountVector. `complete` is false if the run hit `max_steps` or left a
  // NeedsDecision proc undecided (a spec bug).
  struct FoldResult {
    CountVector counts;
    bool complete = false;
    int steps = 0;
    std::string detail;
  };
  FoldResult FoldFaultFree(int max_steps = 4096) const;

 private:
  // Every move whose guard holds in `s` and that `bounds` allows, in
  // ForEachSuccessor's order, into `out` (cleared first).
  void EnabledMoves(const SpecState& s, const SpecBounds& bounds,
                    std::vector<SpecMove>* out) const;

  void BuildTargets();
  void BuildSharedRules();
  void BuildTwoPhaseRules();
  void BuildNonBlockingRules();
  void BuildPaxosRules();
  void BuildTakeoverRules(bool paxos);

  SpecScenario scenario_;
  SpecKnobs knobs_;
  std::vector<SpecRule> rules_;
  std::vector<int> internal_rules_;  // Indices of rules without a trigger.
  // Per message type, the indices of the rules it triggers.
  std::array<std::vector<int>, kSpecMsgTypes> delivery_rules_;
  std::vector<int> notify_targets_;
  std::vector<int> rep_targets_;
  int acceptors_ = 0;
  int commit_quorum_ = 0;
  int read_quorum_ = 0;
  bool paxos_degenerate_ = false;  // F_eff == 0: spec IS optimized 2PC.
};

// Takeover ballot numbering: round r by proc p gets epoch r*16+p, totally
// ordered and decodable for traces. Epoch 0 is the coordinator's ballot-0 /
// initial replication round.
inline uint64_t SpecMakeEpoch(int round, int proc) {
  return static_cast<uint64_t>(round) * 16 + static_cast<uint64_t>(proc);
}

}  // namespace camelot

#endif  // SRC_ANALYSIS_PROTOCOL_SPEC_H_
