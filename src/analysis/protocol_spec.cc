#include "src/analysis/protocol_spec.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "src/base/logging.h"

namespace camelot {

namespace {

// Acceptor-set sizing, mirroring HandleCommit and the hand analysis:
// min(2F+1, participants), clamped odd.
int PaxosAcceptors(uint32_t f, int subordinates) {
  int a = std::min<int>(2 * static_cast<int>(f) + 1, subordinates + 1);
  if (a % 2 == 0) {
    --a;
  }
  return a;
}

int Pop(uint16_t mask) { return std::popcount(static_cast<unsigned>(mask)); }

std::string Key(const char* role, const char* phase, const char* suffix) {
  std::string k = role;
  k += '/';
  k += phase;
  k += '/';
  k += suffix;
  return k;
}

SpecDecision DecisionOf(uint8_t raw) { return static_cast<SpecDecision>(raw); }

}  // namespace

// --- Names -------------------------------------------------------------------

const char* SpecDecisionName(SpecDecision d) {
  switch (d) {
    case SpecDecision::kNone:
      return "undecided";
    case SpecDecision::kCommit:
      return "commit";
    case SpecDecision::kAbort:
      return "abort";
  }
  return "?";
}

const char* SpecMsgTypeName(SpecMsgType t) {
  switch (t) {
    case SpecMsgType::kPrepare:
      return "PREPARE";
    case SpecMsgType::kVote:
      return "VOTE";
    case SpecMsgType::kCommit:
      return "COMMIT";
    case SpecMsgType::kAbort:
      return "ABORT";
    case SpecMsgType::kCommitAck:
      return "COMMIT-ACK";
    case SpecMsgType::kReplicate:
      return "REPLICATE";
    case SpecMsgType::kReplicateAck:
      return "REPLICATE-ACK";
    case SpecMsgType::kStatusReq:
      return "STATUS-REQ";
    case SpecMsgType::kStatusResp:
      return "STATUS-RESP";
    case SpecMsgType::kPaxosAccepted:
      return "PAXOS-ACCEPTED";
  }
  return "?";
}

const char* SpecPhaseName(SpecPhase p) {
  switch (p) {
    case SpecPhase::kStart:
      return "start";
    case SpecPhase::kVoteWait:
      return "vote-wait";
    case SpecPhase::kPrepared:
      return "prepared";
    case SpecPhase::kRepWait:
      return "rep-wait";
    case SpecPhase::kNotify:
      return "notify";
    case SpecPhase::kRoWait:
      return "ro-wait";
    case SpecPhase::kGather:
      return "gather";
    case SpecPhase::kTakeRepWait:
      return "take-rep-wait";
    case SpecPhase::kLeadNotify:
      return "lead-notify";
    case SpecPhase::kDone:
      return "done";
  }
  return "?";
}

std::string SpecScenario::Label() const {
  std::string variant = ProtocolName(options);
  if (options.protocol == CommitProtocol::kPaxos) {
    variant += "(F=" + std::to_string(options.paxos_f) + ")";
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s u=%d r=%d L=%d %s", variant.c_str(), update_subs,
                readonly_subs, local_updates ? 1 : 0,
                outcome == TxnOutcome::kCommit ? "commit" : "abort");
  return buf;
}

std::string SpecMsg::Describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %d->%d", SpecMsgTypeName(type), from, to);
  std::string out = buf;
  if (type == SpecMsgType::kVote) {
    out += vote == 0 ? " no" : (vote == 1 ? " update" : " readonly");
  }
  if (epoch != 0 || type == SpecMsgType::kReplicate || type == SpecMsgType::kStatusReq) {
    std::snprintf(buf, sizeof(buf), " e%llu", static_cast<unsigned long long>(epoch));
    out += buf;
  }
  if (type == SpecMsgType::kReplicate || type == SpecMsgType::kStatusResp) {
    out += ' ';
    out += SpecDecisionName(DecisionOf(value));
  }
  return out;
}

// --- SpecState message set ---------------------------------------------------

bool SpecState::HasMsg(const SpecMsg& m) const {
  auto it = std::lower_bound(net.begin(), net.end(), m);
  return it != net.end() && *it == m;
}

bool SpecState::AddMsg(const SpecMsg& m) {
  auto it = std::lower_bound(net.begin(), net.end(), m);
  if (it != net.end() && *it == m) {
    return false;
  }
  net.insert(it, m);
  return true;
}

void SpecState::EraseMsg(const SpecMsg& m) {
  auto it = std::lower_bound(net.begin(), net.end(), m);
  if (it != net.end() && *it == m) {
    net.erase(it);
  }
}

// --- SpecCtx -----------------------------------------------------------------

SpecProc& SpecCtx::me() { return s_->procs[static_cast<size_t>(self_)]; }
const SpecScenario& SpecCtx::scenario() const { return m_.scenario(); }
const SpecKnobs& SpecCtx::knobs() const { return m_.knobs(); }

void SpecCtx::Force(const char* role, const char* phase, const char* point, SpecLogRec rec) {
  SpecProc& p = me();
  p.log.push_back(rec);
  p.durable_len = static_cast<uint32_t>(p.log.size());
  if (eff_ == nullptr) {
    return;
  }
  eff_->counts[Key(role, phase, "force")] += 1;
  if (point != nullptr) {
    eff_->forces.emplace_back(self_, point);
  }
  Note(std::string("p") + std::to_string(self_) + " force " + role + "/" + phase);
}

void SpecCtx::Spool(const char* role, const char* phase, SpecLogRec rec) {
  me().log.push_back(rec);
  if (eff_ == nullptr) {
    return;
  }
  eff_->counts[Key(role, phase, "spool")] += 1;
  Note(std::string("p") + std::to_string(self_) + " spool " + role + "/" + phase);
}

void SpecCtx::Send(const char* role, int to, SpecMsg msg) {
  if (to == self_ || to < 0 || to >= m_.n()) {
    return;  // Self-sends are local bookkeeping, never a datagram.
  }
  msg.from = static_cast<uint8_t>(self_);
  msg.to = static_cast<uint8_t>(to);
  if (!s_->AddMsg(msg)) {
    return;  // Send-once: the runtime's fault-free path never re-sends either.
  }
  if (eff_ == nullptr) {
    return;
  }
  eff_->counts[Key(role, SpecMsgTypeName(msg.type), "dgram")] += 1;
  eff_->sends.emplace_back(self_, SpecMsgTypeName(msg.type));
  Note(std::string("p") + std::to_string(self_) + " send " + msg.Describe());
}

void SpecCtx::Decide(SpecDecision d) {
  SpecDecision& seen = s_->observed[static_cast<size_t>(self_)];
  if (seen != SpecDecision::kNone && seen != d) {
    s_->stability_broken = true;
    s_->stability_proc = static_cast<uint8_t>(self_);
    if (eff_ != nullptr) {
      Note(std::string("p") + std::to_string(self_) + " FLIPS observed " +
           SpecDecisionName(seen) + " -> " + SpecDecisionName(d));
    }
  }
  seen = d;
  me().decided = d;
  if (eff_ != nullptr) {
    Note(std::string("p") + std::to_string(self_) + " decides " + SpecDecisionName(d));
  }
}

void SpecCtx::DropLocks() {
  if (!knobs().drop_locks_on_decide) {
    return;
  }
  me().locks = false;
}

void SpecCtx::Note(std::string note) { eff_->notes.push_back(std::move(note)); }

// --- Machine construction ----------------------------------------------------

SpecMachine::SpecMachine(const SpecScenario& scenario, const SpecKnobs& knobs)
    : scenario_(scenario), knobs_(knobs) {
  CAMELOT_CHECK(scenario_.update_subs >= 0 && scenario_.readonly_subs >= 0 &&
                scenario_.procs() <= kSpecMaxProcs);
  if (scenario_.options.protocol == CommitProtocol::kPaxos) {
    int a = PaxosAcceptors(scenario_.options.paxos_f, scenario_.subs());
    if (a <= 1) {
      // Gray & Lamport's theorem, honored structurally: F_eff = 0 Paxos Commit
      // IS the optimized two-phase protocol, so the spec builds 2PC rules.
      scenario_.options = CommitOptions::Optimized();
      paxos_degenerate_ = true;
    } else {
      acceptors_ = a;
      commit_quorum_ = (a - 1) / 2 + 1 + knobs_.accept_quorum_delta;  // F_eff + 1.
      read_quorum_ = (a - 1) / 2 + 1;
    }
  }
  const int n = scenario_.procs();
  if (scenario_.options.protocol == CommitProtocol::kNonBlocking) {
    acceptors_ = n;  // Everyone replicates / testifies.
    commit_quorum_ = n / 2 + 1 + knobs_.replication_quorum_delta;
    read_quorum_ = n / 2 + 1;
  }
  BuildTargets();
  BuildSharedRules();
  switch (scenario_.options.protocol) {
    case CommitProtocol::kTwoPhase:
      BuildTwoPhaseRules();
      break;
    case CommitProtocol::kNonBlocking:
      BuildNonBlockingRules();
      BuildTakeoverRules(/*paxos=*/false);
      break;
    case CommitProtocol::kPaxos:
      BuildPaxosRules();
      BuildTakeoverRules(/*paxos=*/true);
      break;
  }
  // EnabledMoves visits only the rules a proc or a message can fire.
  for (int r = 0; r < static_cast<int>(rules_.size()); ++r) {
    const std::optional<SpecMsgType>& trigger = rules_[static_cast<size_t>(r)].trigger;
    (trigger.has_value() ? delivery_rules_[static_cast<size_t>(*trigger)] : internal_rules_)
        .push_back(r);
  }
}

bool SpecMachine::NeedsDecision(int p) const { return p == 0 || IsUpdateSub(p); }

int SpecMachine::HighestRound(const SpecBounds& bounds) const {
  const bool takeovers = std::any_of(rules_.begin(), rules_.end(),
                                     [](const SpecRule& r) { return r.takeover_start; });
  if (!takeovers || bounds.max_takeover_rounds <= 0) {
    return 0;
  }
  // In 64 bits: a per-process budget near INT_MAX must not wrap below the cap.
  return static_cast<int>(std::min<int64_t>(bounds.max_total_takeovers,
                                            int64_t{bounds.max_takeover_rounds} + n() - 1));
}

bool SpecMachine::EpochsFitOneByte(const SpecBounds& bounds) const {
  return SpecMakeEpoch(HighestRound(bounds), n() - 1) + 1 <= 255;
}

bool SpecMachine::TakeoverCandidate(int p) const {
  if (scenario_.options.protocol == CommitProtocol::kTwoPhase) {
    return false;  // 2PC blocks; that is its documented weakness, not a bug.
  }
  return p == 0 || IsUpdateSub(p) || IsAcceptor(p);
}

ServerVote SpecMachine::CoordinatorVote() const {
  return scenario_.local_updates ? ServerVote::kUpdate : ServerVote::kReadOnly;
}

void SpecMachine::BuildTargets() {
  const int u = scenario_.update_subs;
  switch (scenario_.options.protocol) {
    case CommitProtocol::kTwoPhase:
      for (int q = 1; q <= u; ++q) notify_targets_.push_back(q);
      break;
    case CommitProtocol::kNonBlocking:
      for (int q = 1; q < n(); ++q) notify_targets_.push_back(q);
      break;
    case CommitProtocol::kPaxos:
      for (int q = 1; q <= u; ++q) notify_targets_.push_back(q);
      // Read-only remote acceptors linger for their tombstone.
      for (int q = u + 1; q < acceptors_ && q < n(); ++q) notify_targets_.push_back(q);
      break;
  }
  const int majority = n() / 2 + 1;  // Widening uses the true majority, not the
                                     // (possibly mutated) commit threshold.
  const int last = (u + 1 >= majority) ? u : scenario_.subs();
  for (int q = 1; q <= last; ++q) rep_targets_.push_back(q);
}

uint16_t SpecMachine::UpdateSubMask() const {
  uint16_t m = 0;
  for (int q = 1; q <= scenario_.update_subs; ++q) m |= static_cast<uint16_t>(1u << q);
  return m;
}

uint16_t SpecMachine::AcceptorMask() const {
  if (scenario_.options.protocol != CommitProtocol::kPaxos) {
    return AllVoteMask();
  }
  return static_cast<uint16_t>((1u << acceptors_) - 1);
}

SpecState SpecMachine::Initial() const {
  SpecState s;
  s.procs.resize(static_cast<size_t>(n()));
  for (auto& p : s.procs) {
    p.locks = true;  // Every participant holds locks from the operation phase.
  }
  return s;
}

// --- Rule tables -------------------------------------------------------------

namespace {

uint16_t Bit(int p) { return static_cast<uint16_t>(1u << p); }

const SpecProc& P(const SpecState& s, int p) { return s.procs[static_cast<size_t>(p)]; }

bool HasRec(const SpecProc& p, SpecLogKind kind) {
  return std::any_of(p.log.begin(), p.log.end(),
                     [kind](const SpecLogRec& r) { return r.kind == kind; });
}

SpecMsg Mk(SpecMsgType type) {
  SpecMsg m;
  m.type = type;
  return m;
}

// The coordinator's shared vote-phase steps. A variant adds each at its own
// position under the same name; protocol_spec.h says why both matter.

// PREPARE to every subordinate; the coordinator's own vote is local.
SpecRule CoordinatorStart(const char* name, int subs, bool commit_outcome) {
  return SpecRule{
      name, false, false, std::nullopt,
      [commit_outcome, subs](const SpecMachine&, const SpecState& s, int self, const SpecMsg*) {
        return self == 0 && commit_outcome && subs > 0 && P(s, 0).phase == SpecPhase::kStart;
      },
      [subs](SpecCtx& ctx, const SpecMsg*) {
        for (int q = 1; q <= subs; ++q) {
          ctx.Send("coord", q, Mk(SpecMsgType::kPrepare));
        }
        ctx.me().voted_mask |= Bit(0);  // The coordinator's own (local) vote.
        ctx.me().phase = SpecPhase::kVoteWait;
      }};
}

// Records one vote at a process tallying them (the coordinator, or any
// Paxos acceptor).
void TallyVote(SpecCtx& ctx, const SpecMsg* msg) {
  ctx.me().voted_mask |= Bit(msg->from);
  if (msg->vote == 0) {
    ctx.me().no_mask |= Bit(msg->from);
  }
}

SpecRule CoordinatorVoteRecord() {
  return SpecRule{"coord.vote.record", false, false, SpecMsgType::kVote,
                  [](const SpecMachine&, const SpecState& s, int self, const SpecMsg* msg) {
                    return self == 0 && P(s, 0).phase == SpecPhase::kVoteWait &&
                           (P(s, 0).voted_mask & Bit(msg->from)) == 0;
                  },
                  TallyVote};
}

// The coordinator's unilateral abort while it still owns the decision.
void CoordinatorAbort(SpecCtx& ctx, int subs) {
  ctx.Spool("coord", "abort", {SpecLogKind::kAbortRec});
  ctx.Decide(SpecDecision::kAbort);
  ctx.DropLocks();
  for (int q = 1; q <= subs; ++q) {
    ctx.Send("coord", q, Mk(SpecMsgType::kAbort));
  }
  ctx.Retire();
}

// A refused vote aborts the family.
SpecRule AbortOnNoVote(int subs) {
  return SpecRule{
      "coord.abort.votes", false, false, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        return self == 0 && P(s, 0).phase == SpecPhase::kVoteWait && P(s, 0).no_mask != 0 &&
               m.knobs().check_all_votes;
      },
      [subs](SpecCtx& ctx, const SpecMsg*) { CoordinatorAbort(ctx, subs); }};
}

// Vote-timeout abort: a crashed subordinate whose vote is missing lets the
// coordinator abort unilaterally — safe pre-decision for 2PC and NBC (the
// coordinator owns the decision until it replicates), never for Paxos.
SpecRule VoteTimeoutAbort(int subs) {
  return SpecRule{
      "coord.timeout.abort", true, false, std::nullopt,
      [subs](const SpecMachine&, const SpecState& s, int self, const SpecMsg*) {
        if (self != 0 || P(s, 0).phase != SpecPhase::kVoteWait) {
          return false;
        }
        // A timeout does not know WHY the vote is missing (crashed sub,
        // recovered-and-forgot sub, slow link): any missing vote suffices.
        for (int q = 1; q <= subs; ++q) {
          if ((P(s, 0).voted_mask & Bit(q)) == 0) {
            return true;
          }
        }
        return false;
      },
      [subs](SpecCtx& ctx, const SpecMsg*) { CoordinatorAbort(ctx, subs); }};
}

}  // namespace

void SpecMachine::BuildSharedRules() {
  const bool commit_outcome = scenario_.outcome == TxnOutcome::kCommit;
  const int subs = scenario_.subs();

  // Client-driven abort before any prepare: spool an abort everywhere, tell
  // every subordinate, presume-abort means no acks and no end record.
  rules_.push_back(SpecRule{
      "client.abort", false, false, std::nullopt,
      [commit_outcome](const SpecMachine&, const SpecState& s, int self, const SpecMsg*) {
        return self == 0 && !commit_outcome && P(s, 0).phase == SpecPhase::kStart;
      },
      [subs](SpecCtx& ctx, const SpecMsg*) {
        ctx.Spool("coord", "abort", {SpecLogKind::kAbortRec});
        for (int q = 1; q <= subs; ++q) {
          ctx.Send("coord", q, Mk(SpecMsgType::kAbort));
        }
        ctx.Decide(SpecDecision::kAbort);
        ctx.DropLocks();
        ctx.Retire();
      }});

  // Local-only commit: one force iff anything was written.
  rules_.push_back(SpecRule{
      "local.commit", false, false, std::nullopt,
      [commit_outcome, subs](const SpecMachine&, const SpecState& s, int self, const SpecMsg*) {
        return self == 0 && commit_outcome && subs == 0 && P(s, 0).phase == SpecPhase::kStart;
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        if (ctx.scenario().local_updates) {
          ctx.Force("coord", "local.commit", "tm.local.commit_force", {SpecLogKind::kCommitRec});
        }
        ctx.Decide(SpecDecision::kCommit);
        ctx.DropLocks();
        ctx.Retire();
      }});

  // Any live subordinate learning ABORT: spool, undo, release, retire.
  rules_.push_back(SpecRule{
      "sub.abort", false, false, SpecMsgType::kAbort,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg*) {
        return self != 0 && P(s, self).phase != SpecPhase::kDone;
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        ctx.Spool("sub", "abort", {SpecLogKind::kAbortRec});
        ctx.Decide(SpecDecision::kAbort);
        ctx.DropLocks();
        ctx.Retire();
      }});

  // PREPARE at a subordinate: update subs force (spec knob) their prepare and
  // vote; read-only subs vote, drop locks, and either retire (2PC,
  // non-acceptor Paxos) or linger for their tombstone.
  rules_.push_back(SpecRule{
      "sub.vote", false, false, SpecMsgType::kPrepare,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg*) {
        return self != 0 && P(s, self).phase == SpecPhase::kStart;
      },
      [](SpecCtx& ctx, const SpecMsg* msg) {
        const SpecMachine& m = ctx.machine();
        const int self = msg->to;
        const bool update = m.IsUpdateSub(self);
        uint8_t vote = update ? 1 : 2;
        if (update) {
          if (ctx.knobs().force_subordinate_prepare) {
            ctx.Force("sub", "prepare", "tm.sub.prepare_force", {SpecLogKind::kPrepareRec});
          } else {
            ctx.Spool("sub", "prepare", {SpecLogKind::kPrepareRec});
          }
          ctx.me().phase = SpecPhase::kPrepared;
        } else {
          ctx.me().locks = false;  // Read locks drop at the vote.
          if (m.scenario().options.protocol == CommitProtocol::kTwoPhase) {
            ctx.me().phase = SpecPhase::kDone;
          } else if (m.scenario().options.protocol == CommitProtocol::kPaxos) {
            ctx.me().phase = m.IsAcceptor(self) ? SpecPhase::kRoWait : SpecPhase::kDone;
          } else {
            ctx.me().phase = SpecPhase::kRoWait;  // NBC passive acceptor.
          }
        }
        SpecMsg v = Mk(SpecMsgType::kVote);
        v.vote = vote;
        if (m.scenario().options.protocol == CommitProtocol::kPaxos) {
          for (int a = 0; a < m.acceptor_count(); ++a) {
            ctx.Send("sub", a, v);
          }
        } else {
          ctx.Send("sub", 0, v);
        }
        ctx.me().voted_mask |= Bit(self);  // Remember my own vote locally.
      }});

  // COMMIT at a prepared update subordinate. The three 2PC variants differ
  // here exactly as the hand analysis describes; NBC and Paxos ride the
  // optimized shape. Also adopted by an update sub abandoning a takeover.
  rules_.push_back(SpecRule{
      "sub.commit.apply", false, false, SpecMsgType::kCommit,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        const SpecPhase ph = P(s, self).phase;
        return self != 0 && m.IsUpdateSub(self) &&
               (ph == SpecPhase::kPrepared || ph == SpecPhase::kGather ||
                ph == SpecPhase::kTakeRepWait);
      },
      [](SpecCtx& ctx, const SpecMsg* msg) {
        const CommitOptions& opt = ctx.scenario().options;
        ctx.me().notifier = msg->from;
        if (opt.force_subordinate_commit) {
          if (ctx.knobs().honor_subordinate_commit_force) {
            ctx.Force("sub", "commit", "tm.sub.commit_force", {SpecLogKind::kCommitRec});
          } else {
            ctx.Spool("sub", "commit", {SpecLogKind::kCommitRec});
          }
          ctx.Decide(SpecDecision::kCommit);
          ctx.DropLocks();
          if (opt.piggyback_commit_ack) {
            ctx.me().phase = SpecPhase::kNotify;  // Delayed ack behind an ack force.
          } else {
            ctx.Send("sub", msg->from, Mk(SpecMsgType::kCommitAck));
            ctx.Retire();
          }
        } else {
          // Section 3.2: spool the commit record, force only before the ack.
          ctx.Spool("sub", "commit", {SpecLogKind::kCommitRec});
          ctx.Decide(SpecDecision::kCommit);
          ctx.DropLocks();
          ctx.me().phase = SpecPhase::kNotify;
        }
      }});

  // The delayed, piggybacked ack: one force covering the spooled commit, then
  // the COMMIT-ACK datagram.
  rules_.push_back(SpecRule{
      "sub.ack", false, false, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        return self != 0 && m.IsUpdateSub(self) && P(s, self).phase == SpecPhase::kNotify;
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        if (ctx.knobs().force_subordinate_ack) {
          ctx.Force("sub", "ack", "tm.sub.ack_force", {SpecLogKind::kAckRec});
        } else {
          ctx.Spool("sub", "ack", {SpecLogKind::kAckRec});
        }
        ctx.Send("sub", ctx.me().notifier, Mk(SpecMsgType::kCommitAck));
        ctx.Retire();
      }});

  // Read-only tombstone: a lingering passive participant learns COMMIT, acks
  // whoever told it, and retires.
  rules_.push_back(SpecRule{
      "ro.outcome", false, false, SpecMsgType::kCommit,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg*) {
        return self != 0 && P(s, self).phase == SpecPhase::kRoWait;
      },
      [](SpecCtx& ctx, const SpecMsg* msg) {
        ctx.Decide(SpecDecision::kCommit);
        ctx.DropLocks();
        ctx.Send("sub", msg->from, Mk(SpecMsgType::kCommitAck));
        ctx.Retire();
      }});

  // A retired committed subordinate re-acks a (different) notifier — a
  // takeover leader finishing what the crashed coordinator started.
  rules_.push_back(SpecRule{
      "sub.reack", false, false, SpecMsgType::kCommit,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg*) {
        return self != 0 && P(s, self).phase == SpecPhase::kDone &&
               P(s, self).decided == SpecDecision::kCommit;
      },
      [](SpecCtx& ctx, const SpecMsg* msg) {
        ctx.Send("sub", msg->from, Mk(SpecMsgType::kCommitAck));
      }});

  // Blocked-subordinate watchdog: an undecided participant asks the
  // coordinator for the family status (epoch 0 distinguishes this from a
  // takeover read round).
  rules_.push_back(SpecRule{
      "sub.timeout.abort", true, false, std::nullopt,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg*) {
        // A participant that never saw PREPARE times out and unilaterally
        // aborts: it has not voted yes, so no commit can ever form without
        // it. This is presumed abort's cheap half — no traffic needed.
        return self != 0 && P(s, self).phase == SpecPhase::kStart &&
               P(s, self).decided == SpecDecision::kNone;
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        ctx.Spool("sub", "abort", {SpecLogKind::kAbortRec});
        ctx.Decide(SpecDecision::kAbort);
        ctx.DropLocks();
        ctx.Retire();
      }});

  rules_.push_back(SpecRule{
      "sub.status.query", true, false, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        // 2PC's in-doubt resolution path. NBC / Paxos resolve doubt through
        // the takeover protocol instead; modeling the (harmless) poll there
        // too only multiplies interleavings.
        if (m.scenario().options.protocol != CommitProtocol::kTwoPhase) {
          return false;
        }
        const SpecPhase ph = P(s, self).phase;
        return self != 0 && m.NeedsDecision(self) && P(s, self).decided == SpecDecision::kNone &&
               (ph == SpecPhase::kStart || ph == SpecPhase::kPrepared);
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        ctx.Send("sub", 0, Mk(SpecMsgType::kStatusReq));
      }});

  // Coordinator status reply. Presumed abort is the load-bearing subtlety: a
  // family with a durable end record has been forgotten, so the reply is
  // ABORT regardless of what was decided — sound because in the faithful
  // protocol no in-doubt subordinate can still exist after the end record.
  rules_.push_back(SpecRule{
      "coord.status.reply", false, false, SpecMsgType::kStatusReq,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg* msg) {
        if (self != 0 || msg->epoch != 0) {
          return false;
        }
        const SpecProc& c = P(s, 0);
        return c.phase == SpecPhase::kDone || c.decided != SpecDecision::kNone;
      },
      [](SpecCtx& ctx, const SpecMsg* msg) {
        SpecDecision d = ctx.me().decided;
        const bool forgotten = HasRec(ctx.me(), SpecLogKind::kEndRec) || d == SpecDecision::kNone;
        if (forgotten) {
          d = ctx.knobs().presume_abort_on_unknown ? SpecDecision::kAbort : SpecDecision::kCommit;
        }
        ctx.Send("coord", msg->from,
                 Mk(d == SpecDecision::kCommit ? SpecMsgType::kCommit : SpecMsgType::kAbort));
      }});

  // Coordinator fan-out of the decision, split from the commit point so the
  // crash window between deciding and notifying is explorable.
  rules_.push_back(SpecRule{
      "coord.notify", false, false, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        const SpecProc& c = P(s, 0);
        return self == 0 && c.lead_epoch == 0 && c.phase == SpecPhase::kNotify &&
               !c.fanout_sent && m.knobs().notify_before_retire;
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        for (int q : ctx.machine().NotifyTargets()) {
          ctx.Send("coord", q, Mk(SpecMsgType::kCommit));
        }
        ctx.me().fanout_sent = true;
      }});

  rules_.push_back(SpecRule{
      "coord.ack.record", false, false, SpecMsgType::kCommitAck,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg* msg) {
        return self == 0 && P(s, 0).phase == SpecPhase::kNotify &&
               (P(s, 0).acks & Bit(msg->from)) == 0;
      },
      [](SpecCtx& ctx, const SpecMsg* msg) { ctx.me().acks |= Bit(msg->from); }});

  // End of family: every notified update site acked (their commit records are
  // durable), so the coordinator spools the end record and forgets.
  rules_.push_back(SpecRule{
      "coord.end", false, false, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        const SpecProc& c = P(s, 0);
        if (self != 0 || c.lead_epoch != 0 || c.phase != SpecPhase::kNotify) {
          return false;
        }
        if (!m.knobs().notify_before_retire) {
          return true;  // Mutation: retire with the fan-out unsent.
        }
        if (!c.fanout_sent) {
          return false;
        }
        uint16_t need = 0;
        for (int q : m.NotifyTargets()) need |= Bit(q);
        return (c.acks & need) == need;
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        ctx.Spool("coord", "end", {SpecLogKind::kEndRec});
        ctx.Retire();
      }});
}

void SpecMachine::BuildTwoPhaseRules() {
  const int subs = scenario_.subs();
  const bool commit_outcome = scenario_.outcome == TxnOutcome::kCommit;

  rules_.push_back(CoordinatorStart("coord.start", subs, commit_outcome));
  rules_.push_back(CoordinatorVoteRecord());

  // The commit point: all votes in, none refused (unless the mutation skips
  // the check), something to make durable.
  rules_.push_back(SpecRule{
      "coord.commit", false, false, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        const SpecProc& c = P(s, 0);
        if (self != 0 || c.phase != SpecPhase::kVoteWait) {
          return false;
        }
        if (c.voted_mask != m.AllVoteMask()) {
          return false;
        }
        if (m.knobs().check_all_votes && c.no_mask != 0) {
          return false;
        }
        return m.scenario().update_subs > 0 || m.scenario().local_updates;
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        if (ctx.knobs().force_coordinator_commit) {
          ctx.Force("coord", "2pc.commit", "tm.2pc.commit_force", {SpecLogKind::kCommitRec});
        } else {
          ctx.Spool("coord", "2pc.commit", {SpecLogKind::kCommitRec});
        }
        ctx.Decide(SpecDecision::kCommit);
        ctx.DropLocks();
        ctx.me().phase = SpecPhase::kNotify;
      }});

  // Entirely read-only: no commit record, no phase 2, no end record.
  rules_.push_back(SpecRule{
      "coord.commit.ro", false, false, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        const SpecProc& c = P(s, 0);
        return self == 0 && c.phase == SpecPhase::kVoteWait && c.voted_mask == m.AllVoteMask() &&
               c.no_mask == 0 && m.scenario().update_subs == 0 && !m.scenario().local_updates;
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        ctx.Decide(SpecDecision::kCommit);
        ctx.DropLocks();
        ctx.Retire();
      }});

  rules_.push_back(AbortOnNoVote(subs));
  rules_.push_back(VoteTimeoutAbort(subs));
}

void SpecMachine::BuildNonBlockingRules() {
  const int subs = scenario_.subs();
  const bool commit_outcome = scenario_.outcome == TxnOutcome::kCommit;

  rules_.push_back(CoordinatorStart("coord.start.nbc", subs, commit_outcome));
  rules_.push_back(CoordinatorVoteRecord());

  // The epoch-0 replication point: prepare force (iff local updates) and the
  // replicate force, deferring to any promised or accepted takeover round
  // (skipping that check is the historical PR2 split-brain, kept reachable
  // via the check_promise mutation).
  rules_.push_back(SpecRule{
      "coord.replicate.force", false, false, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        const SpecProc& c = P(s, 0);
        if (self != 0 || c.phase != SpecPhase::kVoteWait) {
          return false;
        }
        if (c.voted_mask != m.AllVoteMask() || (m.knobs().check_all_votes && c.no_mask != 0)) {
          return false;
        }
        if (m.scenario().update_subs == 0) {
          return false;
        }
        return c.promised == 0 || !m.knobs().check_promise;
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        if (ctx.scenario().local_updates) {
          ctx.Force("coord", "nbc.prepare", "tm.nbc.prepare_force", {SpecLogKind::kPrepareRec});
        }
        ctx.Force("coord", "nbc.replicate", "tm.nbc.replicate_force",
                  {SpecLogKind::kAcceptRec, 0, SpecDecision::kCommit});
        ctx.me().has_accepted = true;
        ctx.me().accepted_epoch = 0;
        ctx.me().accepted_value = SpecDecision::kCommit;
        ctx.me().phase = SpecPhase::kRepWait;
        ctx.me().fanout_sent = false;
      }});

  rules_.push_back(SpecRule{
      "coord.replicate.send", false, false, std::nullopt,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg*) {
        return self == 0 && P(s, 0).phase == SpecPhase::kRepWait && !P(s, 0).fanout_sent;
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        SpecMsg m = Mk(SpecMsgType::kReplicate);
        m.epoch = 0;
        m.value = static_cast<uint8_t>(SpecDecision::kCommit);
        for (int q : ctx.machine().RepTargets()) {
          ctx.Send("coord", q, m);
        }
        ctx.me().fanout_sent = true;
      }});

  // Every subordinate read-only: the local commit record alone decides.
  rules_.push_back(SpecRule{
      "coord.commit.ro.nbc", false, false, std::nullopt,
      [subs](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        const SpecProc& c = P(s, 0);
        return self == 0 && c.phase == SpecPhase::kVoteWait && c.voted_mask == m.AllVoteMask() &&
               c.no_mask == 0 && m.scenario().update_subs == 0;
      },
      [subs](SpecCtx& ctx, const SpecMsg*) {
        if (ctx.scenario().local_updates) {
          ctx.Force("coord", "local.commit", "tm.local.commit_force", {SpecLogKind::kCommitRec});
        }
        ctx.Decide(SpecDecision::kCommit);
        ctx.DropLocks();
        for (int q = 1; q <= subs; ++q) {
          ctx.Send("coord", q, Mk(SpecMsgType::kCommit));
        }
        ctx.Retire();  // Acks land on the retired family; no end record.
      }});

  rules_.push_back(SpecRule{
      "coord.repack.record", false, false, SpecMsgType::kReplicateAck,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg* msg) {
        return self == 0 && P(s, 0).phase == SpecPhase::kRepWait && msg->epoch == 0 &&
               (P(s, 0).rep_acks & Bit(msg->from)) == 0;
      },
      [](SpecCtx& ctx, const SpecMsg* msg) { ctx.me().rep_acks |= Bit(msg->from); }});

  rules_.push_back(SpecRule{
      "coord.nbc.commit", false, false, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        const SpecProc& c = P(s, 0);
        return self == 0 && c.phase == SpecPhase::kRepWait &&
               Pop(c.rep_acks) + 1 >= m.commit_quorum();
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        ctx.Force("coord", "nbc.commit", "tm.nbc.commit_force", {SpecLogKind::kCommitRec});
        ctx.Decide(SpecDecision::kCommit);
        ctx.DropLocks();
        ctx.me().phase = SpecPhase::kNotify;
        ctx.me().fanout_sent = false;
      }});

  // Both coordinator aborts hold only in the vote wait, before replication.
  rules_.push_back(VoteTimeoutAbort(subs));
  rules_.push_back(AbortOnNoVote(subs));
}

void SpecMachine::BuildPaxosRules() {
  const int subs = scenario_.subs();
  const bool commit_outcome = scenario_.outcome == TxnOutcome::kCommit;

  // An updating coordinator prepares before fanning anything out.
  rules_.push_back(SpecRule{
      "paxos.coord.force_prepare", false, false, std::nullopt,
      [commit_outcome, subs](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        return self == 0 && commit_outcome && subs > 0 && m.scenario().local_updates &&
               P(s, 0).phase == SpecPhase::kStart && P(s, 0).log.empty();
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        ctx.Force("coord", "paxos.prepare", "tm.paxos.prepare_force", {SpecLogKind::kPrepareRec});
      }});

  // PREPARE fan-out plus the coordinator's own-vote multicast to the remote
  // acceptors (its local vote is recorded in place).
  rules_.push_back(SpecRule{
      "paxos.coord.start", false, false, std::nullopt,
      [commit_outcome, subs](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        if (self != 0 || !commit_outcome || subs == 0 || P(s, 0).phase != SpecPhase::kStart) {
          return false;
        }
        return !m.scenario().local_updates || !P(s, 0).log.empty();
      },
      [subs](SpecCtx& ctx, const SpecMsg*) {
        const SpecMachine& m = ctx.machine();
        for (int q = 1; q <= subs; ++q) {
          ctx.Send("coord", q, Mk(SpecMsgType::kPrepare));
        }
        SpecMsg v = Mk(SpecMsgType::kVote);
        v.vote = static_cast<uint8_t>(m.CoordinatorVote());
        for (int a = 1; a < m.acceptor_count(); ++a) {
          ctx.Send("coord", a, v);
        }
        ctx.me().voted_mask |= Bit(0);
        ctx.me().phase = SpecPhase::kVoteWait;
      }});

  // Votes fan to the whole acceptor set; every acceptor (the coordinator
  // included) tallies them independently.
  rules_.push_back(SpecRule{
      "acceptor.vote.record", false, false, SpecMsgType::kVote,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg* msg) {
        return m.IsAcceptor(self) && P(s, self).phase != SpecPhase::kDone &&
               (P(s, self).voted_mask & Bit(msg->from)) == 0;
      },
      TallyVote});

  // Ballot-0 accept: a complete all-yes vote set (or any vote at all, under
  // the mutation) lets an unpromised acceptor force its batched accept.
  rules_.push_back(SpecRule{
      "acceptor.accept0", false, false, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        if (!m.IsAcceptor(self) || P(s, self).has_accepted) {
          return false;
        }
        const SpecPhase ph = P(s, self).phase;
        if (ph == SpecPhase::kDone || ph == SpecPhase::kGather || ph == SpecPhase::kTakeRepWait ||
            ph == SpecPhase::kLeadNotify || ph == SpecPhase::kNotify) {
          return false;
        }
        if (m.scenario().update_subs == 0 && !m.scenario().local_updates) {
          return false;  // Trivially committed read-only family: no accept round.
        }
        const SpecProc& p = P(s, self);
        if (m.knobs().check_promise && p.promised != 0) {
          return false;
        }
        if (p.no_mask != 0) {
          return false;
        }
        if (m.knobs().paxos_accept_needs_all_votes) {
          return p.voted_mask == m.AllVoteMask();
        }
        return p.voted_mask != 0;
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        ctx.Force("acceptor", "paxos.accept", "tm.paxos.accept_force",
                  {SpecLogKind::kAcceptRec, 0, SpecDecision::kCommit});
        ctx.me().has_accepted = true;
        ctx.me().accepted_epoch = 0;
        ctx.me().accepted_value = SpecDecision::kCommit;
        SpecMsg a = Mk(SpecMsgType::kPaxosAccepted);
        a.epoch = 0;
        ctx.Send("acceptor", 0, a);
      }});

  rules_.push_back(SpecRule{
      "paxos.accepted.record", false, false, SpecMsgType::kPaxosAccepted,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg* msg) {
        return self == 0 && P(s, 0).phase == SpecPhase::kVoteWait && msg->epoch == 0 &&
               (P(s, 0).rep_acks & Bit(msg->from)) == 0;
      },
      [](SpecCtx& ctx, const SpecMsg* msg) { ctx.me().rep_acks |= Bit(msg->from); }});

  // The commit point: F_eff+1 durable accepts carry the decision, so the
  // commit record is spooled, never forced.
  rules_.push_back(SpecRule{
      "paxos.commit.point", false, false, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        const SpecProc& c = P(s, 0);
        return self == 0 && c.phase == SpecPhase::kVoteWait && c.has_accepted &&
               c.accepted_epoch == 0 && Pop(c.rep_acks) + 1 >= m.commit_quorum();
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        ctx.Spool("coord", "paxos.commit", {SpecLogKind::kCommitRec});
        ctx.Decide(SpecDecision::kCommit);
        ctx.DropLocks();
        ctx.me().phase = SpecPhase::kNotify;
        ctx.me().fanout_sent = false;
      }});

  // Entirely read-only: trivially committed, the lingering read-only remote
  // acceptors get their tombstones, nothing durable anywhere.
  rules_.push_back(SpecRule{
      "paxos.commit.ro", false, false, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        const SpecProc& c = P(s, 0);
        return self == 0 && c.phase == SpecPhase::kVoteWait && c.voted_mask == m.AllVoteMask() &&
               c.no_mask == 0 && m.scenario().update_subs == 0 && !m.scenario().local_updates;
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        ctx.Decide(SpecDecision::kCommit);
        ctx.DropLocks();
        for (int a = 1; a < ctx.machine().acceptor_count(); ++a) {
          ctx.Send("coord", a, Mk(SpecMsgType::kCommit));
        }
        ctx.Retire();
      }});

  // A refused vote: no acceptor can ever assemble an all-yes set, so the
  // coordinator may abort unilaterally.
  rules_.push_back(AbortOnNoVote(subs));
}

void SpecMachine::BuildTakeoverRules(bool paxos) {
  // Takeover read set: Paxos reads the acceptor registrar, NBC reads everyone
  // (procs below the limit; Send drops the leader's send to itself).
  const int read_limit = paxos ? acceptors_ : n();

  // A timed-out participant promotes itself: new ballot, durable self-promise
  // (also how the round counter survives its own crash), read round.
  rules_.push_back(SpecRule{
      "take.start", true, true, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        if (!m.TakeoverCandidate(self) || P(s, self).decided != SpecDecision::kNone) {
          return false;
        }
        // Takeovers start only from in-doubt waits, as in the runtime: a
        // prepared (or recovered-in-doubt) participant, or a read-only
        // participant stuck awaiting its tombstone. A live coordinator
        // mid-protocol drives or timeout-aborts instead; an unprepared
        // participant aborts unilaterally (the no-vote move). Exception: a
        // coordinator that deferred to a promised takeover round (PR2) has
        // ceded the outcome — if that round dies it is as in-doubt as anyone.
        const SpecPhase ph = P(s, self).phase;
        if (ph == SpecPhase::kPrepared || ph == SpecPhase::kRoWait) {
          return true;
        }
        if (self != 0 || (ph != SpecPhase::kVoteWait && ph != SpecPhase::kRepWait)) {
          return false;
        }
        // A deferred coordinator (PR2) has ceded the outcome; if the promised
        // round dies it is as in-doubt as anyone. A Paxos coordinator
        // additionally escalates ANY vote-wait timeout to a ballot: unlike
        // NBC it cannot presume abort, because acceptors accept from complete
        // vote sets without its involvement.
        return P(s, self).promised != 0 ||
               m.scenario().options.protocol == CommitProtocol::kPaxos;
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        SpecProc& p = ctx.me();
        // Pick a round whose epoch beats everything this process promised;
        // a stillborn lower ballot would only burn the retry budget. The
        // jump also advances the budget counter, conservatively.
        uint64_t round = static_cast<uint64_t>(p.takeover_rounds) + 1;
        if (SpecMakeEpoch(static_cast<int>(round), ctx.self()) <= p.promised) {
          round = p.promised / 16 + 1;
        }
        p.takeover_rounds = static_cast<uint8_t>(round);
        p.lead_epoch = SpecMakeEpoch(static_cast<int>(round), ctx.self());
        if (p.lead_epoch > p.promised) {
          p.promised = p.lead_epoch;
        }
        // The self-promise is durable: it is also how the round counter
        // survives the leader's own crash.
        ctx.Force("takeover", "promise", nullptr,
                  {SpecLogKind::kPromiseRec, p.lead_epoch, SpecDecision::kNone});
        p.promises = 0;
        p.saw_decision = false;
        p.seen_decision = SpecDecision::kNone;
        p.best_has = false;
        p.best_epoch = 0;
        p.best_value = SpecDecision::kNone;
        p.phase = SpecPhase::kGather;
        p.fanout_sent = false;
      }});

  rules_.push_back(SpecRule{
      "take.read.send", true, false, std::nullopt,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg*) {
        return P(s, self).phase == SpecPhase::kGather && !P(s, self).fanout_sent;
      },
      [read_limit](SpecCtx& ctx, const SpecMsg*) {
        SpecMsg req = Mk(SpecMsgType::kStatusReq);
        req.epoch = ctx.me().lead_epoch;
        for (int q = 0; q < read_limit; ++q) {
          ctx.Send("takeover", q, req);
        }
        ctx.me().fanout_sent = true;
      }});

  // A promise request at any live participant: promise the higher ballot
  // durably and testify (accepted state + any known decision).
  rules_.push_back(SpecRule{
      "peer.promise", false, false, SpecMsgType::kStatusReq,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg* msg) {
        return msg->epoch > 0 && msg->epoch >= P(s, self).promised &&
               P(s, self).lead_epoch != msg->epoch;
      },
      [](SpecCtx& ctx, const SpecMsg* msg) {
        SpecProc& p = ctx.me();
        if (msg->epoch > p.promised && p.phase != SpecPhase::kDone) {
          p.promised = msg->epoch;
          ctx.Force("takeover", "promise", nullptr,
                    {SpecLogKind::kPromiseRec, msg->epoch, SpecDecision::kNone});
        }
        SpecMsg resp = Mk(SpecMsgType::kStatusResp);
        resp.epoch = msg->epoch;
        resp.vote = static_cast<uint8_t>(p.decided);
        resp.value = static_cast<uint8_t>(p.accepted_value);
        resp.accepted = p.has_accepted ? p.accepted_epoch + 1 : 0;  // +1: 0 means "none".
        ctx.Send("takeover", msg->from, resp);
      }});

  rules_.push_back(SpecRule{
      "leader.promise.record", false, false, SpecMsgType::kStatusResp,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg* msg) {
        return P(s, self).phase == SpecPhase::kGather && msg->epoch == P(s, self).lead_epoch &&
               (P(s, self).promises & Bit(msg->from)) == 0;
      },
      [](SpecCtx& ctx, const SpecMsg* msg) {
        SpecProc& p = ctx.me();
        p.promises |= Bit(msg->from);
        if (DecisionOf(msg->vote) != SpecDecision::kNone) {
          p.saw_decision = true;
          p.seen_decision = DecisionOf(msg->vote);
        }
        if (msg->accepted > 0) {
          const uint64_t e = msg->accepted - 1;
          if (!p.best_has || e > p.best_epoch) {
            p.best_has = true;
            p.best_epoch = e;
            p.best_value = DecisionOf(msg->value);
          }
        }
      }});

  // Enough testimony: adopt an existing decision outright, or propose the
  // highest accepted value (else abort) through an accept round.
  rules_.push_back(SpecRule{
      "take.decide.value", true, false, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        const SpecProc& p = P(s, self);
        if (p.phase != SpecPhase::kGather || !p.fanout_sent) {
          return false;
        }
        // Promising a higher round kills this one: the leader's own accept
        // below would otherwise violate that promise (a read quorum for the
        // higher round may already have recorded this process as empty).
        if (m.knobs().check_promise && p.promised > p.lead_epoch) {
          return false;
        }
        uint16_t counted = static_cast<uint16_t>(p.promises & m.AcceptorMask());
        int have = Pop(counted);
        if ((m.AcceptorMask() & Bit(self)) != 0) {
          ++have;  // The leader's own durable self-promise.
        }
        return have >= m.read_quorum();
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        SpecProc& p = ctx.me();
        if (p.saw_decision) {
          // The decision already exists: make it durable here and go straight
          // to notification.
          ctx.Force("takeover", "adopt", nullptr,
                    {p.seen_decision == SpecDecision::kCommit ? SpecLogKind::kCommitRec
                                                              : SpecLogKind::kAbortRec});
          ctx.Decide(p.seen_decision);
          ctx.DropLocks();
          p.phase = SpecPhase::kLeadNotify;
          p.fanout_sent = false;
          return;
        }
        // The leader's own accepted value competes with the read-round
        // testimonies BY EPOCH: choosing a response's stale low-ballot value
        // over the leader's own higher-ballot accept breaks agreement with
        // the round that produced that accept.
        if (p.has_accepted && (!p.best_has || p.accepted_epoch > p.best_epoch)) {
          p.best_has = true;
          p.best_epoch = p.accepted_epoch;
          p.best_value = p.accepted_value;
        }
        SpecDecision value = SpecDecision::kAbort;
        if (p.best_has && ctx.knobs().takeover_adopts_accepted_value) {
          value = p.best_value;
        }
        ctx.Force("takeover", "replicate", "tm.takeover.replicate_force",
                  {SpecLogKind::kAcceptRec, p.lead_epoch, value});
        p.has_accepted = true;
        p.accepted_epoch = p.lead_epoch;
        p.accepted_value = value;
        if (p.lead_epoch > p.promised) {
          p.promised = p.lead_epoch;
        }
        p.rep_acks = 0;
        p.phase = SpecPhase::kTakeRepWait;
        p.fanout_sent = false;
      }});

  rules_.push_back(SpecRule{
      "take.rep.send", true, false, std::nullopt,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg*) {
        return P(s, self).phase == SpecPhase::kTakeRepWait && !P(s, self).fanout_sent;
      },
      [read_limit](SpecCtx& ctx, const SpecMsg*) {
        SpecProc& p = ctx.me();
        SpecMsg m = Mk(SpecMsgType::kReplicate);
        m.epoch = p.lead_epoch;
        m.value = static_cast<uint8_t>(p.accepted_value);
        for (int q = 0; q < read_limit; ++q) {
          ctx.Send("takeover", q, m);
        }
        p.fanout_sent = true;
      }});

  // Accepting a replicated value (epoch 0 replication and takeover ballots
  // alike): promise-checked, durable, acked to the proposer. For Paxos only
  // acceptors accept; for NBC every participant does.
  rules_.push_back(SpecRule{
      "sub.accept", false, false, SpecMsgType::kReplicate,
      [paxos](const SpecMachine& m, const SpecState& s, int self, const SpecMsg* msg) {
        const SpecProc& p = P(s, self);
        if (paxos && !m.IsAcceptor(self)) {
          return false;
        }
        // lead_epoch 0 means "not leading"; only a real takeover ballot is
        // ever this process's own proposal.
        if (p.phase == SpecPhase::kDone ||
            (msg->epoch != 0 && p.lead_epoch == msg->epoch)) {
          return false;
        }
        if (p.phase == SpecPhase::kGather || p.phase == SpecPhase::kTakeRepWait ||
            p.phase == SpecPhase::kLeadNotify) {
          return false;  // A competing leader ignores proposals; epochs sort it out.
        }
        return !m.knobs().check_promise || msg->epoch >= p.promised;
      },
      [](SpecCtx& ctx, const SpecMsg* msg) {
        SpecProc& p = ctx.me();
        const SpecDecision v = DecisionOf(msg->value);
        // A re-delivered proposal is only re-acked (idempotent).
        if (!p.has_accepted || p.accepted_epoch != msg->epoch || p.accepted_value != v) {
          const char* role = msg->epoch == 0 ? "sub" : "takeover";
          const char* phase = msg->epoch == 0 ? "accept.replicate" : "accept.ballot";
          ctx.Force(role, phase, "tm.accept.replicate_force",
                    {SpecLogKind::kAcceptRec, msg->epoch, v});
          p.has_accepted = true;
          p.accepted_epoch = msg->epoch;
          p.accepted_value = v;
          if (msg->epoch > p.promised) {
            p.promised = msg->epoch;
          }
        }
        SpecMsg ack = Mk(SpecMsgType::kReplicateAck);
        ack.epoch = msg->epoch;
        ctx.Send(msg->epoch == 0 ? "sub" : "takeover", msg->from, ack);
      }});

  rules_.push_back(SpecRule{
      "leader.repack.record", false, false, SpecMsgType::kReplicateAck,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg* msg) {
        return P(s, self).phase == SpecPhase::kTakeRepWait &&
               msg->epoch == P(s, self).lead_epoch &&
               (P(s, self).rep_acks & Bit(msg->from)) == 0;
      },
      [](SpecCtx& ctx, const SpecMsg* msg) { ctx.me().rep_acks |= Bit(msg->from); }});

  rules_.push_back(SpecRule{
      "take.commit", true, false, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        const SpecProc& p = P(s, self);
        if (p.phase != SpecPhase::kTakeRepWait || !p.fanout_sent) {
          return false;
        }
        int have = Pop(static_cast<uint16_t>(p.rep_acks & m.AcceptorMask()));
        if ((m.AcceptorMask() & Bit(self)) != 0) {
          ++have;  // The leader's own durable accept.
        }
        return have >= m.commit_quorum();
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        SpecProc& p = ctx.me();
        ctx.Force("takeover", "commit", "tm.takeover.commit_force",
                  {p.accepted_value == SpecDecision::kCommit ? SpecLogKind::kCommitRec
                                                             : SpecLogKind::kAbortRec});
        ctx.Decide(p.accepted_value);
        ctx.DropLocks();
        p.phase = SpecPhase::kLeadNotify;
        p.fanout_sent = false;
      }});

  rules_.push_back(SpecRule{
      "leader.notify", true, false, std::nullopt,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg*) {
        return P(s, self).phase == SpecPhase::kLeadNotify && !P(s, self).fanout_sent &&
               P(s, self).decided != SpecDecision::kNone;
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        SpecProc& p = ctx.me();
        const SpecMsgType t =
            p.decided == SpecDecision::kCommit ? SpecMsgType::kCommit : SpecMsgType::kAbort;
        for (int q = 0; q < ctx.machine().n(); ++q) {
          if (q != ctx.self()) {
            ctx.Send("takeover", q, Mk(t));
          }
        }
        p.fanout_sent = true;
      }});

  rules_.push_back(SpecRule{
      "leader.ack.record", false, false, SpecMsgType::kCommitAck,
      [](const SpecMachine&, const SpecState& s, int self, const SpecMsg* msg) {
        return P(s, self).phase == SpecPhase::kLeadNotify &&
               (P(s, self).acks & Bit(msg->from)) == 0;
      },
      [](SpecCtx& ctx, const SpecMsg* msg) { ctx.me().acks |= Bit(msg->from); }});

  rules_.push_back(SpecRule{
      "leader.end", true, false, std::nullopt,
      [](const SpecMachine& m, const SpecState& s, int self, const SpecMsg*) {
        const SpecProc& p = P(s, self);
        if (p.phase != SpecPhase::kLeadNotify || !p.fanout_sent) {
          return false;
        }
        if (p.decided == SpecDecision::kAbort) {
          return true;  // Presumed abort: no acks needed.
        }
        const uint16_t need = static_cast<uint16_t>(m.UpdateSubMask() & ~Bit(self));
        return (p.acks & need) == need;
      },
      [](SpecCtx& ctx, const SpecMsg*) {
        ctx.Spool("takeover", "end", {SpecLogKind::kEndRec});
        ctx.Retire();
      }});

  // The coordinator defers to a decided takeover round (the PR2 fix): adopt
  // the broadcast decision instead of clobbering it with its own.
  for (const bool commit : {true, false}) {
    rules_.push_back(SpecRule{
        commit ? "coord.adopt.commit" : "coord.adopt.abort", false, false,
        commit ? SpecMsgType::kCommit : SpecMsgType::kAbort,
        [](const SpecMachine&, const SpecState& s, int self, const SpecMsg*) {
          const SpecPhase ph = P(s, 0).phase;
          return self == 0 && P(s, 0).decided == SpecDecision::kNone &&
                 (ph == SpecPhase::kVoteWait || ph == SpecPhase::kRepWait ||
                  ph == SpecPhase::kPrepared || ph == SpecPhase::kStart ||
                  ph == SpecPhase::kGather || ph == SpecPhase::kTakeRepWait);
        },
        [commit](SpecCtx& ctx, const SpecMsg*) {
          ctx.Spool("coord", commit ? "commit" : "abort",
                    {commit ? SpecLogKind::kCommitRec : SpecLogKind::kAbortRec});
          ctx.Decide(commit ? SpecDecision::kCommit : SpecDecision::kAbort);
          ctx.DropLocks();
          ctx.Retire();
        }});
  }

  // Recovered in-doubt coordinators also resolve via the shared status /
  // takeover machinery; prepared-coordinator status queries go nowhere (it IS
  // the coordinator), so candidacy above includes proc 0.
}

// --- Move enumeration and application ----------------------------------------

void SpecMachine::EnabledMoves(const SpecState& s, const SpecBounds& bounds,
                               std::vector<SpecMove>* out) const {
  out->clear();
  int total_takeovers = 0;
  for (const SpecProc& pr : s.procs) {
    total_takeovers += pr.takeover_rounds;
  }

  // Internal rules, proc-major.
  for (int p = 0; p < n(); ++p) {
    if (s.procs[static_cast<size_t>(p)].crashed) {
      continue;
    }
    for (const int r : internal_rules_) {
      const SpecRule& rule = rules_[static_cast<size_t>(r)];
      if (rule.takeover_start &&
          (s.procs[static_cast<size_t>(p)].takeover_rounds >= bounds.max_takeover_rounds ||
           total_takeovers >= bounds.max_total_takeovers)) {
        continue;
      }
      if (rule.guard(*this, s, p, nullptr)) {
        SpecMove mv;
        mv.kind = SpecMove::Kind::kRule;
        mv.proc = p;
        mv.rule = r;
        out->push_back(mv);
      }
    }
  }

  // Deliveries: every (message, matching rule) pair. The message stays in the
  // set, so ForEachSuccessor filters out re-deliveries that change nothing.
  for (const SpecMsg& m : s.net) {
    const int to = m.to;
    if (to >= n() || s.procs[static_cast<size_t>(to)].crashed) {
      continue;
    }
    for (const int r : delivery_rules_[static_cast<size_t>(m.type)]) {
      const SpecRule& rule = rules_[static_cast<size_t>(r)];
      if (rule.guard(*this, s, to, &m)) {
        SpecMove mv;
        mv.kind = SpecMove::Kind::kDeliver;
        mv.proc = to;
        mv.rule = r;
        mv.msg = m;
        out->push_back(mv);
      }
    }
  }

  // Environment: crash / recover / lose / no-vote, bounded by budget.
  if (s.crashes_used < bounds.max_crashes) {
    for (int p = 0; p < n(); ++p) {
      const SpecProc& pr = s.procs[static_cast<size_t>(p)];
      // A machine can crash at ANY time — including after retiring, which is
      // precisely the window where an insufficiently-forced spool is lost.
      if (!pr.crashed) {
        SpecMove mv;
        mv.kind = SpecMove::Kind::kCrash;
        mv.proc = p;
        out->push_back(mv);
      }
    }
  }
  for (int p = 0; p < n(); ++p) {
    if (s.procs[static_cast<size_t>(p)].crashed) {
      SpecMove mv;
      mv.kind = SpecMove::Kind::kRecover;
      mv.proc = p;
      out->push_back(mv);
    }
  }
  if (s.losses_used < bounds.max_losses) {
    for (const SpecMsg& m : s.net) {
      SpecMove mv;
      mv.kind = SpecMove::Kind::kLose;
      mv.msg = m;
      out->push_back(mv);
    }
  }
  if (s.no_votes_used < bounds.max_no_votes && scenario_.outcome == TxnOutcome::kCommit) {
    for (int p = 1; p < n(); ++p) {
      const SpecProc& pr = s.procs[static_cast<size_t>(p)];
      if (!pr.crashed && pr.phase == SpecPhase::kStart) {
        SpecMove mv;
        mv.kind = SpecMove::Kind::kNoVote;
        mv.proc = p;
        out->push_back(mv);
      }
    }
  }
}

SpecState SpecMachine::Apply(const SpecState& s, const SpecMove& move, SpecEffect* eff) const {
  SpecState next = s;
  ApplyTo(&next, move, eff);
  return next;
}

void SpecMachine::ApplyTo(SpecState* s, const SpecMove& move, SpecEffect* eff) const {
  switch (move.kind) {
    case SpecMove::Kind::kRule: {
      SpecCtx ctx(*this, s, move.proc, eff);
      rules_[static_cast<size_t>(move.rule)].apply(ctx, nullptr);
      break;
    }
    case SpecMove::Kind::kDeliver: {
      SpecCtx ctx(*this, s, move.proc, eff);
      SpecMsg m = move.msg;  // The rule sees a copy; the set keeps the original.
      rules_[static_cast<size_t>(move.rule)].apply(ctx, &m);
      break;
    }
    case SpecMove::Kind::kCrash: {
      SpecProc& p = s->procs[static_cast<size_t>(move.proc)];
      p.crashed = true;
      p.log.resize(p.durable_len);
      // Volatile state evaporates; normalized to fixed values so states that
      // differ only in pre-crash volatile garbage canonicalize equal.
      p.phase = SpecPhase::kStart;
      p.locks = false;
      p.decided = SpecDecision::kNone;
      p.promised = 0;
      p.has_accepted = false;
      p.accepted_epoch = 0;
      p.accepted_value = SpecDecision::kNone;
      p.voted_mask = 0;
      p.no_mask = 0;
      p.acks = 0;
      p.rep_acks = 0;
      p.promises = 0;
      p.lead_epoch = 0;
      p.takeover_rounds = 0;
      p.fanout_sent = false;
      p.notifier = 0;
      p.saw_decision = false;
      p.seen_decision = SpecDecision::kNone;
      p.best_has = false;
      p.best_epoch = 0;
      p.best_value = SpecDecision::kNone;
      s->crashes_used += 1;
      if (eff != nullptr) {
        eff->notes.push_back("p" + std::to_string(move.proc) + " crashes");
      }
      break;
    }
    case SpecMove::Kind::kRecover:
      Recover(s, move.proc, eff);
      break;
    case SpecMove::Kind::kLose:
      s->EraseMsg(move.msg);
      s->losses_used += 1;
      if (eff != nullptr) {
        eff->notes.push_back("lose " + move.msg.Describe());
      }
      break;
    case SpecMove::Kind::kNoVote: {
      SpecCtx ctx(*this, s, move.proc, eff);
      SpecMsg v = Mk(SpecMsgType::kVote);
      v.vote = 0;
      if (scenario_.options.protocol == CommitProtocol::kPaxos) {
        for (int a = 0; a < acceptors_; ++a) {
          ctx.Send("sub", a, v);
        }
      } else {
        ctx.Send("sub", 0, v);
      }
      ctx.Spool("sub", "abort", {SpecLogKind::kAbortRec});
      ctx.Decide(SpecDecision::kAbort);
      ctx.DropLocks();
      ctx.Retire();
      s->no_votes_used += 1;
      break;
    }
  }
}

std::string SpecMachine::MoveLabel(const SpecMove& move) const {
  switch (move.kind) {
    case SpecMove::Kind::kRule:
      return "p" + std::to_string(move.proc) + " " +
             rules_[static_cast<size_t>(move.rule)].name;
    case SpecMove::Kind::kDeliver:
      return "deliver " + move.msg.Describe() + " -> " +
             rules_[static_cast<size_t>(move.rule)].name;
    case SpecMove::Kind::kCrash:
      return "crash p" + std::to_string(move.proc);
    case SpecMove::Kind::kRecover:
      return "recover p" + std::to_string(move.proc);
    case SpecMove::Kind::kLose:
      return "lose " + move.msg.Describe();
    case SpecMove::Kind::kNoVote:
      return "p" + std::to_string(move.proc) + " votes no";
  }
  return "?";
}

// --- Canonical serialization --------------------------------------------------

namespace {

// Canonical's sizes: the header (three budgets, the stability flag and
// proc), each proc's fixed fields, one log record and one message. Beside
// them go one observed decision per proc and the 16-bit message count.
constexpr size_t kCanonHeaderBytes = 5;
constexpr size_t kCanonProcBytes = 24;
constexpr size_t kCanonLogRecBytes = 3;
constexpr size_t kCanonMsgBytes = 7;

void PutU8(char** out, uint64_t v) { *(*out)++ = static_cast<char>(v & 0xff); }

void PutU16(char** out, uint16_t v) {
  PutU8(out, v);
  PutU8(out, v >> 8);
}

uint8_t GetU8(const char** in) { return static_cast<uint8_t>(*(*in)++); }

uint16_t GetU16(const char** in) {
  const uint16_t lo = GetU8(in);
  return static_cast<uint16_t>(lo | GetU8(in) << 8);
}

}  // namespace

std::string SpecMachine::Canonical(const SpecState& s) const {
  std::string bytes;
  CanonicalInto(s, &bytes);
  return bytes;
}

void SpecMachine::CanonicalInto(const SpecState& s, std::string* bytes) const {
  size_t size = kCanonHeaderBytes + static_cast<size_t>(n()) + sizeof(uint16_t) +
                kCanonMsgBytes * s.net.size();
  for (const SpecProc& p : s.procs) {
    size += kCanonProcBytes + kCanonLogRecBytes * p.log.size();
  }
  bytes->resize(size);
  char* out = bytes->data();
  PutU8(&out, s.crashes_used);
  PutU8(&out, s.losses_used);
  PutU8(&out, s.no_votes_used);
  PutU8(&out, s.stability_broken ? 1 : 0);
  PutU8(&out, s.stability_proc);
  for (int p = 0; p < n(); ++p) {
    PutU8(&out, static_cast<uint8_t>(s.observed[static_cast<size_t>(p)]));
  }
  for (const SpecProc& p : s.procs) {
    PutU8(&out, (p.crashed ? 1 : 0) | (p.locks ? 2 : 0) | (p.has_accepted ? 4 : 0) |
                    (p.fanout_sent ? 8 : 0) | (p.saw_decision ? 16 : 0) |
                    (p.best_has ? 32 : 0));
    PutU8(&out, static_cast<uint8_t>(p.phase));
    PutU8(&out, static_cast<uint8_t>(p.decided));
    PutU8(&out, p.promised);
    PutU8(&out, p.accepted_epoch);
    PutU8(&out, static_cast<uint8_t>(p.accepted_value));
    PutU16(&out, p.voted_mask);
    PutU16(&out, p.no_mask);
    PutU16(&out, p.acks);
    PutU16(&out, p.rep_acks);
    PutU16(&out, p.promises);
    PutU8(&out, p.lead_epoch);
    PutU8(&out, p.takeover_rounds);
    PutU8(&out, p.notifier);
    PutU8(&out, static_cast<uint8_t>(p.seen_decision));
    PutU8(&out, p.best_epoch);
    PutU8(&out, static_cast<uint8_t>(p.best_value));
    PutU8(&out, p.durable_len);
    PutU8(&out, p.log.size());
    for (const SpecLogRec& r : p.log) {
      PutU8(&out, static_cast<uint8_t>(r.kind));
      PutU8(&out, r.epoch);
      PutU8(&out, static_cast<uint8_t>(r.value));
    }
  }
  PutU16(&out, static_cast<uint16_t>(s.net.size()));
  for (const SpecMsg& m : s.net) {
    PutU8(&out, m.from);
    PutU8(&out, m.to);
    PutU8(&out, static_cast<uint8_t>(m.type));
    PutU8(&out, m.vote);
    PutU8(&out, m.epoch);
    PutU8(&out, m.value);
    PutU8(&out, m.accepted);
  }
  CAMELOT_CHECK(out == bytes->data() + bytes->size());
}

void SpecMachine::Decode(std::string_view bytes, SpecState* s) const {
  const char* in = bytes.data();
  s->crashes_used = GetU8(&in);
  s->losses_used = GetU8(&in);
  s->no_votes_used = GetU8(&in);
  s->stability_broken = GetU8(&in) != 0;
  s->stability_proc = GetU8(&in);
  s->observed.fill(SpecDecision::kNone);
  for (int p = 0; p < n(); ++p) {
    s->observed[static_cast<size_t>(p)] = DecisionOf(GetU8(&in));
  }
  s->procs.resize(static_cast<size_t>(n()));
  for (SpecProc& p : s->procs) {
    const uint8_t flags = GetU8(&in);
    p.crashed = (flags & 1) != 0;
    p.locks = (flags & 2) != 0;
    p.has_accepted = (flags & 4) != 0;
    p.fanout_sent = (flags & 8) != 0;
    p.saw_decision = (flags & 16) != 0;
    p.best_has = (flags & 32) != 0;
    p.phase = static_cast<SpecPhase>(GetU8(&in));
    p.decided = DecisionOf(GetU8(&in));
    p.promised = GetU8(&in);
    p.accepted_epoch = GetU8(&in);
    p.accepted_value = DecisionOf(GetU8(&in));
    p.voted_mask = GetU16(&in);
    p.no_mask = GetU16(&in);
    p.acks = GetU16(&in);
    p.rep_acks = GetU16(&in);
    p.promises = GetU16(&in);
    p.lead_epoch = GetU8(&in);
    p.takeover_rounds = GetU8(&in);
    p.notifier = GetU8(&in);
    p.seen_decision = DecisionOf(GetU8(&in));
    p.best_epoch = GetU8(&in);
    p.best_value = DecisionOf(GetU8(&in));
    p.durable_len = GetU8(&in);
    p.log.resize(GetU8(&in));
    for (SpecLogRec& r : p.log) {
      r.kind = static_cast<SpecLogKind>(GetU8(&in));
      r.epoch = GetU8(&in);
      r.value = DecisionOf(GetU8(&in));
    }
  }
  s->net.resize(GetU16(&in));
  for (SpecMsg& m : s->net) {
    m.from = GetU8(&in);
    m.to = GetU8(&in);
    m.type = static_cast<SpecMsgType>(GetU8(&in));
    m.vote = GetU8(&in);
    m.epoch = GetU8(&in);
    m.value = GetU8(&in);
    m.accepted = GetU8(&in);
  }
  CAMELOT_CHECK(in == bytes.data() + bytes.size());
}

std::string SpecMachine::DumpState(const SpecState& s) const {
  std::string out;
  char buf[256];
  for (int i = 0; i < n(); ++i) {
    const SpecProc& p = s.procs[static_cast<size_t>(i)];
    const char* role = i == 0 ? "coord" : (IsUpdateSub(i) ? "upd-sub" : "ro-sub");
    std::snprintf(buf, sizeof(buf),
                  "  p%d %-7s %-13s%s decided=%-9s locks=%d log=%zu(durable %u)", i, role,
                  SpecPhaseName(p.phase), p.crashed ? " CRASHED" : "",
                  SpecDecisionName(p.decided), p.locks ? 1 : 0, p.log.size(), p.durable_len);
    out += buf;
    if (p.promised != 0 || p.has_accepted) {
      std::snprintf(buf, sizeof(buf), " promised=%llu",
                    static_cast<unsigned long long>(p.promised));
      out += buf;
      if (p.has_accepted) {
        std::snprintf(buf, sizeof(buf), " accepted=(e%llu,%s)",
                      static_cast<unsigned long long>(p.accepted_epoch),
                      SpecDecisionName(p.accepted_value));
        out += buf;
      }
    }
    if (s.observed[static_cast<size_t>(i)] != SpecDecision::kNone) {
      out += " observed=";
      out += SpecDecisionName(s.observed[static_cast<size_t>(i)]);
    }
    out += '\n';
  }
  for (const SpecMsg& m : s.net) {
    out += "  net: " + m.Describe() + "\n";
  }
  std::snprintf(buf, sizeof(buf), "  budget: crashes=%d losses=%d no-votes=%d\n",
                s.crashes_used, s.losses_used, s.no_votes_used);
  out += buf;
  return out;
}

// --- Crash recovery -----------------------------------------------------------

void SpecMachine::Recover(SpecState* s, int proc, SpecEffect* eff) const {
  SpecProc& p = s->procs[static_cast<size_t>(proc)];
  p.crashed = false;
  // Rebuild volatile state from the durable log prefix (the crash already
  // truncated the log and zeroed the volatile fields).
  SpecDecision decided = SpecDecision::kNone;
  bool has_ack_rec = false;
  bool led_round = false;  // Durably started a takeover round of its own.
  for (const SpecLogRec& r : p.log) {
    switch (r.kind) {
      case SpecLogKind::kCommitRec:
        decided = SpecDecision::kCommit;
        break;
      case SpecLogKind::kAbortRec:
        decided = SpecDecision::kAbort;
        break;
      case SpecLogKind::kAckRec:
        has_ack_rec = true;
        break;
      case SpecLogKind::kPromiseRec:
        if (r.epoch > p.promised) {
          p.promised = r.epoch;
        }
        if (r.epoch % 16 == static_cast<uint64_t>(proc)) {
          led_round = true;
          const uint8_t round = static_cast<uint8_t>(r.epoch / 16);
          if (round > p.takeover_rounds) {
            p.takeover_rounds = round;
          }
        }
        break;
      case SpecLogKind::kAcceptRec:
        if (!p.has_accepted || r.epoch >= p.accepted_epoch) {
          p.has_accepted = true;
          p.accepted_epoch = r.epoch;
          p.accepted_value = r.value;
        }
        if (r.epoch > p.promised) {
          p.promised = r.epoch;
        }
        break;
      case SpecLogKind::kPrepareRec:
      case SpecLogKind::kEndRec:
        break;
    }
  }

  SpecCtx ctx(*this, s, proc, eff);
  if (eff != nullptr) {
    eff->notes.push_back("p" + std::to_string(proc) + " recovers");
  }

  if (decided == SpecDecision::kCommit) {
    ctx.Decide(SpecDecision::kCommit);  // Stability-checked re-announcement.
    p.locks = false;
    if (proc == 0 && !HasRec(p, SpecLogKind::kEndRec)) {
      p.phase = SpecPhase::kNotify;  // Re-drive phase 2 until every ack lands.
      p.fanout_sent = false;
    } else if (led_round && !HasRec(p, SpecLogKind::kEndRec)) {
      // A takeover leader that decided durably but never logged its end
      // record re-drives the outcome broadcast: its peers promised into this
      // round and may have no takeover budget left to learn any other way.
      p.phase = SpecPhase::kLeadNotify;
      p.fanout_sent = false;
    } else if (proc != 0 && IsUpdateSub(proc) && !has_ack_rec &&
               !scenario_.options.force_subordinate_commit) {
      p.phase = SpecPhase::kNotify;  // Redo the delayed-ack force.
      p.notifier = 0;
    } else {
      p.phase = SpecPhase::kDone;
    }
    return;
  }
  if (decided == SpecDecision::kAbort) {
    ctx.Decide(SpecDecision::kAbort);
    p.locks = false;
    if (led_round && !HasRec(p, SpecLogKind::kEndRec)) {
      // Same hole on the abort side — and it is not excused by presumed
      // abort: a peer blocked on this completed round cannot inquire without
      // starting a round of its own. The checker found exactly this trace
      // (leader adopts abort, crashes before notifying, recovers retired;
      // a prepared peer blocks forever).
      p.phase = SpecPhase::kLeadNotify;
      p.fanout_sent = false;
    } else {
      p.phase = SpecPhase::kDone;
    }
    return;
  }

  // Undecided. What happens next is the variant-defining choice.
  const bool prepared = HasRec(p, SpecLogKind::kPrepareRec);
  switch (scenario_.options.protocol) {
    case CommitProtocol::kTwoPhase:
      if (proc == 0) {
        // No commit record survived: presume abort (the mutation knob flips
        // the presumption to expose why it must be abort).
        ctx.Spool("coord", "abort", {knobs_.presume_abort_on_unknown
                                         ? SpecLogKind::kAbortRec
                                         : SpecLogKind::kCommitRec});
        ctx.Decide(knobs_.presume_abort_on_unknown ? SpecDecision::kAbort
                                                   : SpecDecision::kCommit);
        p.locks = false;
        p.phase = SpecPhase::kDone;
      } else if (prepared && IsUpdateSub(proc)) {
        p.phase = SpecPhase::kPrepared;  // In doubt: re-acquire locks, block.
        p.locks = true;
      } else if (IsUpdateSub(proc)) {
        ctx.Spool("sub", "abort", {SpecLogKind::kAbortRec});
        ctx.Decide(SpecDecision::kAbort);
        p.locks = false;
        p.phase = SpecPhase::kDone;
      } else {
        // A read-only participant made no changes: it forgets the family
        // silently, with nothing externally observable to decide.
        p.locks = false;
        p.phase = SpecPhase::kDone;
      }
      break;
    case CommitProtocol::kNonBlocking:
      if (p.has_accepted) {
        // Mid-replication (or promised into someone's round): rejoin in doubt
        // and let the takeover machinery finish.
        p.phase = SpecPhase::kPrepared;
        p.locks = proc == 0 ? scenario_.local_updates : IsUpdateSub(proc);
      } else if (proc == 0) {
        // No replicate force survived, so no accept quorum can exist: the
        // coordinator may still presume abort safely.
        ctx.Spool("coord", "abort", {SpecLogKind::kAbortRec});
        ctx.Decide(SpecDecision::kAbort);
        p.locks = false;
        p.phase = SpecPhase::kDone;
      } else if (prepared) {
        p.phase = SpecPhase::kPrepared;
        p.locks = IsUpdateSub(proc);
      } else if (IsUpdateSub(proc)) {
        ctx.Spool("sub", "abort", {SpecLogKind::kAbortRec});
        ctx.Decide(SpecDecision::kAbort);
        p.locks = false;
        p.phase = SpecPhase::kDone;
      } else {
        // Read-only participant: forget silently (see the 2PC branch).
        p.locks = false;
        p.phase = SpecPhase::kDone;
      }
      break;
    case CommitProtocol::kPaxos:
      // The decision lives in the acceptor quorum, never in any single log:
      // nobody presumes anything while prepared / accepted / coordinating.
      if (proc == 0) {
        p.phase = SpecPhase::kPrepared;  // In doubt; takeover candidacy resolves it.
        p.locks = scenario_.local_updates && (prepared || p.has_accepted);
      } else if (prepared || p.has_accepted) {
        p.phase = IsUpdateSub(proc) ? SpecPhase::kPrepared : SpecPhase::kRoWait;
        p.locks = IsUpdateSub(proc);
      } else {
        // Never voted yes durably: presume abort locally.
        if (IsUpdateSub(proc)) {
          ctx.Spool("sub", "abort", {SpecLogKind::kAbortRec});
          ctx.Decide(SpecDecision::kAbort);
        }
        p.locks = false;
        p.phase = SpecPhase::kDone;
      }
      break;
  }
}

// --- Fault-free fold ----------------------------------------------------------

SpecMachine::FoldResult SpecMachine::FoldFaultFree(int max_steps) const {
  FoldResult res;
  SpecState s = Initial();
  // Delivery bookkeeping: the state's net is an unordered set, but the
  // fault-free path must process each destination's messages in send order
  // (the runtime transport is FIFO per link), so the fold keeps its own
  // append-ordered list of every message ever sent.
  std::vector<SpecMsg> fifo;
  auto absorb_new_msgs = [&](const SpecState& before, const SpecState& after) {
    for (const SpecMsg& m : after.net) {
      if (!before.HasMsg(m)) {
        fifo.push_back(m);
      }
    }
  };

  // No fault budget: the only moves are rule firings and deliveries.
  SpecBounds fault_free;
  fault_free.max_takeover_rounds = 0;
  SpecScratch scratch;
  std::string bytes;
  for (; res.steps < max_steps; ++res.steps) {
    // The first enabled non-fault internal rule (proc-major), else the
    // delivery of the earliest-sent message, its rules in order.
    std::optional<SpecMove> pick;
    size_t pick_sent = fifo.size();
    CanonicalInto(s, &bytes);
    ForEachSuccessor(s, bytes, fault_free, &scratch,
                     [&](const SpecMove& mv, const SpecState&, std::string_view) {
                       if (rules_[static_cast<size_t>(mv.rule)].fault_only) {
                         return true;
                       }
                       if (mv.kind == SpecMove::Kind::kRule) {
                         pick = mv;
                         return false;
                       }
                       const size_t sent = static_cast<size_t>(
                           std::find(fifo.begin(), fifo.end(), mv.msg) - fifo.begin());
                       if (sent < pick_sent) {
                         pick = mv;
                         pick_sent = sent;
                       }
                       return true;
                     });
    if (!pick.has_value()) {
      break;  // Quiescent.
    }
    SpecEffect eff;
    SpecState next = Apply(s, *pick, &eff);
    for (const auto& kv : eff.counts) {
      res.counts[kv.first] += kv.second;
    }
    res.detail += MoveLabel(*pick) + "\n";
    absorb_new_msgs(s, next);
    s = std::move(next);
  }

  res.complete = res.steps < max_steps && !s.stability_broken;
  for (int p = 0; p < n() && res.complete; ++p) {
    const SpecProc& pr = s.procs[static_cast<size_t>(p)];
    if (pr.phase != SpecPhase::kDone) {
      res.complete = false;
      res.detail += "incomplete: p" + std::to_string(p) + " stuck in " +
                    SpecPhaseName(pr.phase) + "\n";
    }
    const SpecDecision want =
        scenario_.outcome == TxnOutcome::kCommit ? SpecDecision::kCommit : SpecDecision::kAbort;
    if (NeedsDecision(p) && pr.decided != want) {
      res.complete = false;
      res.detail += "incomplete: p" + std::to_string(p) + " decided " +
                    SpecDecisionName(pr.decided) + "\n";
    }
  }
  return res;
}

}  // namespace camelot
