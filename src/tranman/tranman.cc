#include "src/tranman/tranman.h"

#include <algorithm>
#include <string_view>

#include "src/base/logging.h"
#include "src/sim/sync.h"

namespace camelot {

namespace {

// Epochs encode (round, site) so concurrent takeover coordinators never collide.
uint64_t MakeEpoch(uint64_t round, SiteId site) { return (round << 8) | (site.value & 0xff); }
uint64_t EpochRound(uint64_t epoch) { return epoch >> 8; }

Bytes EncodeTid(const Tid& tid) {
  ByteWriter w;
  w.Transaction(tid);
  return w.Take();
}

// Coordinator: total time to wait for votes before aborting.
constexpr SimDuration kVoteTimeout = Sec(5.0);
// How long a delayed ("piggybacked") commit-ack waits before riding a forced
// batch (the ack is only ever sent after the commit record is durable).
constexpr SimDuration kAckDelay = Usec(50000);
// Orphan detection: unreachable or unknown answers before an active
// subordinate family aborts itself.
constexpr int kMaxOrphanProbes = 3;
// 2PC blocked subordinate: status-query attempts before parking (it stays
// receptive; a recovered coordinator's SITE-UP beacon wakes it).
constexpr int kMaxStatusRounds = 10;
// Silence-driven waits (blocked-subordinate status queries, takeover retry
// pauses, phase-2 and vote retransmits) grow by kBackoffMultiplier per
// consecutive silent round, capped at the matching *Max, and jittered by
// +/- kBackoffJitter so a partitioned cohort does not retry in lockstep.
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffJitter = 0.2;
constexpr SimDuration kRetryIntervalMax = Sec(4.0);
constexpr SimDuration kOutcomeTimeoutMax = Sec(6.0);
constexpr SimDuration kTakeoverBackoffMax = Sec(6.0);
// Stuck-family watchdog: a family still undecided this long after entering
// a commit flow is surfaced in counters().stuck_families (observation only;
// the protocols keep running).
constexpr SimDuration kStuckFamilyDeadline = Sec(60.0);
// Bound on each destination's off-path piggyback queue; the oldest message
// is dropped (counters().offpath_dropped) when a long partition backs it up.
// Always safe: off-path messages are retried or re-derived by protocol
// timeouts.
constexpr size_t kOffpathQueueLimit = 256;

}  // namespace

TranMan::TranMan(Site& site, Network& net, ComMan& comman, StableLog& log, TranManConfig config)
    : site_(site),
      net_(net),
      comman_(comman),
      log_(log),
      config_(config),
      pool_(site.sched(), config.worker_threads),
      // Seeded from the site id, NOT forked from the scheduler's stream:
      // constructing a TranMan must not consume shared draws, or adding a
      // site would shift every other component's random trajectory.
      rng_(0x9e3779b97f4a7c15ULL ^
           (static_cast<uint64_t>(site.id().value) * 0xbf58476d1ce4e5b9ULL)) {
  pool_.set_admission_limit(config_.admission_queue_limit);
  pool_.set_admission_policy(config_.admission_policy);
  site_.RegisterService(kTranManServiceName,
                        [this](RpcContext ctx, uint32_t method, Bytes body) {
                          return Handle(ctx, method, std::move(body));
                        });
  net_.Bind(site_.id(), kTranManService, [this](Datagram dg) { OnDatagram(std::move(dg)); });
  net_.AddTopologyListener([this] { OnTopologyChange(); });
  site_.AddCrashListener([this] {
    // Volatile state evaporates; coroutines mid-protocol notice via closed
    // inboxes and incarnation checks. Family memory moves to the graveyard so
    // suspended coroutines holding pointers stay memory-safe.
    for (auto& [id, fam] : families_) {
      if (fam->inbox) {
        fam->inbox->Close();
      }
      graveyard_.push_back(std::move(fam));
    }
    families_.clear();
    readonly_voted_.clear();
    offpath_queue_.clear();
  });
}

// --- Plumbing --------------------------------------------------------------------

TranMan::Family* TranMan::FindFamily(const FamilyId& id) {
  auto it = families_.find(id);
  return it == families_.end() ? nullptr : it->second.get();
}

const TranMan::Family* TranMan::FindFamily(const FamilyId& id) const {
  auto it = families_.find(id);
  return it == families_.end() ? nullptr : it->second.get();
}

TranMan::Family* TranMan::CreateFamily(const Tid& top) {
  auto fam = std::make_unique<Family>();
  fam->top = top.TopLevel();
  Family* raw = fam.get();
  if (const auto it = orphan_promises_.find(top.family); it != orphan_promises_.end()) {
    raw->promised_epoch = it->second;  // The promise binds the family it reserved.
    orphan_promises_.erase(it);
  }
  families_.emplace(top.family, std::move(fam));
  return raw;
}

void TranMan::RecordOutcome(const FamilyId& family, bool committed) {
  if (committed) {
    ++counters_.committed;
  } else {
    ++counters_.aborted;
  }
  site_.RecordOutcome(family, committed);
}

bool TranMan::Decide(Family* fam, TmDecision decision) {
  const bool commit = decision == TmDecision::kCommit;
  ClearBlocked(fam);
  // Each point name stays a literal argument, as scripts/lint_failpoints.py
  // registers them.
  if (commit ? AtTransition("tm.committed") : AtTransition("tm.aborted")) {
    return false;
  }
  fam->state = commit ? TmTxnState::kCommitted : TmTxnState::kAborted;
  RecordOutcome(fam->top.family, commit);
  return true;
}

void TranMan::RetireFamily(const FamilyId& id) {
  auto it = families_.find(id);
  if (it == families_.end()) {
    return;
  }
  if (it->second->inbox) {
    it->second->inbox->Close();
  }
  graveyard_.push_back(std::move(it->second));
  families_.erase(it);
  comman_.Forget(id);
}

Async<bool> TranMan::AtForcePoint(const char* point, const char* suffix, uint32_t inc) {
  const FailpointHit hit = failpoints_.Eval(point, suffix);
  if (hit.action == FailpointAction::kDelay) {
    co_await site_.sched().Delay(hit.delay);
  }
  co_return !Dead(inc) && hit.action != FailpointAction::kError;
}

namespace {

// Maps a force failpoint name to the {role, phase} the static analysis
// predicts under. Every protocol force flows through ForceAt, so this table
// is the single attribution point.
struct ForceAttribution {
  const char* role;
  const char* phase;
};

ForceAttribution AttributeForce(std::string_view point) {
  if (point == "tm.local.commit_force") return {"coord", "local.commit"};
  if (point == "tm.2pc.commit_force") return {"coord", "2pc.commit"};
  if (point == "tm.sub.prepare_force") return {"sub", "prepare"};
  if (point == "tm.sub.commit_force") return {"sub", "commit"};
  if (point == "tm.sub.ack_force") return {"sub", "ack"};
  if (point == "tm.nbc.prepare_force") return {"coord", "nbc.prepare"};
  if (point == "tm.nbc.replicate_force") return {"coord", "nbc.replicate"};
  if (point == "tm.nbc.commit_force") return {"coord", "nbc.commit"};
  if (point == "tm.takeover.replicate_force") return {"takeover", "replicate"};
  if (point == "tm.takeover.commit_force") return {"takeover", "commit"};
  if (point == "tm.accept.replicate_force") return {"sub", "accept.replicate"};
  if (point == "tm.paxos.prepare_force") return {"coord", "paxos.prepare"};
  if (point == "tm.paxos.accept_force") return {"acceptor", "paxos.accept"};
  return {"tm", "other"};
}

}  // namespace

Async<bool> TranMan::ForceAt(const char* point, const FamilyId& family, Lsn lsn,
                             bool hold_worker) {
  const uint32_t inc = site_.incarnation();
  if (failpoints_.active() && !co_await AtForcePoint(point, ".before", inc)) {
    co_return false;
  }
  if (hold_worker) {
    co_await pool_.Acquire();
  }
  const bool durable = co_await log_.Force(lsn);
  if (hold_worker) {
    pool_.Release();
  }
  if (!durable) {
    co_return false;
  }
  if (failpoints_.active() && !co_await AtForcePoint(point, ".after", inc)) {
    co_return false;
  }
  if (!Dead(inc)) {
    const ForceAttribution attr = AttributeForce(point);
    site_.RecordCost(family, attr.role, attr.phase, CostPrimitive::kLogForce);
    co_return true;
  }
  co_return false;
}

Async<bool> TranMan::Accept(Family* fam, const char* point, SiteId proposer, uint64_t epoch,
                            TmDecision decision, uint32_t commit_quorum, uint32_t abort_quorum,
                            bool hold_worker) {
  fam->has_replication = true;
  fam->replicated_epoch = epoch;
  fam->replicated_decision = decision;
  const Lsn lsn = log_.Append(LogRecord::Replication(fam->top, proposer, epoch,
                                                     static_cast<uint8_t>(decision), fam->sites,
                                                     fam->protocol, commit_quorum, abort_quorum));
  co_return co_await ForceAt(point, fam->top.family, lsn, hold_worker);
}

void TranMan::RecordDatagram(const TmMsg& msg) {
  const char* role = "peer";
  switch (msg.type) {
    case TmMsgType::kPrepare:
    case TmMsgType::kCommit:
    case TmMsgType::kReplicate:
      role = "coord";
      break;
    case TmMsgType::kVote:
      // Paxos fans every participant's vote out to the whole acceptor set, so
      // the coordinator sends votes too; 2PC/NBC only ever see "sub" here.
      role = msg.tid.family.origin == site_.id() ? "coord" : "sub";
      break;
    case TmMsgType::kCommitAck:
    case TmMsgType::kReplicateAck:
    case TmMsgType::kStatusReq:
      role = "sub";
      break;
    case TmMsgType::kPaxosAccepted:
      role = "acceptor";
      break;
    case TmMsgType::kAbort:
      // Abort diffusion from the family's origin is the coordinator-side
      // abort (a client abort never marks the family as coordinator, and
      // presumed abort may have forgotten the family entirely by send time).
      role = msg.tid.family.origin == site_.id() ? "coord" : "sub";
      break;
    case TmMsgType::kStatusResp:
    case TmMsgType::kSiteUp:
      break;
  }
  site_.RecordCost(msg.tid.family, role, TmMsgTypeName(msg.type), CostPrimitive::kDatagram);
}

bool TranMan::AtTransition(const char* transition) {
  if (failpoints_.active()) {
    failpoints_.Eval(transition);
  }
  return !site_.up();
}

uint64_t TranMan::NextEpoch(Family* fam) {
  uint64_t round = fam->takeover_round + 1;
  const uint64_t seen = std::max(fam->promised_epoch, fam->replicated_epoch);
  round = std::max(round, EpochRound(seen) + 1);
  fam->takeover_round = round;
  return MakeEpoch(round, site_.id());
}

Status TranMan::HeuristicResolve(const FamilyId& family, TmDecision decision) {
  Family* fam = FindFamily(family);
  if (fam == nullptr) {
    return NotFoundError("unknown transaction");
  }
  if (fam->state != TmTxnState::kPrepared || fam->passive_acceptor) {
    return FailedPreconditionError("only a prepared (in-doubt) participant can be "
                                   "heuristically resolved");
  }
  ++counters_.heuristic_resolutions;
  fam->heuristic = true;
  // Deliver a synthetic COMMIT or ABORT to the waiting subordinate coroutine;
  // the normal path writes the outcome record (and, on commit, acks the
  // absent coordinator).
  TmMsg outcome;
  outcome.type = decision == TmDecision::kCommit ? TmMsgType::kCommit : TmMsgType::kAbort;
  outcome.tid = fam->top;
  outcome.from = site_.id();
  if (fam->inbox && !fam->inbox->closed()) {
    fam->inbox->Send(std::move(outcome));
  }
  return OkStatus();
}

TmTxnState TranMan::QueryState(const FamilyId& family) const {
  const Family* fam = FindFamily(family);
  return fam == nullptr ? TmTxnState::kUnknown : fam->state;
}

bool TranMan::IsBlocked(const FamilyId& family) const {
  const Family* fam = FindFamily(family);
  return fam != nullptr && fam->blocked;
}

size_t TranMan::live_family_count() const {
  size_t n = 0;
  for (const auto& [id, fam] : families_) {
    if (fam->state != TmTxnState::kCommitted && fam->state != TmTxnState::kAborted) {
      ++n;
    }
  }
  return n;
}

// --- Blocked-state and backoff plumbing --------------------------------------------

void TranMan::MarkBlocked(Family* fam) {
  if (fam->blocked) {
    return;
  }
  fam->blocked = true;
  fam->blocked_since = site_.sched().now();
  ++counters_.blocked_periods;
}

void TranMan::ClearBlocked(Family* fam) {
  if (!fam->blocked) {
    return;
  }
  fam->blocked = false;
  counters_.blocked_time_us +=
      static_cast<uint64_t>(site_.sched().now() - fam->blocked_since);
}

SimDuration TranMan::Backoff(SimDuration base, SimDuration cap, uint64_t attempt) {
  double d = static_cast<double>(base);
  for (uint64_t i = 0; i < attempt && d < static_cast<double>(cap); ++i) {
    d *= kBackoffMultiplier;
  }
  d = std::min(d, static_cast<double>(cap));
  d *= 1.0 - kBackoffJitter + 2.0 * kBackoffJitter * rng_.NextDouble();
  return std::max<SimDuration>(static_cast<SimDuration>(d), 1);
}

void TranMan::ArmStuckWatch(Family* fam) {
  if (fam->watchdog_armed) {
    return;
  }
  fam->watchdog_armed = true;
  site_.sched().Spawn(StuckFamilyWatch(fam->top.family, site_.incarnation()));
}

Async<void> TranMan::StuckFamilyWatch(FamilyId family_id, uint32_t inc) {
  co_await site_.sched().Delay(kStuckFamilyDeadline);
  if (Dead(inc)) {
    co_return;
  }
  Family* fam = FindFamily(family_id);
  if (fam == nullptr) {
    co_return;
  }
  fam->watchdog_armed = false;
  if (fam->state != TmTxnState::kCommitted && fam->state != TmTxnState::kAborted) {
    ++counters_.stuck_families;
    CTRACE("[%8.1fms] %s STUCK family %s undecided past deadline (state %d, blocked %d)",
           ToMs(site_.sched().now()), ToString(site_.id()).c_str(),
           ToString(fam->top).c_str(), static_cast<int>(fam->state),
           fam->blocked ? 1 : 0);
  }
}

void TranMan::OnTopologyChange() {
  if (!site_.up()) {
    return;
  }
  for (auto& [id, fam] : families_) {
    if (fam->state == TmTxnState::kPrepared && fam->committing && !fam->passive_acceptor &&
        !fam->is_coordinator) {
      // An in-doubt subordinate: restart its resolution clock and ask for
      // status right away (the response lands in the inbox and wakes even a
      // parked waiter). Without this, a participant that exhausted its rounds
      // during a partition would hold locks forever after the heal.
      fam->takeover_round = 0;
      ++counters_.status_queries;
      TmMsg req;
      req.type = TmMsgType::kStatusReq;
      req.tid = fam->top;
      if (fam->protocol == CommitProtocol::kTwoPhase) {
        SendMsg(fam->coordinator, req);
      } else {
        for (SiteId s : fam->sites) {
          if (s != site_.id()) {
            SendMsg(s, req);
          }
        }
      }
    } else if (fam->is_coordinator && fam->inbox && !fam->inbox->closed()) {
      // A parked phase-2 coordinator: nudge its inbox so it resends the
      // outcome to laggards (lost acks do not retransmit themselves).
      TmMsg nudge;
      nudge.type = TmMsgType::kSiteUp;
      nudge.tid = fam->top;
      nudge.from = site_.id();
      fam->inbox->Send(nudge);
    }
  }
}

// --- Datagram layer ----------------------------------------------------------------

namespace {

// The send gate's failpoints are "tm.send.<TYPE>" (TmMsgTypeName).
constexpr const char* kSendPointPrefix = "tm.send.";

Bytes EncodeBatch(const std::vector<TmMsg>& msgs) {
  ByteWriter w;
  w.U16(static_cast<uint16_t>(msgs.size()));
  for (const TmMsg& m : msgs) {
    w.Blob(m.Encode());
  }
  return w.Take();
}

}  // namespace

template <typename Defer>
TranMan::SendGate TranMan::GateSend(TmMsgType type, Defer&& defer) {
  if (!failpoints_.active()) {
    return SendGate::kTransmit;
  }
  const FailpointHit hit = failpoints_.Eval(kSendPointPrefix, TmMsgTypeName(type));
  if (!site_.up() || hit.action == FailpointAction::kDrop ||
      hit.action == FailpointAction::kError) {
    return SendGate::kLost;  // Crashed at the point, or the datagram is lost.
  }
  if (hit.action == FailpointAction::kDelay) {
    const uint32_t inc = site_.incarnation();
    site_.sched().Post(hit.delay, [this, inc, retry = defer()]() mutable {
      if (!Dead(inc)) {
        retry();
      }
    });
    return SendGate::kDeferred;
  }
  return SendGate::kTransmit;
}

void TranMan::SendMsg(SiteId dst, TmMsg msg) {
  msg.from = site_.id();
  const auto defer = [&] {
    return [this, dst, delayed = std::move(msg)]() mutable { SendMsg(dst, std::move(delayed)); };
  };
  if (GateSend(msg.type, defer) != SendGate::kTransmit) {
    return;
  }
  std::vector<TmMsg> batch{std::move(msg)};
  // Piggyback: queued off-path messages for this destination ride along.
  auto it = offpath_queue_.find(dst);
  if (it != offpath_queue_.end() && !it->second.empty()) {
    counters_.messages_piggybacked += it->second.size();
    for (TmMsg& queued : it->second) {
      batch.push_back(std::move(queued));
    }
    offpath_queue_.erase(it);
  }
  // Each logical message in the batch is its own ledger datagram, so the
  // measured counts do not depend on how piggybacking packed the wire.
  for (const TmMsg& m : batch) {
    RecordDatagram(m);
  }
  net_.Send(Datagram{site_.id(), dst, kTranManService,
                     static_cast<uint32_t>(batch.front().type), EncodeBatch(batch)});
}

void TranMan::SendMsgToAll(const std::vector<SiteId>& dsts, TmMsg msg) {
  if (dsts.empty()) {
    return;
  }
  msg.from = site_.id();
  bool any_queued = false;
  for (SiteId dst : dsts) {
    auto it = offpath_queue_.find(dst);
    any_queued = any_queued || (it != offpath_queue_.end() && !it->second.empty());
  }
  if (any_queued) {
    // Per-destination payloads differ: fall back to unicast sends (each
    // evaluates its own tm.send.* failpoint inside SendMsg).
    for (SiteId dst : dsts) {
      TmMsg copy = msg;
      SendMsg(dst, std::move(copy));
    }
    return;
  }
  const auto defer = [&] {
    return [this, dsts, delayed = std::move(msg)]() mutable {
      SendMsgToAll(dsts, std::move(delayed));
    };
  };
  if (GateSend(msg.type, defer) != SendGate::kTransmit) {
    return;  // A lost multicast is lost to every destination.
  }
  for (size_t i = 0; i < dsts.size(); ++i) {
    RecordDatagram(msg);  // One logical datagram per destination.
  }
  net_.SendToAll(site_.id(), dsts, kTranManService, static_cast<uint32_t>(msg.type),
                 EncodeBatch({msg}));
}

void TranMan::QueueOffPath(SiteId dst, TmMsg msg) {
  msg.from = site_.id();
  if (config_.piggyback_delay <= 0) {
    SendMsg(dst, std::move(msg));  // No batching: an ordinary unicast send.
    return;
  }
  auto& queue = offpath_queue_[dst];
  const bool first = queue.empty();
  queue.push_back(std::move(msg));
  if (queue.size() > kOffpathQueueLimit) {
    // Drop-oldest: a long partition must not grow this queue without bound.
    // Off-path messages (commit-acks) are re-derived by protocol timeouts,
    // so dropping one costs a retransmit, never correctness.
    queue.erase(queue.begin());
    ++counters_.offpath_dropped;
  }
  if (first) {
    const uint32_t inc = site_.incarnation();
    site_.sched().Post(config_.piggyback_delay, [this, dst, inc] {
      if (!Dead(inc)) {
        FlushOffPath(dst);
      }
    });
  }
}

void TranMan::FlushOffPath(SiteId dst) {
  auto it = offpath_queue_.find(dst);
  if (it == offpath_queue_.end() || it->second.empty()) {
    return;
  }
  const SendGate gate = GateSend(it->second.front().type, [this, dst] {
    return [this, dst] { FlushOffPath(dst); };
  });
  if (gate == SendGate::kLost) {
    // The whole batch is lost in flight (a crash already cleared the queue).
    offpath_queue_.erase(dst);
  }
  if (gate != SendGate::kTransmit) {
    return;
  }
  // A failpoint callback at the point may have flushed the queue: re-find.
  it = offpath_queue_.find(dst);
  if (it == offpath_queue_.end() || it->second.empty()) {
    return;
  }
  std::vector<TmMsg> batch = std::move(it->second);
  offpath_queue_.erase(it);
  for (const TmMsg& m : batch) {
    RecordDatagram(m);
  }
  net_.Send(Datagram{site_.id(), dst, kTranManService,
                     static_cast<uint32_t>(batch.front().type), EncodeBatch(batch)});
}

void TranMan::OnDatagram(Datagram dg) {
  if (!site_.up()) {
    return;
  }
  ByteReader r(dg.body);
  const uint16_t count = r.U16();
  for (uint16_t i = 0; i < count && r.ok(); ++i) {
    const Bytes wire = r.Blob();
    auto msg = TmMsg::Decode(wire);
    if (msg.ok()) {
      site_.sched().Spawn(DispatchMsg(std::move(*msg)));
    }
  }
}

Async<void> TranMan::DispatchMsg(TmMsg msg) {
  const uint32_t inc = site_.incarnation();
  // Every protocol event passes through the worker pool (Section 3.4).
  // Incoming prepares are NEW work at this site: they use the bounded
  // admission queue (with the propagated client deadline), while completion
  // traffic — votes, outcomes, acks, status — is never shed, since dropping
  // it would stall in-flight commits and hold locks longer.
  if (msg.type == TmMsgType::kPrepare) {
    const Admission adm = co_await pool_.Admit(
        config_.cpu_per_event, config_.shed_expired_work ? msg.deadline : 0);
    if (adm != Admission::kRun) {
      if (Dead(inc)) {
        co_return;
      }
      // Refuse rather than silently drop: an abort vote is always safe
      // before a commit decision exists, and it resolves the coordinator
      // immediately instead of after vote_timeout.
      ++counters_.prepares_shed;
      if (adm == Admission::kExpired) {
        ++counters_.deadline_shed;
      }
      TmMsg vote;
      vote.type = TmMsgType::kVote;
      vote.tid = msg.tid;
      vote.vote = TmVote::kAbort;
      SendMsg(msg.from, vote);
      co_return;
    }
  } else {
    co_await pool_.Run(config_.cpu_per_event);
  }
  if (Dead(inc)) {
    co_return;
  }
  switch (msg.type) {
    case TmMsgType::kPrepare:
      co_await HandleRemotePrepare(std::move(msg));
      co_return;
    case TmMsgType::kVote: {
      Family* fam = FindFamily(msg.tid.family);
      // Paxos votes fan out to the whole acceptor set. At the coordinator the
      // vote feeds GatherVotes via the inbox like any other protocol; at the
      // other acceptors it feeds the ballot-0 accept machinery. Votes for
      // unknown families are dropped: an amnesiac acceptor must never
      // re-assemble a ballot-0 accept from retransmitted votes alone.
      if (msg.protocol == CommitProtocol::kPaxos && fam != nullptr && !fam->is_coordinator) {
        co_await HandlePaxosVote(std::move(msg));
        co_return;
      }
      if (fam != nullptr && fam->inbox && !fam->inbox->closed()) {
        fam->inbox->Send(std::move(msg));
      }
      co_return;
    }
    case TmMsgType::kCommitAck:
    case TmMsgType::kReplicateAck:
    case TmMsgType::kPaxosAccepted:
    case TmMsgType::kStatusResp: {
      Family* fam = FindFamily(msg.tid.family);
      if (fam != nullptr && fam->inbox && !fam->inbox->closed()) {
        fam->inbox->Send(std::move(msg));
      }
      co_return;
    }
    case TmMsgType::kCommit: {
      Family* fam = FindFamily(msg.tid.family);
      // Finished and forgotten, or already committed: the coordinator is
      // still retrying because our ack was lost, so ack again.
      bool ack = fam == nullptr || fam->state == TmTxnState::kCommitted;
      if (!ack && fam->state == TmTxnState::kAborted && fam->heuristic) {
        // We guessed ABORT; the real outcome is COMMIT. Record the damage and
        // ack so the coordinator can finish (the data here is already wrong —
        // exactly the risk LU 6.2 accepts).
        ++counters_.heuristic_damage;
        CTRACE("[%8.1fms] %s HEURISTIC DAMAGE: aborted %s but coordinator committed",
               ToMs(site_.sched().now()), ToString(site_.id()).c_str(),
               ToString(msg.tid).c_str());
        ack = true;
      } else if (!ack && fam->passive_acceptor && fam->state == TmTxnState::kPrepared) {
        fam->state = TmTxnState::kCommitted;  // Outcome tombstone (change 4).
        ack = true;
      } else if (!ack && fam->state == TmTxnState::kPrepared && fam->inbox &&
                 !fam->inbox->closed()) {
        fam->inbox->Send(std::move(msg));
      }
      if (ack) {
        TmMsg reply;
        reply.type = TmMsgType::kCommitAck;
        reply.tid = msg.tid;
        SendMsg(msg.from, reply);
      }
      co_return;
    }
    case TmMsgType::kAbort:
      co_await HandleAbortMsg(std::move(msg));
      co_return;
    case TmMsgType::kReplicate:
      co_await HandleReplicate(std::move(msg));
      co_return;
    case TmMsgType::kStatusReq:
      co_await HandleStatusReq(std::move(msg));
      co_return;
    case TmMsgType::kSiteUp: {
      // A site recovered: nudge every in-doubt family so its parked waiter
      // gets a fresh status answer (the response lands in the inbox).
      for (auto& [id, fam] : families_) {
        if (fam->state == TmTxnState::kPrepared && fam->committing && !fam->passive_acceptor) {
          fam->takeover_round = 0;
          TmMsg req;
          req.type = TmMsgType::kStatusReq;
          req.tid = fam->top;
          SendMsg(msg.from, req);
        }
      }
      co_return;
    }
  }
}

void TranMan::AnnounceRecovered() {
  TmMsg up;
  up.type = TmMsgType::kSiteUp;
  up.from = site_.id();
  net_.Broadcast(site_.id(), kTranManService, static_cast<uint32_t>(TmMsgType::kSiteUp),
                 EncodeBatch({up}));
}

// --- Service handler ----------------------------------------------------------------

Async<RpcResult> TranMan::Handle(RpcContext ctx, uint32_t method, Bytes body) {
  const uint32_t inc = site_.incarnation();
  if (method == kTmBegin) {
    // New work enters through bounded admission: the fast checks (deadline
    // already passed, live-family cap) and a full queue reject the begin
    // kOverloaded before it can occupy a worker — the client counts it as
    // shed, not failed, and backs off.
    Status admit = AdmissionCheck(ctx.deadline, /*creates_family=*/true);
    if (!admit.ok()) {
      ++counters_.overload_rejects;
      co_return RpcResult{std::move(admit), {}};
    }
    const Admission adm = co_await pool_.Admit(
        config_.cpu_per_event, config_.shed_expired_work ? ctx.deadline : 0);
    if (adm != Admission::kRun) {
      ++counters_.overload_rejects;
      if (adm == Admission::kExpired) {
        ++counters_.deadline_shed;
        co_return RpcResult{OverloadedError("deadline passed while queued for admission"), {}};
      }
      co_return RpcResult{OverloadedError("admission queue full"), {}};
    }
  } else {
    co_await pool_.Run(config_.cpu_per_event);
  }
  if (Dead(inc)) {
    co_return RpcResult{UnavailableError("site down"), {}};
  }
  ByteReader r(body);
  switch (method) {
    case kTmBegin: {
      const Tid parent = r.Transaction();
      RpcResult result = co_await HandleBegin(parent, ctx.deadline);
      co_return result;
    }
    case kTmCommit: {
      const Tid tid = r.Transaction();
      CommitOptions options;
      options.protocol = static_cast<CommitProtocol>(r.U8());
      options.force_subordinate_commit = r.U8() != 0;
      options.piggyback_commit_ack = r.U8() != 0;
      options.paxos_f = r.U32();
      if (!r.ok()) {
        co_return RpcResult{InvalidArgumentError("bad commit request"), {}};
      }
      if (ctx.deadline > 0) {
        // A commit call can carry the deadline even when begin did not (e.g.
        // the client adopted one mid-transaction); the prepare fan-out reads
        // it off the family.
        if (Family* fam = FindFamily(tid.family); fam != nullptr && fam->deadline == 0) {
          fam->deadline = ctx.deadline;
        }
      }
      if (tid.IsTopLevel()) {
        RpcResult result = co_await HandleCommit(tid, options);
        co_return result;
      }
      RpcResult result = co_await HandleNestedCommit(tid);
      co_return result;
    }
    case kTmAbort: {
      const Tid tid = r.Transaction();
      if (tid.IsTopLevel()) {
        RpcResult result = co_await HandleAbort(tid);
        co_return result;
      }
      RpcResult result = co_await HandleNestedAbort(tid);
      co_return result;
    }
    case kTmJoin: {
      const Tid tid = r.Transaction();
      const std::string server = r.Str();
      if (!r.ok()) {
        co_return RpcResult{InvalidArgumentError("bad join request"), {}};
      }
      RpcResult result = co_await HandleJoin(tid, server);
      co_return result;
    }
    case kTmNestedCommitRemote: {
      const Tid child = r.Transaction();
      const Tid parent = r.Transaction();
      RpcResult result = co_await HandleNestedCommitRemote(child, parent);
      co_return result;
    }
    case kTmQueryStatus: {
      const Tid tid = r.Transaction();
      ByteWriter w;
      w.U8(static_cast<uint8_t>(QueryState(tid.family)));
      co_return RpcResult{OkStatus(), w.Take()};
    }
    case kTmAbortSubtreeRemote: {
      const Tid top = r.Transaction();
      const uint32_t n = r.U32();
      std::vector<uint32_t> serials;
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        serials.push_back(r.U32());
      }
      RpcResult result = co_await HandleAbortSubtreeRemote(top, std::move(serials));
      co_return result;
    }
    default:
      co_return RpcResult{InvalidArgumentError("unknown tranman method"), {}};
  }
}

Status TranMan::AdmissionCheck(SimTime deadline, bool creates_family) const {
  if (config_.shed_expired_work && deadline > 0 && site_.sched().now() > deadline) {
    return OverloadedError("client deadline already passed");
  }
  if (creates_family && config_.max_live_families > 0 &&
      live_family_count() >= config_.max_live_families) {
    return OverloadedError("live-family cap reached");
  }
  return OkStatus();
}

Async<RpcResult> TranMan::HandleBegin(const Tid& parent, SimTime deadline) {
  if (!parent.IsValid()) {
    // New top-level transaction; this site is the family origin.
    const Tid tid{FamilyId{site_.id(), next_family_seq_++}, 0, 0};
    Family* fam = CreateFamily(tid);
    fam->deadline = deadline;
    ++counters_.begun;
    co_return RpcResult{OkStatus(), EncodeTid(tid)};
  }
  // Nested transaction under `parent` (created at the family origin).
  Family* fam = FindFamily(parent.family);
  if (fam == nullptr || fam->state != TmTxnState::kActive || fam->committing) {
    co_return RpcResult{FailedPreconditionError("parent not active"), {}};
  }
  if (parent.family.origin != site_.id()) {
    co_return RpcResult{InvalidArgumentError("nested begin must run at the family origin"), {}};
  }
  const bool parent_ok =
      parent.IsTopLevel() || fam->active_nested.contains(parent.serial);
  if (!parent_ok) {
    co_return RpcResult{FailedPreconditionError("parent transaction is not active"), {}};
  }
  Tid child = parent;
  child.serial = fam->next_serial++;
  child.parent_serial = parent.serial;
  fam->nested_parent[child.serial] = parent.serial;
  fam->active_nested.insert(child.serial);
  ++counters_.begun;
  co_return RpcResult{OkStatus(), EncodeTid(child)};
}

Async<RpcResult> TranMan::HandleJoin(const Tid& tid, const std::string& server) {
  Family* fam = FindFamily(tid.family);
  if (fam == nullptr) {
    // First contact with this family at this (subordinate) site: the join
    // creates a family, so the in-flight cap applies. Rejecting is safe —
    // the server op fails kOverloaded and the client aborts the transaction.
    if (config_.max_live_families > 0 && live_family_count() >= config_.max_live_families) {
      ++counters_.overload_rejects;
      co_return RpcResult{OverloadedError("live-family cap reached"), {}};
    }
    fam = CreateFamily(tid);
    if (tid.family.origin != site_.id()) {
      site_.sched().Spawn(OrphanWatch(tid.family, site_.incarnation()));
    }
  }
  if (fam->state != TmTxnState::kActive || fam->committing) {
    co_return RpcResult{FailedPreconditionError("transaction no longer active"), {}};
  }
  if (std::find(fam->local_servers.begin(), fam->local_servers.end(), server) ==
      fam->local_servers.end()) {
    fam->local_servers.push_back(server);
  }
  co_return RpcResult{OkStatus(), {}};
}

// --- Server upcalls --------------------------------------------------------------------

Async<std::vector<RpcResult>> TranMan::CallLocalServers(const Family& fam, uint32_t method,
                                                        const Bytes& body, const Tid& tid) {
  if (fam.local_servers.empty()) {
    co_return std::vector<RpcResult>{};
  }
  std::vector<Async<RpcResult>> calls;
  calls.reserve(fam.local_servers.size());
  for (const auto& server : fam.local_servers) {
    calls.push_back(site_.CallLocal(server, method, body, RpcContext{site_.id(), tid},
                                    /*to_data_server=*/false));
  }
  co_return co_await JoinAll(site_.sched(), std::move(calls));
}

Async<ServerVote> TranMan::VoteLocalServers(Family* fam) {
  const std::vector<RpcResult> results =
      co_await CallLocalServers(*fam, kSrvVote, EncodeTidOnly(fam->top), fam->top);
  bool any_update = false;
  for (const auto& result : results) {
    if (!result.status.ok()) {
      co_return ServerVote::kNo;
    }
    ByteReader r(result.body);
    const auto vote = static_cast<ServerVote>(r.U8());
    if (vote == ServerVote::kNo) {
      co_return ServerVote::kNo;
    }
    if (vote == ServerVote::kUpdate) {
      any_update = true;
    }
  }
  co_return any_update ? ServerVote::kUpdate : ServerVote::kReadOnly;
}

void TranMan::NotifyServersDropLocks(const Family& fam) {
  for (const auto& server : fam.local_servers) {
    site_.NotifyLocal(server, kSrvCommitFamily, EncodeTidOnly(fam.top),
                      RpcContext{site_.id(), fam.top});
  }
}

Async<bool> TranMan::AbortLocally(Family* fam, const char* role) {
  const uint32_t inc = site_.incarnation();
  log_.Append(LogRecord::Abort(fam->top));
  site_.RecordCost(fam->top.family, role, "abort", CostPrimitive::kLogSpool);
  co_await CallLocalServers(*fam, kSrvAbortFamily, EncodeTidOnly(fam->top), fam->top);
  co_return !Dead(inc);
}

// --- Commit entry point -------------------------------------------------------------------

Async<RpcResult> TranMan::HandleCommit(const Tid& tid, const CommitOptions& options) {
  Family* fam = FindFamily(tid.family);
  if (fam == nullptr) {
    co_return RpcResult{NotFoundError("unknown transaction"), {}};
  }
  if (fam->state != TmTxnState::kActive || fam->committing) {
    co_return RpcResult{FailedPreconditionError("transaction not active"), {}};
  }
  if (!fam->active_nested.empty()) {
    co_return RpcResult{FailedPreconditionError("nested transactions still active"), {}};
  }
  fam->committing = true;
  const uint32_t inc = site_.incarnation();

  // Figure 1, event 8: ask local servers whether they are willing to commit.
  const ServerVote local_vote = co_await VoteLocalServers(fam);
  if (Dead(inc)) {
    co_return RpcResult{UnavailableError("site crashed"), {}};
  }
  std::vector<SiteId> subs = comman_.KnownSites(tid.family);
  if (local_vote == ServerVote::kNo) {
    co_await AbortDistributed(fam, subs);
    co_return RpcResult{AbortedError("a local server refused to commit"), {}};
  }
  if (comman_.IsPoisoned(tid.family)) {
    // A participant crashed and restarted while this transaction ran: its
    // locks and joins there are gone, so any reads made at it may be stale.
    co_await AbortDistributed(fam, subs);
    co_return RpcResult{AbortedError("a participant restarted mid-transaction"), {}};
  }
  const bool local_updates = local_vote == ServerVote::kUpdate;

  Status status;
  if (subs.empty()) {
    status = co_await CommitLocalOnly(fam, local_updates, {});
  } else if (options.protocol == CommitProtocol::kNonBlocking) {
    status = co_await CoordinateNonBlocking(fam, subs, local_updates);
  } else if (options.protocol == CommitProtocol::kPaxos) {
    // Acceptor set: the coordinator first, then the first subordinates.
    const int acceptors = PaxosAcceptorCount(options.paxos_f, static_cast<int>(subs.size()));
    const uint32_t f_eff = static_cast<uint32_t>(acceptors - 1) / 2;
    if (f_eff == 0) {
      // Gray & Lamport's theorem in code: Paxos Commit with one acceptor IS
      // the optimized two-phase protocol, so route it literally through the
      // 2PC engine and the cost vectors collapse by construction.
      status = co_await CoordinateTwoPhase(fam, CommitOptions::Optimized(), subs, local_updates);
    } else {
      status = co_await CoordinatePaxos(fam, f_eff, subs, local_updates);
    }
  } else {
    status = co_await CoordinateTwoPhase(fam, options, subs, local_updates);
  }
  if (!status.ok() && !Dead(inc)) {
    // The coordinate path failed while this site stayed up (e.g. an injected
    // force error). An undecided family must not be abandoned with
    // committing=true: no watcher will ever resolve it, its locks never
    // release, and subordinates poll its status forever. No decision record
    // exists while the state is still kActive, so presumed abort is safe.
    fam = FindFamily(tid.family);
    if (fam != nullptr && fam->state == TmTxnState::kActive) {
      co_await AbortDistributed(fam, subs);
    }
  }
  co_return RpcResult{std::move(status), {}};
}

Async<Status> TranMan::CommitLocalOnly(Family* fam, bool has_updates,
                                       const std::vector<SiteId>& tell) {
  if (has_updates) {
    // Figure 1, event 9: the single log force that commits the transaction.
    const Lsn lsn = log_.Append(LogRecord::Commit(fam->top, {}));
    if (!co_await ForceAt("tm.local.commit_force", fam->top.family, lsn, /*hold_worker=*/true)) {
      co_return UnavailableError("crashed during commit force");
    }
  }
  if (!Decide(fam, TmDecision::kCommit)) {
    co_return UnavailableError("site crashed");
  }
  NotifyServersDropLocks(*fam);  // Event 11, off the completion path.
  // Read-only NBC subordinates and Paxos acceptors linger as passive
  // acceptors: tell them the outcome so their tombstones are right (their
  // acks do not matter).
  TmMsg commit;
  commit.type = TmMsgType::kCommit;
  commit.tid = fam->top;
  SendMsgToAll(tell, commit);
  // NBC keeps its tombstone for late status queries (change 4); the other
  // variants forget a commit that needed no phase 2 at once.
  if (fam->protocol != CommitProtocol::kNonBlocking) {
    RetireFamily(fam->top.family);
  }
  co_return OkStatus();
}

Async<RpcResult> TranMan::HandleAbort(const Tid& tid) {
  Family* fam = FindFamily(tid.family);
  if (fam == nullptr) {
    co_return RpcResult{NotFoundError("unknown transaction"), {}};
  }
  if (fam->committing) {
    co_return RpcResult{FailedPreconditionError("commitment already in progress"), {}};
  }
  fam->committing = true;
  std::vector<SiteId> subs = comman_.KnownSites(tid.family);
  co_await AbortDistributed(fam, subs);
  co_return RpcResult{OkStatus(), {}};
}

Async<void> TranMan::AbortDistributed(Family* fam, const std::vector<SiteId>& notify) {
  if (!co_await AbortLocally(fam, "coord")) {
    co_return;
  }
  TmMsg abort;
  abort.type = TmMsgType::kAbort;
  abort.tid = fam->top;
  SendMsgToAll(notify, abort);
  if (!Decide(fam, TmDecision::kAbort)) {
    co_return;
  }
  if (fam->protocol != CommitProtocol::kTwoPhase && fam->committing && fam->is_coordinator) {
    // Change 4: NBC (and Paxos) participants keep a tombstone so late status
    // queries see the outcome instead of inferring the wrong one.
    comman_.Forget(fam->top.family);
  } else {
    RetireFamily(fam->top.family);
  }
}

Status TranMan::ParkInDoubt(Family* fam, uint32_t inc, const char* why) {
  fam->takeover_round = 0;
  site_.sched().Spawn(SubordinateWait(fam->top.family, inc));
  return BlockedError(why);
}

// --- Two-phase commitment (coordinator) ------------------------------------------------------

// GatherVotes keeps its own receive instead of AwaitFamily: an NBC or Paxos
// coordinator is already prepared while it gathers votes, so a takeover's
// COMMIT or ABORT can reach its inbox. This loop drops that message where
// AwaitFamily would apply it, so moving it onto AwaitFamily would change the
// protocol, not refactor it (DESIGN.md, "One takeover").
Async<TranMan::VoteRound> TranMan::GatherVotes(Family* fam, const TmMsg& prepare_template,
                                               const std::vector<SiteId>& subs) {
  const uint32_t inc = site_.incarnation();
  VoteRound round;
  std::set<SiteId> pending(subs.begin(), subs.end());
  std::unordered_map<SiteId, TmVote> votes;

  SendMsgToAll(subs, prepare_template);
  const SimTime deadline = site_.sched().now() + kVoteTimeout;
  bool any_abort = false;
  uint64_t silent_rounds = 0;
  while (!pending.empty() && !any_abort) {
    const SimDuration wait = std::min<SimDuration>(
        Backoff(config_.retry_interval, kRetryIntervalMax, silent_rounds),
        deadline - site_.sched().now());
    if (wait <= 0) {
      break;  // Vote timeout: presume the worst.
    }
    auto msg = co_await fam->inbox->ReceiveTimeout(wait);
    if (Dead(inc) || fam->inbox->closed()) {
      co_return round;  // all_yes stays false.
    }
    if (!msg.has_value()) {
      // Silence: retransmit the prepare to the laggards.
      ++silent_rounds;
      SendMsgToAll({pending.begin(), pending.end()}, prepare_template);
      continue;
    }
    silent_rounds = 0;
    if (msg->type != TmMsgType::kVote || !pending.contains(msg->from)) {
      continue;
    }
    pending.erase(msg->from);
    votes[msg->from] = msg->vote;
    if (msg->vote == TmVote::kAbort) {
      any_abort = true;
    }
  }
  round.all_yes = pending.empty() && !any_abort;
  round.any_abort = any_abort;
  for (const auto& [sub_site, vote] : votes) {
    if (vote == TmVote::kCommit) {
      round.update_subs.push_back(sub_site);
    }
  }
  std::sort(round.update_subs.begin(), round.update_subs.end());
  co_return round;
}

TmMsg TranMan::BeginCoordinating(Family* fam, const CommitOptions& options,
                                 const std::vector<SiteId>& subs, uint32_t commit_quorum,
                                 uint32_t abort_quorum) {
  fam->is_coordinator = true;
  fam->coordinator = site_.id();
  fam->protocol = options.protocol;
  fam->force_sub_commit = options.force_subordinate_commit;
  fam->piggyback_ack = options.piggyback_commit_ack;
  fam->sites.clear();
  fam->sites.push_back(site_.id());
  fam->sites.insert(fam->sites.end(), subs.begin(), subs.end());
  fam->commit_quorum = commit_quorum;
  fam->abort_quorum = abort_quorum;
  fam->inbox = std::make_shared<Channel<TmMsg>>(site_.sched());

  // NBC change 1: the prepare message carries the site list and quorum sizes.
  TmMsg prepare;
  prepare.type = TmMsgType::kPrepare;
  prepare.tid = fam->top;
  prepare.protocol = options.protocol;
  prepare.force_subordinate_commit = options.force_subordinate_commit;
  prepare.piggyback_commit_ack = options.piggyback_commit_ack;
  prepare.sites = fam->sites;
  prepare.commit_quorum = commit_quorum;
  prepare.abort_quorum = abort_quorum;
  prepare.deadline = fam->deadline;
  return prepare;
}

Async<Status> TranMan::PrepareCoordinator(Family* fam, bool local_updates, const char* point) {
  // A read-only coordinator skips the force so that a completely read-only
  // transaction keeps the two-phase critical path (paper, Section 6).
  if (local_updates) {
    const Lsn lsn = log_.Append(LogRecord::Prepare(fam->top, site_.id(), fam->sites,
                                                   fam->protocol, fam->commit_quorum,
                                                   fam->abort_quorum));
    if (!co_await ForceAt(point, fam->top.family, lsn, /*hold_worker=*/true)) {
      co_return UnavailableError("crashed during prepare force");
    }
  }
  if (AtTransition("tm.prepared")) {
    co_return UnavailableError("site crashed");
  }
  fam->state = TmTxnState::kPrepared;
  co_return OkStatus();
}

Async<Status> TranMan::CoordinateTwoPhase(Family* fam, const CommitOptions& options,
                                          std::vector<SiteId> subs, bool local_updates) {
  const uint32_t inc = site_.incarnation();
  const TmMsg prepare = BeginCoordinating(fam, options, subs, 0, 0);
  VoteRound votes = co_await GatherVotes(fam, prepare, subs);
  if (Dead(inc)) {
    co_return UnavailableError("site crashed");
  }
  if (!votes.all_yes) {
    co_await AbortDistributed(fam, subs);
    co_return AbortedError("a participant voted no or timed out");
  }

  if (votes.update_subs.empty() && !local_updates) {
    // The entire transaction was read-only: commit without writing anything.
    Status status = co_await CommitLocalOnly(fam, /*has_updates=*/false, {});
    co_return status;
  }

  // Commit point: force the commit record listing subordinates needing acks.
  co_return co_await CoordinatorCommit(fam, "2pc.commit", "tm.2pc.commit_force",
                                       votes.update_subs, votes.update_subs);
}

Async<Status> TranMan::CoordinatorCommit(Family* fam, const char* phase, const char* point,
                                         std::vector<SiteId> record_subs,
                                         std::vector<SiteId> notify) {
  const Lsn lsn = log_.Append(LogRecord::Commit(fam->top, std::move(record_subs)));
  if (point == nullptr) {
    site_.RecordCost(fam->top.family, "coord", phase, CostPrimitive::kLogSpool);
  } else if (!co_await ForceAt(point, fam->top.family, lsn, /*hold_worker=*/true)) {
    co_return UnavailableError("crashed during commit force");
  }
  if (!Decide(fam, TmDecision::kCommit)) {
    co_return UnavailableError("site crashed");
  }
  NotifyServersDropLocks(*fam);
  // Phase 2 is off the completion path: the application's call returns now.
  site_.sched().Spawn(CoordinatorPhase2(fam->top.family, std::move(notify)));
  co_return OkStatus();
}

Async<void> TranMan::CoordinatorPhase2(FamilyId family, std::vector<SiteId> update_subs) {
  const uint32_t inc = site_.incarnation();
  Family* fam = FindFamily(family);
  if (fam == nullptr) {
    co_return;
  }
  std::set<SiteId> pending(update_subs.begin(), update_subs.end());
  TmMsg commit;
  commit.type = TmMsgType::kCommit;
  commit.tid = fam->top;

  // Send COMMIT once up front; retransmit to the remaining laggards only on
  // silence (a receive timeout) or a topology change — each ack used to reset
  // the loop into another full resend, which made the fault-free datagram
  // count quadratic in the subordinate count.
  int silent_rounds = 0;
  SendMsgToAll({pending.begin(), pending.end()}, commit);
  while (!pending.empty()) {
    // Liveness first: Backoff draws jitter from a stream that survives
    // crashes, so a dead wait must not draw.
    if (Dead(inc) || fam->inbox->closed()) {
      co_return;
    }
    // After 30 silent rounds, park: a subordinate is unreachable. Its
    // recovery will ask us for status and then ack; we stay receptive
    // without flooding the network.
    const FamilyWait wait = co_await AwaitFamily(
        fam, inc,
        silent_rounds < 30 ? Backoff(config_.retry_interval, kRetryIntervalMax,
                                     static_cast<uint64_t>(silent_rounds))
                           : -1);
    if (wait.kind == FamilyWait::kTimeout) {
      ++silent_rounds;
      if (silent_rounds < 30) {
        SendMsgToAll({pending.begin(), pending.end()}, commit);
      }
      continue;
    }
    if (wait.kind != FamilyWait::kMessage) {
      co_return;  // Gone: a decided family gets a COMMIT or ABORT back as a message.
    }
    if (wait.msg.type == TmMsgType::kCommitAck) {
      pending.erase(wait.msg.from);
      silent_rounds = 0;
    } else if (wait.msg.type == TmMsgType::kSiteUp) {
      silent_rounds = 0;  // Topology changed: resume resending to laggards.
      SendMsgToAll({pending.begin(), pending.end()}, commit);
    }
  }
  // Presumed abort epilogue: now that everyone wrote a commit record, the
  // coordinator may forget (End is never forced).
  log_.Append(LogRecord::End(fam->top));
  site_.RecordCost(fam->top.family, "coord", "end", CostPrimitive::kLogSpool);
  if (fam->protocol != CommitProtocol::kTwoPhase) {
    comman_.Forget(fam->top.family);  // Keep the tombstone itself (change 4).
  } else {
    RetireFamily(family);
  }
}

// --- Non-blocking commitment (coordinator) ------------------------------------------------

Async<Status> TranMan::CoordinateNonBlocking(Family* fam, std::vector<SiteId> subs,
                                             bool local_updates) {
  const uint32_t inc = site_.incarnation();
  // NBC's own options, whatever flags the client passed: the notify phase
  // always uses the optimized form.
  const uint32_t n = static_cast<uint32_t>(subs.size()) + 1;
  const uint32_t qc = n / 2 + 1;
  const TmMsg prepare = BeginCoordinating(fam, CommitOptions::NonBlocking(), subs, qc, n + 1 - qc);
  // Change 5: the coordinator prepares (forces its prepare record, which also
  // hardens its own update records) BEFORE sending the prepare message.
  if (Status prepared = co_await PrepareCoordinator(fam, local_updates, "tm.nbc.prepare_force");
      !prepared.ok()) {
    co_return prepared;
  }

  VoteRound votes = co_await GatherVotes(fam, prepare, subs);
  if (Dead(inc)) {
    co_return UnavailableError("site crashed");
  }
  if (!votes.all_yes) {
    // No commit intent was ever replicated, so a plain presumed-abort is safe.
    co_await AbortDistributed(fam, subs);
    co_return AbortedError("a participant voted no or timed out");
  }

  if (votes.update_subs.empty()) {
    // Only this site (at most) made updates: no replication phase is needed,
    // the local commit record alone decides.
    Status status = co_await CommitLocalOnly(fam, local_updates, subs);
    co_return status;
  }

  // A takeover may have raced our vote gathering: a participant that timed
  // out started a higher-epoch round, and we promised it (HandleStatusReq) or
  // outright accepted its ABORT (HandleReplicate). Starting our own epoch-0
  // commit round UNDER that promise would clobber the accepted state and let
  // disjoint-looking quorums decide commit AND abort. Since our commit intent
  // was never replicated, nobody can decide commit — aborting is safe and
  // agrees with any outcome the takeover can reach.
  if (fam->has_replication || fam->promised_epoch > 0) {
    co_await SubordinateAbort(fam);
    co_return AbortedError("superseded by a takeover round during vote gathering");
  }

  // Replication phase (change 3): replicate the commit intent until a commit
  // quorum (counting our own forced records) exists.
  if (!co_await Accept(fam, "tm.nbc.replicate_force", site_.id(), MakeEpoch(0, site_.id()),
                       TmDecision::kCommit, fam->commit_quorum, fam->abort_quorum,
                       /*hold_worker=*/true)) {
    co_return UnavailableError("crashed during replication force");
  }

  TmMsg replicate;
  replicate.type = TmMsgType::kReplicate;
  replicate.tid = fam->top;
  replicate.epoch = fam->replicated_epoch;
  replicate.decision = TmDecision::kCommit;
  replicate.commit_quorum = fam->commit_quorum;
  replicate.abort_quorum = fam->abort_quorum;

  // Read-only subordinates linger as passive acceptors; widen to them if the
  // update subordinates alone cannot form the quorum ("read-only sites...
  // often need not participate in the replication phase" — but when update
  // sites are short, they must).
  std::vector<SiteId> targets = votes.update_subs;
  std::set<SiteId> readonly_pool;
  for (SiteId s : subs) {
    if (std::find(targets.begin(), targets.end(), s) == targets.end()) {
      readonly_pool.insert(s);
    }
  }
  if (targets.size() + 1 < fam->commit_quorum) {
    // Not enough update acceptors even if all ack: draft passive acceptors now.
    targets.insert(targets.end(), readonly_pool.begin(), readonly_pool.end());
    readonly_pool.clear();
  }
  SendMsgToAll(targets, replicate);
  // Past the round budget, the takeover machinery (ours, or a subordinate's)
  // finishes the job.
  if (std::optional<Status> done = co_await AwaitQuorum(
          fam, inc, TmMsgType::kReplicateAck, replicate.epoch,
          "commit quorum unreachable; transaction left prepared",
          [&](int round, const std::set<SiteId>& acked) {
            if (round > 2 && !readonly_pool.empty()) {
              targets.insert(targets.end(), readonly_pool.begin(), readonly_pool.end());
              readonly_pool.clear();
            }
            std::vector<SiteId> missing;
            for (SiteId s : targets) {
              if (!acked.contains(s)) {
                missing.push_back(s);
              }
            }
            SendMsgToAll(missing, replicate);
          })) {
    co_return *done;
  }

  // Commit point: the log write that completes a commit quorum. The notify
  // phase covers EVERY subordinate still holding state: update subs write
  // their commit records; read-only passive acceptors tombstone the outcome
  // (change 4) and ack immediately.
  co_return co_await CoordinatorCommit(fam, "nbc.commit", "tm.nbc.commit_force",
                                       votes.update_subs, subs);
}

// --- Paxos Commit (Gray & Lamport) ----------------------------------------------------------

std::vector<SiteId> TranMan::PaxosAcceptors(const std::vector<SiteId>& sites,
                                            uint32_t commit_quorum) {
  size_t a = commit_quorum > 0 ? 2 * static_cast<size_t>(commit_quorum) - 1 : 1;
  a = std::min(a, sites.size());
  return {sites.begin(), sites.begin() + static_cast<std::ptrdiff_t>(a)};
}

Async<Status> TranMan::CoordinatePaxos(Family* fam, uint32_t f_eff, std::vector<SiteId> subs,
                                       bool local_updates) {
  const uint32_t inc = site_.incarnation();
  // Paxos's own options: the notify phase always uses the optimized form.
  const TmMsg prepare =
      BeginCoordinating(fam, CommitOptions::Paxos(f_eff), subs, f_eff + 1, f_eff + 1);
  // An updating coordinator prepares (hardening its updates) before fanning
  // out, like NBC: its vote must survive a crash once it reaches an acceptor.
  if (Status prepared = co_await PrepareCoordinator(fam, local_updates, "tm.paxos.prepare_force");
      !prepared.ok()) {
    co_return prepared;
  }
  fam->paxos_votes[site_.id()] = local_updates ? TmVote::kCommit : TmVote::kReadOnly;

  // The coordinator is acceptor 0; the replicated registrar is the first
  // 2F+1 participant sites. Its own vote goes to the other acceptors, since
  // each needs the complete vote set to form its ballot-0 accept.
  const std::vector<SiteId> acceptors = PaxosAcceptors(fam->sites, fam->commit_quorum);
  const std::vector<SiteId> remote_acceptors(acceptors.begin() + 1, acceptors.end());
  TmMsg own_vote;
  own_vote.type = TmMsgType::kVote;
  own_vote.tid = fam->top;
  own_vote.protocol = CommitProtocol::kPaxos;
  own_vote.vote = local_updates ? TmVote::kCommit : TmVote::kReadOnly;
  SendMsgToAll(remote_acceptors, own_vote);

  VoteRound votes = co_await GatherVotes(fam, prepare, subs);
  if (Dead(inc)) {
    co_return UnavailableError("site crashed");
  }
  if (!votes.all_yes) {
    if (votes.any_abort) {
      // An explicit no vote: that participant can never re-vote yes, so no
      // acceptor can ever complete an all-yes set. Presumed abort is safe.
      co_await AbortDistributed(fam, subs);
      co_return AbortedError("a participant voted no");
    }
    // A silent participant: its yes vote may already sit at an acceptor, so
    // unlike 2PC/NBC we may NOT presume abort — a later leader could find a
    // commit accept. Park and resolve through ballot promotion.
    co_return ParkInDoubt(fam, inc, "votes incomplete; resolving through takeover");
  }

  if (votes.update_subs.empty() && !local_updates) {
    // Entirely read-only: trivially committed, nothing to replicate. The
    // lingering read-only acceptors' acks land on the retired family and are
    // dropped.
    Status status = co_await CommitLocalOnly(fam, /*has_updates=*/false, remote_acceptors);
    co_return status;
  }

  // A takeover raced the vote gathering: we promised a higher ballot or
  // accepted its value, so a ballot-0 accept is off the table. Unlike NBC we
  // must not unilaterally abort either — the fanned-out votes may let another
  // quorum decide commit. Park and let the takeover machinery resolve it.
  if (fam->has_replication || fam->promised_epoch > 0) {
    co_return ParkInDoubt(fam, inc, "superseded by a takeover round during vote gathering");
  }

  // Ballot-0 accept at acceptor 0.
  if (!co_await Accept(fam, "tm.paxos.accept_force", site_.id(), MakeEpoch(0, site_.id()),
                       TmDecision::kCommit, fam->commit_quorum, fam->abort_quorum,
                       /*hold_worker=*/true)) {
    co_return UnavailableError("crashed during accept force");
  }

  // Wait for F more acceptors to report their ballot-0 accepts durable, each
  // counted only at this site's current accepted epoch. Past the round
  // budget more than F acceptors are unreachable. Retransmitted prepares make
  // every participant re-vote to the whole acceptor set, re-feeding any
  // acceptor whose vote copies were lost.
  if (std::optional<Status> done = co_await AwaitQuorum(
          fam, inc, TmMsgType::kPaxosAccepted, fam->replicated_epoch,
          "accept quorum unreachable; transaction left prepared",
          [&](int, const std::set<SiteId>&) { SendMsgToAll(subs, prepare); })) {
    co_return *done;
  }

  // Commit point: F+1 durable accepts decide. The commit record is only
  // spooled — the decision survives any F acceptor crashes without it, and a
  // recovering leader re-derives it from the acceptor set. Notify phase:
  // update subordinates write commit records; read-only acceptors tombstone
  // the outcome and ack immediately.
  std::vector<SiteId> notify = votes.update_subs;
  for (SiteId s : remote_acceptors) {
    if (std::find(votes.update_subs.begin(), votes.update_subs.end(), s) ==
        votes.update_subs.end()) {
      notify.push_back(s);
    }
  }
  co_return co_await CoordinatorCommit(fam, "paxos.commit", /*point=*/nullptr, notify, notify);
}

Async<void> TranMan::HandlePaxosVote(TmMsg msg) {
  Family* fam = FindFamily(msg.tid.family);
  if (fam == nullptr) {
    co_return;
  }
  fam->paxos_votes[msg.from] = msg.vote;
  co_await TryFormPaxosAccept(msg.tid.family, site_.incarnation());
}

Async<void> TranMan::TryFormPaxosAccept(FamilyId family_id, uint32_t inc) {
  Family* fam = FindFamily(family_id);
  if (fam == nullptr || fam->protocol != CommitProtocol::kPaxos ||
      fam->state != TmTxnState::kPrepared || fam->is_coordinator) {
    co_return;
  }
  if (fam->promised_epoch > 0 || fam->has_replication) {
    co_return;  // A higher ballot exists; ballot 0 may no longer act.
  }
  if (fam->sites.empty() || fam->commit_quorum == 0) {
    co_return;  // No paxos context yet (a vote raced the prepare).
  }
  const std::vector<SiteId> acceptors = PaxosAcceptors(fam->sites, fam->commit_quorum);
  if (std::find(acceptors.begin(), acceptors.end(), site_.id()) == acceptors.end()) {
    co_return;  // Not an acceptor.
  }
  bool any_update = false;
  for (SiteId s : fam->sites) {
    const auto it = fam->paxos_votes.find(s);
    if (it == fam->paxos_votes.end() || it->second == TmVote::kAbort) {
      co_return;  // Incomplete (or doomed): no ballot-0 accept.
    }
    any_update |= it->second == TmVote::kCommit;
  }
  if (!any_update) {
    co_return;  // Entirely read-only: the leader commits trivially.
  }
  // Complete all-yes vote set: form this acceptor's batched ballot-0 accept.
  // has_replication flips before the force so a concurrent vote arrival
  // cannot re-enter.
  if (!co_await Accept(fam, "tm.paxos.accept_force", fam->coordinator,
                       MakeEpoch(0, fam->coordinator), TmDecision::kCommit, fam->commit_quorum,
                       fam->abort_quorum, /*hold_worker=*/false)) {
    co_return;
  }
  fam = FindFamily(family_id);
  if (fam == nullptr || Dead(inc)) {
    co_return;
  }
  if (fam->coordinator != site_.id()) {
    TmMsg accepted;
    accepted.type = TmMsgType::kPaxosAccepted;
    accepted.tid = fam->top;
    accepted.epoch = fam->replicated_epoch;
    SendMsg(fam->coordinator, accepted);
  }
}

// --- Subordinate side ----------------------------------------------------------------------

Async<void> TranMan::HandleRemotePrepare(TmMsg msg) {
  const uint32_t inc = site_.incarnation();
  ++counters_.prepares_handled;
  Family* fam = FindFamily(msg.tid.family);

  // Every vote this handler sends. Paxos yes and read-only votes go to the
  // whole acceptor set (minus ourselves), derived from the prepare itself so
  // even a retired family can re-vote correctly; 2PC and NBC votes, and every
  // abort vote, go to the coordinator alone.
  const auto send_vote = [this, &msg](TmVote v) {
    TmMsg vote;
    vote.type = TmMsgType::kVote;
    vote.tid = msg.tid;
    vote.vote = v;
    if (msg.protocol == CommitProtocol::kPaxos && v != TmVote::kAbort) {
      vote.protocol = CommitProtocol::kPaxos;
      std::vector<SiteId> targets = PaxosAcceptors(msg.sites, msg.commit_quorum);
      targets.erase(std::remove(targets.begin(), targets.end(), site_.id()), targets.end());
      SendMsgToAll(targets, vote);
    } else {
      SendMsg(msg.from, vote);
    }
  };

  if (fam != nullptr && fam->state == TmTxnState::kPrepared && !fam->passive_acceptor) {
    send_vote(TmVote::kCommit);  // Duplicate prepare: our vote was lost somewhere; re-vote.
    co_return;
  }
  if (fam != nullptr && (fam->state == TmTxnState::kCommitted ||
                         fam->state == TmTxnState::kAborted)) {
    co_return;  // Stale retransmission.
  }
  if (fam != nullptr && fam->passive_acceptor) {
    send_vote(TmVote::kReadOnly);
    co_return;
  }
  if (fam != nullptr && fam->committing) {
    // A duplicate prepare raced the one we are already processing (vote /
    // prepare force in flight). Let the first finish; it sends the vote.
    co_return;
  }
  if (fam == nullptr) {
    // A read-only voter that forgot the family votes read-only again; with
    // no trace at all (e.g. our volatile state died) we refuse, forcing abort.
    send_vote(readonly_voted_.contains(msg.tid.family) ? TmVote::kReadOnly : TmVote::kAbort);
    co_return;
  }

  fam->committing = true;
  ServerVote local_vote = ServerVote::kNo;
  if (config_.shed_expired_work && msg.deadline > 0 && site_.sched().now() > msg.deadline) {
    // The propagated client deadline passed while this prepare was queued or
    // in flight: refuse it instead of preparing work nobody is waiting for.
    ++counters_.deadline_shed;
  } else {
    fam->coordinator = msg.from;
    fam->sites = msg.sites;
    fam->protocol = msg.protocol;
    fam->force_sub_commit = msg.force_subordinate_commit;
    fam->piggyback_ack = msg.piggyback_commit_ack;
    fam->commit_quorum = msg.commit_quorum;
    fam->abort_quorum = msg.abort_quorum;
    local_vote = co_await VoteLocalServers(fam);
    if (Dead(inc)) {
      co_return;
    }
    // Revalidate: the family may have been aborted while we polled the servers.
    fam = FindFamily(msg.tid.family);
    if (fam == nullptr || fam->state != TmTxnState::kActive) {
      co_return;
    }
  }

  if (local_vote == ServerVote::kNo) {
    // Refuse (deadline passed, or a server voted no). No commit decision can
    // exist while our vote is outstanding, so an abort vote is safe, and
    // aborting locally releases the locks now. The family never prepared,
    // so no tm.aborted point is evaluated.
    if (!co_await AbortLocally(fam, "sub")) {
      co_return;
    }
    send_vote(TmVote::kAbort);
    fam->state = TmTxnState::kAborted;
    RecordOutcome(msg.tid.family, /*committed=*/false);
    RetireFamily(msg.tid.family);
    co_return;
  }

  if (local_vote == ServerVote::kReadOnly) {
    // Read-only optimization: no log records, locks dropped now, and no part
    // in the second (or replication/notify) phase.
    ++counters_.read_only_votes;
    NotifyServersDropLocks(*fam);
    bool lingers = msg.protocol == CommitProtocol::kNonBlocking;
    if (msg.protocol == CommitProtocol::kPaxos) {
      // A read-only site inside the acceptor set must linger: the registrar
      // needs its accept and status answers even though it holds no data.
      const std::vector<SiteId> acceptors = PaxosAcceptors(msg.sites, msg.commit_quorum);
      lingers = std::find(acceptors.begin(), acceptors.end(), site_.id()) != acceptors.end();
    }
    if (lingers) {
      // Linger as a passive acceptor / status responder (change 4).
      fam->passive_acceptor = true;
      fam->state = TmTxnState::kPrepared;
      if (msg.protocol == CommitProtocol::kPaxos) {
        fam->paxos_votes[site_.id()] = TmVote::kReadOnly;
      }
    }
    send_vote(TmVote::kReadOnly);
    if (lingers) {
      if (msg.protocol == CommitProtocol::kPaxos) {
        co_await TryFormPaxosAccept(msg.tid.family, inc);
      }
    } else {
      readonly_voted_.insert(msg.tid.family);
      RetireFamily(msg.tid.family);
    }
    co_return;
  }

  // Update subordinate: force the prepare record (which also hardens all our
  // update records, making this the "one fewer log force" baseline).
  const Lsn prep_lsn = log_.Append(LogRecord::Prepare(fam->top, msg.from, msg.sites,
                                                      msg.protocol, msg.commit_quorum,
                                                      msg.abort_quorum));
  if (!co_await ForceAt("tm.sub.prepare_force", fam->top.family, prep_lsn,
                        /*hold_worker=*/true)) {
    co_return;
  }
  fam = FindFamily(msg.tid.family);
  if (fam == nullptr) {
    co_return;
  }
  if (AtTransition("tm.prepared")) {
    co_return;
  }
  fam->state = TmTxnState::kPrepared;
  fam->inbox = std::make_shared<Channel<TmMsg>>(site_.sched());
  if (msg.protocol == CommitProtocol::kPaxos) {
    fam->paxos_votes[site_.id()] = TmVote::kCommit;
  }
  send_vote(TmVote::kCommit);
  site_.sched().Spawn(SubordinateWait(msg.tid.family, inc));
  if (msg.protocol == CommitProtocol::kPaxos) {
    // Votes that arrived while our prepare force was in flight may have
    // completed the set.
    co_await TryFormPaxosAccept(msg.tid.family, inc);
  }
}

Async<void> TranMan::SubordinateWait(FamilyId family_id, uint32_t inc) {
  int status_rounds = 0;
  uint64_t silent_rounds = 0;
  {
    Family* fam = FindFamily(family_id);
    if (fam != nullptr) {
      ArmStuckWatch(fam);  // Surfaces this family if it never decides.
    }
  }
  while (true) {
    // Liveness first: Backoff draws jitter from a stream that survives
    // crashes, so a dead wait must not draw.
    Family* fam = FindFamily(family_id);
    if (fam == nullptr || Dead(inc)) {
      co_return;
    }
    if (fam->state == TmTxnState::kCommitted || fam->state == TmTxnState::kAborted) {
      co_return;
    }
    // Parked, the wait is still receptive: a SITE-UP beacon or
    // topology-change probe answer lands here and resumes resolution.
    const bool park =
        (fam->protocol != CommitProtocol::kTwoPhase &&
         fam->takeover_round >= static_cast<uint64_t>(config_.max_takeover_rounds)) ||
        (fam->protocol == CommitProtocol::kTwoPhase && status_rounds >= kMaxStatusRounds);
    const FamilyWait wait = co_await AwaitFamily(
        fam, inc, park ? -1 : Backoff(config_.outcome_timeout, kOutcomeTimeoutMax, silent_rounds));
    if (wait.kind == FamilyWait::kTimeout) {
      ++silent_rounds;
      // Silence inside the window of vulnerability.
      if (fam->protocol == CommitProtocol::kTwoPhase) {
        // 2PC: we are blocked; all we can do is ask the coordinator.
        MarkBlocked(fam);
        ++counters_.status_queries;
        ++status_rounds;
        TmMsg req;
        req.type = TmMsgType::kStatusReq;
        req.tid = fam->top;
        SendMsg(fam->coordinator, req);
        continue;
      }
      // NBC/Paxos: become a coordinator (change 2 / leader takeover).
      const bool resolved = co_await Takeover(family_id, inc);
      if (resolved || Dead(inc)) {
        co_return;
      }
      continue;
    }
    if (wait.kind != FamilyWait::kMessage) {
      co_return;  // Gone, or AwaitFamily applied a COMMIT or ABORT.
    }
    silent_rounds = 0;
    const TmMsg& resp = wait.msg;
    if (resp.type != TmMsgType::kStatusResp) {
      continue;
    }
    if (resp.state == TmTxnState::kCommitted) {
      co_await SubordinateCommit(fam);
      co_return;
    }
    if (resp.state == TmTxnState::kAborted) {
      co_await SubordinateAbort(fam);  // A definite outcome from anyone.
      co_return;
    }
    if (resp.state == TmTxnState::kUnknown) {
      // Presumed abort — but ONLY on the coordinator's authority: it
      // forgets a transaction only after abort or full completion. A
      // recovered PEER answers unknown for any transaction it never
      // touched (the site-up nudge queries whoever just came back up);
      // treating that as an outcome aborts committed work.
      //
      // Paxos Commit exempts even the coordinator: a read-only leader
      // holds NO durable state before the decision (its ballot-0 accept
      // may have died with it), yet the acceptor set can have committed
      // without it. Only quorum takeover may resolve a paxos family.
      if (resp.from == fam->coordinator && fam->protocol != CommitProtocol::kPaxos) {
        co_await SubordinateAbort(fam);
        co_return;
      }
      continue;  // Amnesia proves nothing here; keep waiting.
    }
    status_rounds = 0;  // Coordinator alive but undecided: keep waiting.
  }
}

Async<void> TranMan::SubordinateCommit(Family* fam) {
  const uint32_t inc = site_.incarnation();
  if (fam->state == TmTxnState::kCommitted || fam->state == TmTxnState::kAborted) {
    // Exactly-once sensor: a duplicated or reordered outcome datagram slipped
    // past the dispatch-layer idempotence checks. Count it and apply nothing.
    ++counters_.duplicate_effects;
    co_return;
  }
  if (!Decide(fam, TmDecision::kCommit)) {
    co_return;
  }
  const FamilyId family_id = fam->top.family;

  if (fam->force_sub_commit) {
    // Unoptimized: force the commit record, then drop locks, then ack.
    const Lsn lsn = log_.Append(LogRecord::Commit(fam->top, {}));
    if (!co_await ForceAt("tm.sub.commit_force", fam->top.family, lsn, /*hold_worker=*/true)) {
      co_return;
    }
    fam = FindFamily(family_id);
    if (fam == nullptr) {
      co_return;
    }
    NotifyServersDropLocks(*fam);
    if (fam->piggyback_ack) {
      site_.sched().Spawn(DelayedCommitAck(family_id, fam->top, fam->coordinator, lsn, inc));
    } else {
      TmMsg ack;
      ack.type = TmMsgType::kCommitAck;
      ack.tid = fam->top;
      SendMsg(fam->coordinator, ack);
      if (fam->protocol == CommitProtocol::kTwoPhase && !fam->heuristic) {
        RetireFamily(family_id);
      }
    }
    co_return;
  }

  // Optimized (Section 3.2): drop locks FIRST, append the commit record
  // without forcing it, and ack only once it is durable — the coordinator's
  // commit record meanwhile guarantees the outcome.
  NotifyServersDropLocks(*fam);
  const Lsn lsn = log_.Append(LogRecord::Commit(fam->top, {}));
  site_.RecordCost(fam->top.family, "sub", "commit", CostPrimitive::kLogSpool);
  site_.sched().Spawn(DelayedCommitAck(family_id, fam->top, fam->coordinator, lsn, inc));
  co_return;
}

Async<void> TranMan::DelayedCommitAck(FamilyId family_id, Tid top, SiteId coordinator,
                                      Lsn commit_lsn, uint32_t inc) {
  co_await site_.sched().Delay(kAckDelay);
  if (Dead(inc)) {
    co_return;
  }
  // Usually free: a group-commit batch or later traffic already hardened it.
  if (!co_await ForceAt("tm.sub.ack_force", family_id, commit_lsn, /*hold_worker=*/false)) {
    co_return;
  }
  TmMsg ack;
  ack.type = TmMsgType::kCommitAck;
  ack.tid = top;
  // The ack is never on anyone's critical path: let it ride other traffic.
  QueueOffPath(coordinator, ack);
  Family* fam = FindFamily(family_id);
  if (fam != nullptr && fam->protocol == CommitProtocol::kTwoPhase && !fam->heuristic) {
    RetireFamily(family_id);
  }
}

Async<void> TranMan::SubordinateAbort(Family* fam) {
  if (fam->state == TmTxnState::kCommitted || fam->state == TmTxnState::kAborted) {
    ++counters_.duplicate_effects;  // See SubordinateCommit: exactly-once sensor.
    co_return;
  }
  ClearBlocked(fam);  // Blocked time ends when the abort starts, before the undo.
  const FamilyId family_id = fam->top.family;
  if (!co_await AbortLocally(fam, "sub")) {
    co_return;
  }
  fam = FindFamily(family_id);
  if (fam == nullptr || !Decide(fam, TmDecision::kAbort)) {
    co_return;
  }
  if (fam->protocol == CommitProtocol::kTwoPhase && !fam->heuristic) {
    RetireFamily(family_id);
  }
}

Async<void> TranMan::OrphanWatch(FamilyId family_id, uint32_t inc) {
  int failed_probes = 0;
  while (true) {
    co_await site_.sched().Delay(config_.orphan_check_interval);
    if (Dead(inc)) {
      co_return;
    }
    Family* fam = FindFamily(family_id);
    if (fam == nullptr || fam->state != TmTxnState::kActive || fam->committing) {
      co_return;  // Resolved, or the commit protocol now owns the family.
    }
    const SiteId origin = family_id.origin;
    RpcResult result = co_await comman_.netmsg().Call(
        origin, kTranManServiceName, kTmQueryStatus, EncodeTid(fam->top),
        RpcContext{site_.id(), fam->top}, /*via_comman=*/false);
    if (Dead(inc)) {
      co_return;
    }
    fam = FindFamily(family_id);
    if (fam == nullptr || fam->state != TmTxnState::kActive || fam->committing) {
      co_return;
    }
    bool presume_dead = false;
    if (!result.status.ok()) {
      presume_dead = ++failed_probes >= kMaxOrphanProbes;
    } else {
      ByteReader r(result.body);
      const auto state = static_cast<TmTxnState>(r.U8());
      if (state == TmTxnState::kUnknown || state == TmTxnState::kAborted) {
        presume_dead = true;  // Origin has forgotten or aborted: abort here too.
      } else {
        failed_probes = 0;  // Alive and still active: keep watching.
      }
    }
    if (presume_dead) {
      // Safe: we never prepared, so the transaction cannot have committed
      // (and, unprepared, the abort evaluates no tm.aborted point).
      fam->committing = true;
      if (!co_await AbortLocally(fam, "sub")) {
        co_return;
      }
      fam = FindFamily(family_id);
      if (fam != nullptr) {
        fam->state = TmTxnState::kAborted;
        RecordOutcome(family_id, /*committed=*/false);
        ++counters_.orphans_aborted;
        RetireFamily(family_id);
      }
      co_return;
    }
  }
}

// --- Takeover (NBC change 2, Paxos Commit leader promotion) ----------------------------------

Async<TranMan::FamilyWait> TranMan::AwaitFamily(Family* fam, uint32_t inc, SimDuration timeout) {
  std::optional<TmMsg> msg = co_await fam->inbox->ReceiveTimeout(timeout);
  if (Dead(inc) || FindFamily(fam->top.family) != fam || fam->inbox->closed()) {
    co_return FamilyWait{FamilyWait::kGone, {}};
  }
  if (!msg.has_value()) {
    co_return FamilyWait{FamilyWait::kTimeout, {}};
  }
  // A phase-2 coordinator is already decided, yet its inbox can still hold a
  // takeover's COMMIT that arrived before its own decision: hand that back.
  const bool undecided =
      fam->state != TmTxnState::kCommitted && fam->state != TmTxnState::kAborted;
  if (undecided && msg->type == TmMsgType::kCommit) {
    co_await SubordinateCommit(fam);
    co_return FamilyWait{FamilyWait::kCommitted, {}};
  }
  if (undecided && msg->type == TmMsgType::kAbort) {
    co_await SubordinateAbort(fam);
    co_return FamilyWait{FamilyWait::kAborted, {}};
  }
  co_return FamilyWait{FamilyWait::kMessage, std::move(*msg)};
}

Async<std::optional<Status>> TranMan::AwaitQuorum(
    Family* fam, uint32_t inc, TmMsgType ack, const uint64_t& epoch, const char* why,
    std::function<void(int round, const std::set<SiteId>& acked)> resend) {
  std::set<SiteId> acked;
  int rounds = 0;
  while (acked.size() + 1 < fam->commit_quorum) {
    FamilyWait wait = co_await AwaitFamily(fam, inc, config_.retry_interval);
    switch (wait.kind) {
      case FamilyWait::kGone:
        co_return UnavailableError("site crashed");
      case FamilyWait::kCommitted:  // A takeover coordinator beat us to the decision.
        co_return OkStatus();
      case FamilyWait::kAborted:
        co_return AbortedError("aborted by a takeover coordinator");
      case FamilyWait::kMessage:
        if (wait.msg.type == ack && wait.msg.epoch == epoch) {
          acked.insert(wait.msg.from);
        }
        continue;
      case FamilyWait::kTimeout:
        break;
    }
    if (++rounds > config_.max_takeover_rounds) {
      co_return ParkInDoubt(fam, inc, why);
    }
    resend(rounds, acked);
  }
  co_return std::nullopt;
}

Async<bool> TranMan::Takeover(FamilyId family_id, uint32_t inc) {
  Family* fam = FindFamily(family_id);
  if (fam == nullptr) {
    co_return true;
  }
  ++counters_.takeovers;
  const bool paxos = fam->protocol == CommitProtocol::kPaxos;
  const uint64_t epoch = NextEpoch(fam);
  std::vector<SiteId> others;
  for (SiteId s : fam->sites) {
    if (s != site_.id()) {
      others.push_back(s);
    }
  }
  // A family that reaches a takeover holds the quorums its prepare, its
  // replicate or its restored log record carried.
  CAMELOT_CHECK(fam->commit_quorum != 0 && fam->abort_quorum != 0);
  const uint32_t qc = fam->commit_quorum;
  const uint32_t qa = fam->abort_quorum;
  // Acceptors: every participant for NBC (so every answer counts), the first
  // 2F+1 participants for Paxos.
  const std::vector<SiteId> paxos_acceptors = PaxosAcceptors(fam->sites, qc);
  const auto is_acceptor = [&](SiteId s) {
    return !paxos || std::find(paxos_acceptors.begin(), paxos_acceptors.end(), s) !=
                         paxos_acceptors.end();
  };
  const bool self_acceptor = is_acceptor(site_.id());
  const auto announce = [&](TmMsgType type) {
    TmMsg outcome;
    outcome.type = type;
    outcome.tid = fam->top;
    SendMsgToAll(others, outcome);
  };

  // Status phase: read the participants' states (and take their promises).
  // The Paxos marker also makes family-less acceptors promise, turning their
  // kUnknown into countable "no accepted value" testimony.
  TmMsg req;
  req.type = TmMsgType::kStatusReq;
  req.tid = fam->top;
  req.epoch = epoch;
  if (paxos) {
    req.protocol = CommitProtocol::kPaxos;
  }
  SendMsgToAll(others, req);

  std::unordered_map<SiteId, TmMsg> responses;
  const SimTime read_deadline = site_.sched().now() + 2 * config_.retry_interval;
  while (site_.sched().now() < read_deadline && responses.size() < others.size()) {
    FamilyWait wait = co_await AwaitFamily(fam, inc, read_deadline - site_.sched().now());
    if (wait.kind == FamilyWait::kTimeout) {
      break;
    }
    if (wait.kind != FamilyWait::kMessage) {
      co_return true;
    }
    if (wait.msg.type == TmMsgType::kStatusResp) {
      responses[wait.msg.from] = wait.msg;
    }
  }

  // Adopt any already-final outcome (every NBC and Paxos participant keeps a
  // tombstone, so late leaders find the truth instead of re-deciding).
  for (const auto& [from, resp] : responses) {
    if (resp.state == TmTxnState::kCommitted) {
      co_await SubordinateCommit(fam);
      announce(TmMsgType::kCommit);
      co_return true;
    }
    if (resp.state == TmTxnState::kAborted) {
      co_await SubordinateAbort(fam);
      announce(TmMsgType::kAbort);
      co_return true;
    }
  }

  // Proposal: the highest-epoch accepted decision among the acceptors read
  // wins; with no accept anywhere, abort is the safe default.
  TmDecision proposal = TmDecision::kAbort;
  uint64_t best_epoch = 0;
  bool any_replication = false;
  auto consider = [&](bool has, uint64_t rep_epoch, TmDecision dec) {
    if (has && (!any_replication || rep_epoch > best_epoch)) {
      any_replication = true;
      best_epoch = rep_epoch;
      proposal = dec;
    }
  };
  if (self_acceptor) {
    consider(fam->has_replication, fam->replicated_epoch, fam->replicated_decision);
  }
  // Paxos testimony about ballot 0 comes from prepared acceptors (a promise at
  // `epoch` plus any accepted value) and promised-empty ones (no family, but
  // a promise recorded when they answered, so "no accepted value" stays
  // true). A bare kUnknown proves nothing to Paxos, since an amnesiac
  // acceptor may have accepted and forgotten; to NBC it is static abort
  // support, because NBC participants keep tombstones and a site without
  // the family can never join a commit quorum.
  std::vector<SiteId> prepared;
  std::vector<SiteId> promised_empty;
  uint32_t abort_static_support = 0;
  for (const auto& [from, resp] : responses) {
    if (!is_acceptor(from)) {
      continue;
    }
    consider(resp.has_replication, resp.replicated_epoch, resp.replicated_decision);
    if (resp.state == TmTxnState::kPrepared) {
      prepared.push_back(from);
    } else if (resp.state == TmTxnState::kUnknown && resp.promised) {
      promised_empty.push_back(from);
    } else if (resp.state == TmTxnState::kUnknown && !paxos) {
      ++abort_static_support;
    }
  }

  // Read quorum. NBC counts every answer: with Qc + Qa = n + 1 the read set
  // intersects every quorum of the other decision at max(Qc, Qa). Paxos
  // counts only testimony against Qc, and also defers when a newer leader
  // read us meanwhile (accepting would break the promise we gave it). Short
  // of either, we are blocked like a 2PC subordinate in the window of
  // vulnerability.
  const size_t testimony = paxos ? prepared.size() + promised_empty.size() : responses.size();
  const uint32_t read_set = static_cast<uint32_t>(testimony) + (self_acceptor ? 1 : 0);
  if (read_set < (paxos ? qc : std::max(qc, qa)) || (paxos && fam->promised_epoch > epoch)) {
    MarkBlocked(fam);
    co_await site_.sched().Delay(
        Backoff(config_.takeover_backoff, kTakeoverBackoffMax, fam->takeover_round));
    co_return false;
  }

  // Accept phase at this epoch: our own durable accept (if we are an
  // acceptor) plus REPLICATEs to the prepared and promised-empty acceptors.
  const uint32_t needed = proposal == TmDecision::kCommit ? qc : qa;
  uint32_t support = proposal == TmDecision::kAbort ? abort_static_support : 0;
  fam->promised_epoch = std::max(fam->promised_epoch, epoch);
  if (self_acceptor) {
    if (!co_await Accept(fam, "tm.takeover.replicate_force", site_.id(), epoch, proposal, qc, qa,
                         /*hold_worker=*/false)) {
      co_return true;
    }
    fam = FindFamily(family_id);
    if (fam == nullptr) {
      co_return true;
    }
    ++support;
  }

  TmMsg replicate;
  replicate.type = TmMsgType::kReplicate;
  replicate.tid = fam->top;
  replicate.epoch = epoch;
  replicate.decision = proposal;
  if (paxos) {
    // Promised-empty acceptors materialize a passive-acceptor family from this
    // message (HandleReplicate), so it carries the participants and quorums.
    replicate.commit_quorum = qc;
    replicate.abort_quorum = qa;
    replicate.sites = fam->sites;
  }
  prepared.insert(prepared.end(), promised_empty.begin(), promised_empty.end());
  SendMsgToAll(prepared, replicate);

  std::set<SiteId> acked;
  const SimTime ack_deadline = site_.sched().now() + 2 * config_.retry_interval;
  while (support + acked.size() < needed && site_.sched().now() < ack_deadline) {
    FamilyWait wait = co_await AwaitFamily(fam, inc, ack_deadline - site_.sched().now());
    if (wait.kind == FamilyWait::kTimeout) {
      break;
    }
    if (wait.kind != FamilyWait::kMessage) {
      co_return true;
    }
    if (wait.msg.type == TmMsgType::kReplicateAck && wait.msg.epoch == epoch) {
      acked.insert(wait.msg.from);
    }
  }
  support += static_cast<uint32_t>(acked.size());
  if (support < needed) {
    MarkBlocked(fam);
    co_await site_.sched().Delay(
        Backoff(config_.takeover_backoff, kTakeoverBackoffMax, fam->takeover_round));
    co_return false;  // Quorum not reached this round.
  }

  // Decision point. NBC forces the commit record; Paxos only spools it, as
  // its leader does, because the accept quorum at this epoch is durable.
  if (proposal == TmDecision::kCommit) {
    const Lsn commit_lsn = log_.Append(LogRecord::Commit(fam->top, {}));
    if (paxos) {
      site_.RecordCost(fam->top.family, "takeover", "paxos.commit", CostPrimitive::kLogSpool);
    } else {
      if (!co_await ForceAt("tm.takeover.commit_force", fam->top.family, commit_lsn,
                            /*hold_worker=*/false)) {
        co_return true;
      }
    }
  } else if (!co_await AbortLocally(fam, "takeover")) {
    co_return true;
  }
  fam = FindFamily(family_id);
  if (fam == nullptr || !Decide(fam, proposal)) {
    co_return true;
  }
  if (proposal == TmDecision::kCommit) {
    NotifyServersDropLocks(*fam);
  }
  announce(proposal == TmDecision::kCommit ? TmMsgType::kCommit : TmMsgType::kAbort);
  co_return true;
}

// --- Stateless-ish message handlers ---------------------------------------------------------

Async<void> TranMan::HandleReplicate(TmMsg msg) {
  Family* fam = FindFamily(msg.tid.family);
  if (fam == nullptr) {
    // A takeover leader counted our promised-empty status answer and now
    // replicates its decision through us: materialize the passive-acceptor
    // family the promise reserved. Without a recorded promise we never
    // testified, so refuse and let the leader find a real quorum.
    const auto it = orphan_promises_.find(msg.tid.family);
    if (it == orphan_promises_.end() || msg.epoch < it->second || msg.sites.empty()) {
      co_return;
    }
    fam = CreateFamily(msg.tid);  // Consumes the promise into promised_epoch.
    fam->state = TmTxnState::kPrepared;
    fam->committing = true;
    fam->passive_acceptor = true;
    fam->protocol = CommitProtocol::kPaxos;
    fam->coordinator = msg.sites.front();
    fam->sites = msg.sites;
    fam->inbox = std::make_shared<Channel<TmMsg>>(site_.sched());
  }
  if (fam->state != TmTxnState::kPrepared) {
    co_return;
  }
  if (msg.epoch < fam->promised_epoch || msg.epoch < fam->replicated_epoch) {
    co_return;  // Promised a newer coordinator; refuse.
  }
  fam->promised_epoch = msg.epoch;
  if (msg.commit_quorum != 0) {
    fam->commit_quorum = msg.commit_quorum;
    fam->abort_quorum = msg.abort_quorum;
  }
  if (!co_await Accept(fam, "tm.accept.replicate_force", msg.from, msg.epoch, msg.decision,
                       fam->commit_quorum, fam->abort_quorum, /*hold_worker=*/false)) {
    co_return;
  }
  TmMsg ack;
  ack.type = TmMsgType::kReplicateAck;
  ack.tid = msg.tid;
  ack.epoch = msg.epoch;
  SendMsg(msg.from, ack);
}

Async<void> TranMan::HandleStatusReq(TmMsg msg) {
  Family* fam = FindFamily(msg.tid.family);
  TmMsg resp;
  resp.type = TmMsgType::kStatusResp;
  resp.tid = msg.tid;
  resp.epoch = msg.epoch;
  if (fam == nullptr) {
    resp.state = TmTxnState::kUnknown;  // Presumed abort.
    if (msg.protocol == CommitProtocol::kPaxos && msg.epoch > 0) {
      // A Paxos takeover read for a family we have never heard of. Unlike
      // 2PC this answer will be COUNTED (as "no accepted value"), so it must
      // double as a ballot promise: record it so a late-arriving ballot-0
      // vote set can no longer form an accept here behind the leader's back.
      uint64_t& promised = orphan_promises_[msg.tid.family];
      promised = std::max(promised, msg.epoch);
      resp.promised = true;
    }
  } else {
    resp.state = fam->state;
    resp.has_replication = fam->has_replication;
    resp.replicated_epoch = fam->replicated_epoch;
    resp.replicated_decision = fam->replicated_decision;
    if (fam->state == TmTxnState::kPrepared && msg.epoch > fam->promised_epoch) {
      fam->promised_epoch = msg.epoch;  // Promise (volatile).
    }
  }
  SendMsg(msg.from, resp);
  co_return;
}

Async<void> TranMan::HandleAbortMsg(TmMsg msg) {
  Family* fam = FindFamily(msg.tid.family);
  if (fam == nullptr) {
    co_return;
  }
  if (fam->state == TmTxnState::kCommitted && fam->heuristic) {
    ++counters_.heuristic_damage;  // Guessed COMMIT; the real outcome is ABORT.
    CTRACE("[%8.1fms] %s HEURISTIC DAMAGE: committed %s but coordinator aborted",
           ToMs(site_.sched().now()), ToString(site_.id()).c_str(),
           ToString(msg.tid).c_str());
    co_return;
  }
  if (fam->state == TmTxnState::kCommitted || fam->state == TmTxnState::kAborted) {
    co_return;
  }
  if (fam->passive_acceptor) {
    fam->state = TmTxnState::kAborted;  // Tombstone only; no locks, no data.
    co_return;
  }
  if (fam->state == TmTxnState::kPrepared && fam->inbox && !fam->inbox->closed()) {
    fam->inbox->Send(std::move(msg));  // The waiting subordinate decides.
    co_return;
  }
  // Active family ordered to abort (the distributed abort protocol): undo and
  // diffuse to the sites WE know about — the aborter may have had incomplete
  // knowledge (paper, Section 3.1 / reference [7]). The family never
  // prepared, so no tm.aborted point is evaluated.
  fam->committing = true;
  if (!co_await AbortLocally(fam, "sub")) {
    co_return;
  }
  fam = FindFamily(msg.tid.family);
  if (fam == nullptr) {
    co_return;
  }
  std::vector<SiteId> known = comman_.KnownSites(msg.tid.family);
  TmMsg forward;
  forward.type = TmMsgType::kAbort;
  forward.tid = msg.tid;
  for (SiteId s : known) {
    if (s != msg.from) {
      SendMsg(s, forward);
    }
  }
  fam->state = TmTxnState::kAborted;
  RecordOutcome(msg.tid.family, /*committed=*/false);
  RetireFamily(msg.tid.family);
}

// --- Nested transactions -------------------------------------------------------------------

Async<RpcResult> TranMan::HandleNestedCommit(const Tid& tid) {
  Family* fam = FindFamily(tid.family);
  if (fam == nullptr || !fam->active_nested.contains(tid.serial)) {
    co_return RpcResult{NotFoundError("nested transaction not active"), {}};
  }
  // All children must be finished first.
  for (const auto& [serial, parent] : fam->nested_parent) {
    if (parent == tid.serial && fam->active_nested.contains(serial)) {
      co_return RpcResult{FailedPreconditionError("nested children still active"), {}};
    }
  }
  Tid parent = tid;
  parent.serial = fam->nested_parent.at(tid.serial);
  parent.parent_serial = 0;

  // Anti-inherit locally and at every site the family has touched.
  co_await CallLocalServers(*fam, kSrvNestedCommit, EncodeNestedCommitRequest(tid, parent), tid);
  fam = FindFamily(tid.family);
  if (fam == nullptr) {
    co_return RpcResult{UnavailableError("family vanished"), {}};
  }
  co_await ForwardNestedToRemotes(fam, kTmNestedCommitRemote,
                                  EncodeNestedCommitRequest(tid, parent));
  fam = FindFamily(tid.family);
  if (fam != nullptr) {
    fam->active_nested.erase(tid.serial);
  }
  co_return RpcResult{OkStatus(), {}};
}

Async<RpcResult> TranMan::HandleNestedAbort(const Tid& tid) {
  Family* fam = FindFamily(tid.family);
  if (fam == nullptr || !fam->active_nested.contains(tid.serial)) {
    co_return RpcResult{NotFoundError("nested transaction not active"), {}};
  }
  // Victim set: this transaction plus all its descendants (their committed
  // effects were anti-inherited upward only as far as aborted ancestors).
  std::vector<uint32_t> victims{tid.serial};
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& [serial, parent] : fam->nested_parent) {
      if (std::find(victims.begin(), victims.end(), parent) != victims.end() &&
          std::find(victims.begin(), victims.end(), serial) == victims.end()) {
        victims.push_back(serial);
        grew = true;
      }
    }
  }
  co_await CallLocalServers(*fam, kSrvAbortSubtree, EncodeAbortSubtreeRequest(fam->top, victims),
                            tid);
  fam = FindFamily(tid.family);
  if (fam == nullptr) {
    co_return RpcResult{UnavailableError("family vanished"), {}};
  }
  co_await ForwardNestedToRemotes(fam, kTmAbortSubtreeRemote,
                                  EncodeAbortSubtreeRequest(fam->top, victims));
  fam = FindFamily(tid.family);
  if (fam != nullptr) {
    for (uint32_t serial : victims) {
      fam->active_nested.erase(serial);
    }
  }
  // Counted but NOT routed through RecordOutcome: a nested-subtree abort is
  // not a family outcome — the family lives on and decides later.
  ++counters_.aborted;
  co_return RpcResult{OkStatus(), {}};
}

Async<void> TranMan::ForwardNestedToRemotes(Family* fam, uint32_t method, Bytes body) {
  std::vector<SiteId> remotes = comman_.KnownSites(fam->top.family);
  const Tid top = fam->top;
  for (SiteId remote : remotes) {
    // Off the critical path: use the reliable RPC transport.
    co_await comman_.netmsg().Call(remote, kTranManServiceName, method, body,
                                   RpcContext{site_.id(), top}, /*via_comman=*/false);
  }
}

Async<RpcResult> TranMan::HandleNestedCommitRemote(const Tid& child, const Tid& parent) {
  Family* fam = FindFamily(child.family);
  if (fam != nullptr) {  // Else nothing of this family is here.
    co_await CallLocalServers(*fam, kSrvNestedCommit, EncodeNestedCommitRequest(child, parent),
                              child);
  }
  co_return RpcResult{OkStatus(), {}};
}

Async<RpcResult> TranMan::HandleAbortSubtreeRemote(const Tid& top,
                                                   std::vector<uint32_t> serials) {
  Family* fam = FindFamily(top.family);
  if (fam != nullptr) {
    co_await CallLocalServers(*fam, kSrvAbortSubtree, EncodeAbortSubtreeRequest(top, serials),
                              top);
  }
  co_return RpcResult{OkStatus(), {}};
}

// --- Recovery integration --------------------------------------------------------------------

void TranMan::RestoreSubordinate(RestoredSubordinate restored) {
  Family* fam = FindFamily(restored.tid.family);
  if (fam == nullptr) {
    fam = CreateFamily(restored.tid);
  }
  fam->state = TmTxnState::kPrepared;
  fam->committing = true;
  fam->coordinator = restored.coordinator;
  fam->sites = std::move(restored.sites);
  fam->protocol = restored.protocol;
  fam->commit_quorum = restored.commit_quorum;
  fam->abort_quorum = restored.abort_quorum;
  fam->has_replication = restored.has_replication;
  fam->replicated_epoch = restored.replicated_epoch;
  fam->replicated_decision = restored.replicated_decision;
  fam->local_servers = std::move(restored.local_servers);
  // Default to the safe, optimized variant flags; the coordinator's retried
  // COMMIT carries no flags, and ack-after-durable is always correct.
  fam->force_sub_commit = false;
  fam->piggyback_ack = true;
  fam->inbox = std::make_shared<Channel<TmMsg>>(site_.sched());
  site_.sched().Spawn(SubordinateWait(restored.tid.family, site_.incarnation()));
}

void TranMan::RestoreCoordinator(const Tid& tid, std::vector<SiteId> pending_subs,
                                 std::vector<std::string> local_servers, CommitOptions options) {
  Family* fam = FindFamily(tid.family);
  if (fam == nullptr) {
    fam = CreateFamily(tid);
  }
  fam->state = TmTxnState::kCommitted;
  fam->committing = true;
  fam->is_coordinator = true;
  fam->coordinator = site_.id();
  fam->protocol = options.protocol;
  fam->force_sub_commit = options.force_subordinate_commit;
  fam->piggyback_ack = options.piggyback_commit_ack;
  fam->local_servers = std::move(local_servers);
  fam->inbox = std::make_shared<Channel<TmMsg>>(site_.sched());
  RecordOutcome(tid.family, /*committed=*/true);
  site_.sched().Spawn(CoordinatorPhase2(tid.family, std::move(pending_subs)));
}

void TranMan::RestoreTombstone(const Tid& tid, TmTxnState outcome) {
  Family* fam = FindFamily(tid.family);
  if (fam == nullptr) {
    fam = CreateFamily(tid);
  }
  fam->state = outcome;
  fam->committing = true;
}

}  // namespace camelot
