// TranMan: the Camelot transaction manager (the subject of the paper).
//
// Implements, per site:
//   - begin / commit / abort / join for arbitrarily nested, distributed
//     transaction families (Moss model);
//   - presumed-abort two-phase commit with the Section 3.2 optimization
//     selectable per commit call (subordinate commit-record force and
//     commit-ack piggybacking are independent switches);
//   - the Section 3.3 non-blocking three-phase commitment protocol with a
//     replication phase, quorum consensus, timeout-driven coordinator
//     takeover, and tolerance of multiple simultaneous coordinators;
//   - the read-only optimization for both protocols (read-only subordinates
//     write no log records and skip all later phases);
//   - the distributed abort protocol (works with incomplete knowledge by
//     diffusion through each site's ComMan list);
//   - a worker-thread pool through which every protocol event passes
//     (Section 3.4), so thread-count experiments measure real queueing;
//   - datagram timeout/retry with idempotent handlers (TranMans bypass the
//     ComMan and talk raw datagrams, per the paper's footnote 1).
//
// Observation goes through the Site: every protocol force, spooled record and
// datagram is one cost-ledger event tagged with the family and this site's
// role in it, and every top-level outcome transition is one history event.
//
// Blocking semantics: a 2PC subordinate that loses its coordinator during the
// window of vulnerability stays prepared, holding locks, periodically asking
// the coordinator for status (observable via IsBlocked). The non-blocking
// protocol instead elects itself coordinator and resolves via quorum.
#ifndef SRC_TRANMAN_TRANMAN_H_
#define SRC_TRANMAN_TRANMAN_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/failpoint.h"
#include "src/base/recent_families.h"
#include "src/comman/comman.h"
#include "src/ipc/site.h"
#include "src/net/network.h"
#include "src/sim/channel.h"
#include "src/tranman/local_api.h"
#include "src/tranman/messages.h"
#include "src/tranman/worker_pool.h"
#include "src/wal/stable_log.h"

namespace camelot {

struct TranManConfig {
  // Worker threads in the pool (paper Figure 4/5 uses 1, 5, 20).
  size_t worker_threads = 20;
  // CPU burst consumed per protocol event (message, call, upcall).
  SimDuration cpu_per_event = Usec(200);
  // Subordinate: silence before querying status (2PC) or taking over (NBC).
  SimDuration outcome_timeout = Sec(1.5);
  // Datagram retransmission interval inside protocol wait loops.
  SimDuration retry_interval = Usec(800000);
  // Takeover: pause between unsuccessful rounds, and how many rounds to try
  // before parking (still receptive to messages; a restart resumes retries).
  SimDuration takeover_backoff = Usec(700000);
  int max_takeover_rounds = 8;
  // Orphan detection: an ACTIVE (unprepared) subordinate family probes the
  // family origin at this interval and aborts itself after a few unreachable
  // or unknown answers. Always safe: an unprepared site's vote is required
  // for commit, so no commit decision can exist yet.
  SimDuration orphan_check_interval = Sec(4.0);
  // Message batching for off-critical-path traffic ("Camelot batches only
  // those messages that are not in the critical path"): commit-acks queue per
  // destination and either ride the next protocol datagram to that site or
  // flush after this delay. 0 disables batching.
  SimDuration piggyback_delay = Usec(20000);
  // The vote timeout, ack delay, backoff shape and caps, orphan-probe and
  // status-round limits, stuck-family deadline and off-path queue bound are
  // constants in tranman.cc.

  // --- Overload / admission control (defaults preserve legacy behaviour) -------
  // Bound on the worker pool's new-work admission queue: begins and incoming
  // prepares queue here; when it is full, begins fast-reject kOverloaded
  // (without occupying a worker) and prepares are refused with an abort vote.
  // 0 = unbounded. Completion work (votes, outcomes, acks) is never bounded.
  size_t admission_queue_limit = 0;
  // Queue discipline for the bounded admission queue under overload.
  AdmissionPolicy admission_policy = AdmissionPolicy::kFifo;
  // Cap on live (unretired) families at this site: begins and first-contact
  // joins beyond it fast-reject kOverloaded. 0 = uncapped.
  size_t max_live_families = 0;
  // Drop work whose propagated client deadline has already passed (begins,
  // queued admissions, incoming prepares). Deadlines only exist when a client
  // sets one, so this is inert for legacy workloads.
  bool shed_expired_work = true;
};

struct TranManCounters {
  uint64_t begun = 0;
  uint64_t committed = 0;        // Top-level commits at this site (either role).
  uint64_t aborted = 0;
  uint64_t prepares_handled = 0;
  uint64_t read_only_votes = 0;
  uint64_t takeovers = 0;
  uint64_t status_queries = 0;
  uint64_t orphans_aborted = 0;
  // Times a family entered the blocked state: a 2PC subordinate asking a
  // silent coordinator, or an NBC/Paxos takeover round short of a quorum.
  uint64_t blocked_periods = 0;
  uint64_t blocked_time_us = 0;  // Total sim-time families spent blocked (lock-holding limbo).
  uint64_t stuck_families = 0;   // Families undecided past the stuck-family deadline.
  uint64_t duplicate_effects = 0;  // Commit/abort effects re-driven on an already-final family
                                   // (a duplicated or reordered datagram got through the
                                   // idempotence guards; the exactly-once oracle wants 0).
  uint64_t heuristic_resolutions = 0;
  uint64_t heuristic_damage = 0;  // Heuristic outcome contradicted the real one.
  uint64_t messages_piggybacked = 0;  // Off-path messages that rode another datagram.
  uint64_t overload_rejects = 0;   // Begins/joins fast-rejected kOverloaded (shed, not failed).
  uint64_t prepares_shed = 0;      // Incoming prepares refused (abort vote) by admission control.
  uint64_t deadline_shed = 0;      // Work dropped because its client deadline had passed.
  uint64_t offpath_dropped = 0;    // Off-path messages dropped by the queue bound.
};

class TranMan {
 public:
  TranMan(Site& site, Network& net, ComMan& comman, StableLog& log, TranManConfig config);

  // --- Recovery integration (called by src/recovery at restart) -----------------
  struct RestoredSubordinate {
    Tid tid;
    SiteId coordinator;
    std::vector<SiteId> sites;
    CommitProtocol protocol = CommitProtocol::kTwoPhase;
    uint32_t commit_quorum = 0;
    uint32_t abort_quorum = 0;
    bool has_replication = false;
    uint64_t replicated_epoch = 0;
    TmDecision replicated_decision = TmDecision::kAbort;
    std::vector<std::string> local_servers;
  };
  // Re-parks a prepared subordinate transaction and spawns its resolution
  // (status query for 2PC, takeover for NBC).
  void RestoreSubordinate(RestoredSubordinate restored);
  // Resumes a committed coordinator whose End record is missing: phase 2 is
  // re-driven so subordinates drop locks and ack.
  void RestoreCoordinator(const Tid& tid, std::vector<SiteId> pending_subs,
                          std::vector<std::string> local_servers, CommitOptions options);
  // Records a final-outcome tombstone (NBC change 4: nobody forgets early).
  void RestoreTombstone(const Tid& tid, TmTxnState outcome);
  // Broadcast a SITE-UP beacon so parked in-doubt participants elsewhere
  // re-probe us (called by the harness once restart recovery completes).
  void AnnounceRecovered();

  // --- Heuristic resolution (Section 5, LU 6.2's "heuristic commit") -----------
  // Lets an operator (or policy program) force the outcome of a BLOCKED
  // prepared transaction instead of waiting for the coordinator. "While not
  // guaranteeing correctness, this approach does not slow down commitment in
  // the regular case." If the real outcome later arrives and disagrees,
  // counters().heuristic_damage records the inconsistency.
  Status HeuristicResolve(const FamilyId& family, TmDecision decision);

  // Failpoints woven through the commit protocols (see base/failpoint.h):
  //   tm.<role>.<what>_force.before / .after — around every protocol log
  //     force (local commit, 2PC commit, subordinate prepare/commit/ack,
  //     NBC prepare/replicate/commit, takeover replicate/commit, acceptor
  //     replicate);
  //   tm.send.<MsgType> — GateSend, before each datagram send
  //     (crash/drop/delay/error);
  //   tm.prepared / tm.committed / tm.aborted — just before the family's
  //     state transition is applied (Decide). Three aborts of a family that
  //     never prepared evaluate no point: a subordinate refusing a PREPARE,
  //     OrphanWatch, and HandleAbortMsg on an active family.
  void set_failpoints(Failpoints failpoints) { failpoints_ = std::move(failpoints); }

  // --- Introspection -------------------------------------------------------------
  TmTxnState QueryState(const FamilyId& family) const;
  bool IsBlocked(const FamilyId& family) const;
  // The acceptor set for a Paxos family: the first 2*Qc-1 participant sites
  // (coordinator first) — the replicated coordinator registrar.
  static std::vector<SiteId> PaxosAcceptors(const std::vector<SiteId>& sites,
                                            uint32_t commit_quorum);
  const TranManCounters& counters() const { return counters_; }
  WorkerPool& pool() { return pool_; }
  TranManConfig& config() { return config_; }
  size_t live_family_count() const;
  size_t readonly_voted_count() const { return readonly_voted_.size(); }

 private:
  struct Family {
    Tid top;
    TmTxnState state = TmTxnState::kActive;
    bool committing = false;   // A commit/abort decision flow owns this family.
    bool blocked = false;      // Subordinate stuck unable to decide (2PC window of
                               // vulnerability, or NBC without a reachable quorum).
    SimTime blocked_since = 0;       // When `blocked` was last set (for blocked_time_us).
    bool watchdog_armed = false;     // A StuckFamilyWatch one-shot is in flight.
    bool is_coordinator = false;
    // Client deadline (absolute virtual time; 0 = none), captured at begin
    // and carried on prepares so subordinates can refuse expired work.
    SimTime deadline = 0;

    // Local participants (servers on this site that joined).
    std::vector<std::string> local_servers;

    // Nesting bookkeeping (kept at the family's origin site).
    uint32_t next_serial = 1;
    std::unordered_map<uint32_t, uint32_t> nested_parent;  // serial -> parent serial
    std::set<uint32_t> active_nested;

    // Commit-protocol context (subordinate or coordinator).
    SiteId coordinator = kInvalidSite;
    std::vector<SiteId> sites;  // All participants, coordinator first.
    CommitProtocol protocol = CommitProtocol::kTwoPhase;
    bool force_sub_commit = false;
    bool piggyback_ack = false;
    uint32_t commit_quorum = 0;
    uint32_t abort_quorum = 0;

    // NBC and Paxos acceptor state.
    uint64_t promised_epoch = 0;   // Volatile promise (statusreq).
    bool has_replication = false;  // Durable (replication record forced).
    uint64_t replicated_epoch = 0;
    TmDecision replicated_decision = TmDecision::kAbort;
    uint64_t takeover_round = 0;
    // NBC read-only subordinate retained purely as a replication acceptor /
    // status responder (the read-only optimization keeps it off the critical
    // path but available when a quorum needs it).
    bool passive_acceptor = false;
    // Outcome was forced by HeuristicResolve; a contradicting real outcome
    // counts as heuristic damage.
    bool heuristic = false;

    // Paxos Commit acceptor state: every participant's vote as heard at this
    // acceptor. A ballot-0 accept forms only from a complete all-yes set
    // (ordered map so replay traces are deterministic).
    std::map<SiteId, TmVote> paxos_votes;

    // Protocol mailbox for whichever coroutine is driving this family.
    std::shared_ptr<Channel<TmMsg>> inbox;
  };

  // --- Service handler (local IPC) ---------------------------------------------
  Async<RpcResult> Handle(RpcContext ctx, uint32_t method, Bytes body);
  // kOverloaded fast-reject for new work, evaluated BEFORE the event takes a
  // worker: admission queue full, live-family cap hit, or deadline expired.
  Status AdmissionCheck(SimTime deadline, bool creates_family) const;
  Async<RpcResult> HandleBegin(const Tid& parent, SimTime deadline);
  Async<RpcResult> HandleJoin(const Tid& tid, const std::string& server);
  Async<RpcResult> HandleCommit(const Tid& tid, const CommitOptions& options);
  Async<RpcResult> HandleAbort(const Tid& tid);
  Async<RpcResult> HandleNestedCommit(const Tid& tid);
  Async<RpcResult> HandleNestedAbort(const Tid& tid);
  Async<RpcResult> HandleNestedCommitRemote(const Tid& child, const Tid& parent);
  Async<RpcResult> HandleAbortSubtreeRemote(const Tid& top, std::vector<uint32_t> serials);
  // Sends a nested-commit/abort control call to every remote site the family
  // touched (reliable RPC; off the commit critical path).
  Async<void> ForwardNestedToRemotes(Family* fam, uint32_t method, Bytes body);

  // --- Commit flows ---------------------------------------------------------------
  // Collects votes from local servers. Returns kNo/kUpdate/kReadOnly summary.
  Async<ServerVote> VoteLocalServers(Family* fam);
  // A commit that needs no phase 2: the local commit record (forced only
  // when this site updated) alone decides. Serves the local-only commit, NBC
  // whose subordinates all voted read-only, and the 2PC and Paxos read-only
  // commits; `tell` names the lingering passive acceptors to tell the outcome
  // for their tombstones. The NBC coordinator keeps its tombstone; every
  // other family retires.
  Async<Status> CommitLocalOnly(Family* fam, bool has_updates, const std::vector<SiteId>& tell);
  // Makes this site the family's coordinator (participants, quorums, inbox)
  // and returns the PREPARE every variant fans out.
  TmMsg BeginCoordinating(Family* fam, const CommitOptions& options,
                          const std::vector<SiteId>& subs, uint32_t commit_quorum,
                          uint32_t abort_quorum);
  // NBC change 5 (and Paxos's acceptor 0): an updating coordinator forces its
  // prepare record at `point` before fanning out; then tm.prepared.
  Async<Status> PrepareCoordinator(Family* fam, bool local_updates, const char* point);
  Async<Status> CoordinateTwoPhase(Family* fam, const CommitOptions& options,
                                   std::vector<SiteId> subs, bool local_updates);
  Async<Status> CoordinateNonBlocking(Family* fam, std::vector<SiteId> subs, bool local_updates);
  // Paxos Commit (Gray & Lamport) with F >= 1: per-participant ballot-0 vote
  // instances batched into one accept record per acceptor; the coordinator is
  // acceptor 0 and the decision is durable once F+1 acceptors forced accepts.
  // F = 0 never reaches here — HandleCommit routes it through
  // CoordinateTwoPhase, the paper's degenerate collapse to optimized 2PC.
  Async<Status> CoordinatePaxos(Family* fam, uint32_t f_eff, std::vector<SiteId> subs,
                                bool local_updates);
  // Phase 1 shared by every protocol: send prepares, gather votes. Takes no
  // abort action itself; the caller decides from the returned round.
  struct VoteRound {
    bool all_yes = false;
    bool any_abort = false;  // An explicit abort vote (vs. a silent timeout).
    std::vector<SiteId> update_subs;
  };
  Async<VoteRound> GatherVotes(Family* fam, const TmMsg& prepare_template,
                               const std::vector<SiteId>& subs);
  // A coordinator's wait for its commit quorum (NBC's replicate acks, Paxos's
  // accepts): counts the senders of `ack` at `epoch`, read at each arrival.
  // Each silent retry_interval is a round, resent by resend(round, acked);
  // past max_takeover_rounds it parks in doubt with `why`. Empty once the
  // quorum forms, else the status for the coordinator to return.
  Async<std::optional<Status>> AwaitQuorum(
      Family* fam, uint32_t inc, TmMsgType ack, const uint64_t& epoch, const char* why,
      std::function<void(int round, const std::set<SiteId>& acked)> resend);
  // Every coordinator's commit point: the commit record listing
  // `record_subs`, forced at `point` or, with no point, spooled as `phase`;
  // then Decide, the lock drop and phase 2 to `notify`.
  Async<Status> CoordinatorCommit(Family* fam, const char* phase, const char* point,
                                  std::vector<SiteId> record_subs, std::vector<SiteId> notify);
  Async<void> CoordinatorPhase2(FamilyId family, std::vector<SiteId> update_subs);
  Async<void> AbortDistributed(Family* fam, const std::vector<SiteId>& notify);
  // A coordinator that cannot decide (votes incomplete, superseded, or no
  // quorum) demotes itself to an in-doubt participant: SubordinateWait's
  // takeover resolves the family once connectivity returns.
  Status ParkInDoubt(Family* fam, uint32_t inc, const char* why);

  // --- Subordinate side -------------------------------------------------------------
  Async<void> HandleRemotePrepare(TmMsg msg);
  Async<void> SubordinateWait(FamilyId family_id, uint32_t inc);
  Async<void> SubordinateCommit(Family* fam);
  Async<void> SubordinateAbort(Family* fam);
  Async<void> DelayedCommitAck(FamilyId family_id, Tid top, SiteId coordinator, Lsn commit_lsn,
                               uint32_t inc);
  // One takeover round by an in-doubt NBC or Paxos participant (NBC change 2,
  // Paxos leader promotion): take a fresh epoch, read the participants'
  // states under promises, adopt any final outcome, else propose the
  // highest-epoch accepted decision (abort when none) and replicate it to a
  // quorum. The variant (fam->protocol) picks the acceptor set, read quorum,
  // abort support and decision record; see DESIGN.md, "One takeover". Returns
  // true once the outcome is decided here (or the round became moot), false
  // after a blocked round's backoff, for the caller to retry or park.
  Async<bool> Takeover(FamilyId family_id, uint32_t inc);
  // Records a participant's vote at a Paxos acceptor and, when the vote set is
  // complete and all-yes with at least one update, forms this acceptor's
  // ballot-0 accept (forced replication record + PAXOS-ACCEPTED to the leader).
  Async<void> HandlePaxosVote(TmMsg msg);
  Async<void> TryFormPaxosAccept(FamilyId family_id, uint32_t inc);
  // Every accept: the family's accepted state, its replication record and
  // the force at `point`. Promises stay with the callers: a coordinator's
  // ballot-0 epoch, MakeEpoch(0, site), is non-zero on any site but 0.
  Async<bool> Accept(Family* fam, const char* point, SiteId proposer, uint64_t epoch,
                     TmDecision decision, uint32_t commit_quorum, uint32_t abort_quorum,
                     bool hold_worker);
  // What one receive on a family's protocol inbox came to (AwaitFamily).
  struct FamilyWait {
    enum Kind {
      kGone,       // The site died, or the family retired or closed its inbox.
      kTimeout,    // Nothing arrived in time.
      kCommitted,  // A COMMIT arrived and was applied here.
      kAborted,    // An ABORT arrived and was applied here.
      kMessage,    // Any other message, handed back in `msg`.
    } kind;
    TmMsg msg;
  };
  // One receive on fam->inbox for up to `timeout` (-1 parks until a message
  // or close), for every protocol wait except GatherVotes: owns the
  // liveness checks after the receive and applies a COMMIT or ABORT that
  // reaches an undecided family mid-wait (SubordinateCommit /
  // SubordinateAbort); a decided family gets it back as a message. A caller
  // that draws jitter for `timeout` checks Dead(inc) and the inbox first.
  Async<FamilyWait> AwaitFamily(Family* fam, uint32_t inc, SimDuration timeout);
  // Watches an active subordinate family for coordinator death (see
  // TranManConfig::orphan_check_interval).
  Async<void> OrphanWatch(FamilyId family_id, uint32_t inc);
  // One-shot: fires once at the stuck-family deadline and counts the family
  // into counters().stuck_families if it is still undecided (observation only).
  Async<void> StuckFamilyWatch(FamilyId family_id, uint32_t inc);
  void ArmStuckWatch(Family* fam);
  // Blocked-state bookkeeping with blocked-time accounting.
  void MarkBlocked(Family* fam);
  void ClearBlocked(Family* fam);
  // Capped, jittered exponential backoff: base * 2^attempt, capped, +/- 20%.
  // Deterministic per seed (draws from this TranMan's rng).
  SimDuration Backoff(SimDuration base, SimDuration cap, uint64_t attempt);
  // Network topology changed (partition installed or healed): re-probe every
  // in-doubt family so a participant parked during a partition learns
  // connectivity is back (site crash/restart uses SITE-UP beacons instead).
  void OnTopologyChange();

  // --- Datagram layer -----------------------------------------------------------------
  void OnDatagram(Datagram dg);
  Async<void> DispatchMsg(TmMsg msg);
  // The tm.send.<TYPE> gate of every transmit: kLost on a crash at the point,
  // a drop or an error; kDeferred on a delay, once defer()'s retry is posted
  // (it runs only in the same incarnation). Only a delay calls defer.
  enum class SendGate { kTransmit, kLost, kDeferred };
  template <typename Defer>
  SendGate GateSend(TmMsgType type, Defer&& defer);
  // Sends a (critical-path) message now; any queued off-path messages for the
  // same destination ride along in the same datagram.
  void SendMsg(SiteId dst, TmMsg msg);
  void SendMsgToAll(const std::vector<SiteId>& dsts, TmMsg msg);
  // Queues an off-critical-path message (e.g. a commit-ack) for piggybacking;
  // it is flushed with the next SendMsg to `dst` or after piggyback_delay.
  void QueueOffPath(SiteId dst, TmMsg msg);
  void FlushOffPath(SiteId dst);
  Async<void> HandleReplicate(TmMsg msg);
  Async<void> HandleStatusReq(TmMsg msg);
  Async<void> HandleAbortMsg(TmMsg msg);

  // --- Server upcalls ------------------------------------------------------------------
  void NotifyServersDropLocks(const Family& fam);  // One-way (Figure 1 event 11).
  // Calls `method` on every local server that joined the family, in
  // parallel, and returns their results (none, without a join, if no server
  // joined).
  Async<std::vector<RpcResult>> CallLocalServers(const Family& fam, uint32_t method,
                                                 const Bytes& body, const Tid& tid);
  // Presumed abort at this site: spools the (never forced) abort record and
  // undoes the local servers. False if the site died meanwhile.
  Async<bool> AbortLocally(Family* fam, const char* role);

  // --- Plumbing ---------------------------------------------------------------------------
  Family* FindFamily(const FamilyId& id);
  const Family* FindFamily(const FamilyId& id) const;
  Family* CreateFamily(const Tid& top);
  // Removes the family from the table; the unique_ptr moves to the graveyard
  // so coroutines holding Family* stay valid until the world ends.
  void RetireFamily(const FamilyId& id);
  // Bumps the outcome counter and records the transition with the Site.
  // Every top-level commit/abort transition funnels through here; nested
  // aborts must not.
  void RecordOutcome(const FamilyId& family, bool committed);
  // The family's outcome transition: clears the blocked state, evaluates
  // tm.committed or tm.aborted, sets the state and records the outcome.
  // False means a crash fired at the point and the caller must stop.
  bool Decide(Family* fam, TmDecision decision);
  bool Dead(uint32_t inc) const { return !site_.up() || site_.incarnation() != inc; }
  // Evaluates the force failpoint `point` + `suffix` (".before" or ".after");
  // honors a delay inline. False means the caller must treat the force as
  // failed (crash or error-return fired at the point). ForceAt calls it only
  // while failpoints are active.
  Async<bool> AtForcePoint(const char* point, const char* suffix, uint32_t inc);
  // A protocol log force bracketed by "<point>.before" / "<point>.after"
  // failpoints; returns false (not durable) if a crash fired at either point.
  // With `hold_worker` the force is synchronous on a worker thread, which
  // stays occupied for its whole duration (Section 3.4/3.5 interplay). A
  // successful force records one {family, role, phase, force} cost-ledger
  // event, with role/phase derived from the point name.
  Async<bool> ForceAt(const char* point, const FamilyId& family, Lsn lsn, bool hold_worker);
  // One cost-ledger datagram event per (message, destination) — piggybacked
  // off-path messages count as their own logical datagram, so the measured
  // counts are independent of batching.
  void RecordDatagram(const TmMsg& msg);
  // Evaluates "tm.<transition>" just before a family state change; true means
  // a crash fired and the caller must stop.
  bool AtTransition(const char* transition);
  uint64_t NextEpoch(Family* fam);

  Site& site_;
  Network& net_;
  ComMan& comman_;
  StableLog& log_;
  TranManConfig config_;
  Failpoints failpoints_;
  WorkerPool pool_;
  // Backoff jitter. Seeded from the site id, never forked from the scheduler
  // stream (see the constructor); it survives crashes, so one extra draw
  // shifts every later timer at this site.
  Rng rng_;
  uint64_t next_family_seq_ = 1;
  std::unordered_map<FamilyId, std::unique_ptr<Family>> families_;
  std::vector<std::unique_ptr<Family>> graveyard_;
  // Families this site voted read-only on and forgot everything else about
  // (the newest RecentFamilies::kCapacity); kept so a retransmitted prepare
  // gets a read-only vote again instead of an abort.
  RecentFamilies readonly_voted_;
  // Ballot promises given to Paxos takeover reads for families this site has
  // never heard of (HandleStatusReq): "no accepted value" is only safe
  // testimony if ballot 0 can no longer act here, so the promise must outlive
  // the answer. Consumed into Family::promised_epoch the moment the family
  // materializes (CreateFamily) — by a late ballot-0 vote set or by the
  // leader's REPLICATE. Volatile, like the promise on a prepared family.
  std::unordered_map<FamilyId, uint64_t> orphan_promises_;
  // Off-critical-path messages awaiting piggybacking, per destination.
  std::unordered_map<SiteId, std::vector<TmMsg>> offpath_queue_;
  TranManCounters counters_;
};

}  // namespace camelot

#endif  // SRC_TRANMAN_TRANMAN_H_
