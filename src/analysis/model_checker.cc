#include "src/analysis/model_checker.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <map>
#include <string_view>
#include <utility>

#include "src/base/logging.h"
#include "src/base/parallel.h"

namespace camelot {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t h, std::string_view bytes) {
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

// A 128-bit fingerprint of a state's canonical bytes. Two distinct states
// share one with probability 2^-128, so n states hold a colliding pair with
// probability at most n^2 / 2^129.
struct Fingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool empty() const { return lo == 0 && hi == 0; }
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

// murmur3's 64-bit finalizer.
uint64_t Fmix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

// Two lanes, each with murmur3's per-block mixing under its own constants,
// over the bytes as 8-byte words (the last one zero-padded).
Fingerprint FingerprintOf(std::string_view bytes) {
  constexpr uint64_t kC1 = 0x87c37b91114253d5ULL;
  constexpr uint64_t kC2 = 0x4cf5ad432745937fULL;
  uint64_t a = bytes.size();
  uint64_t b = ~bytes.size();
  for (size_t i = 0; i < bytes.size(); i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, std::min<size_t>(8, bytes.size() - i));
    a ^= std::rotl(w * kC1, 31) * kC2;
    a = std::rotl(a, 27) * 5 + 0x52dce729;
    b ^= std::rotl(w * kC2, 33) * kC1;
    b = std::rotl(b, 31) * 5 + 0x38495ab5;
  }
  Fingerprint f{Fmix64(a), Fmix64(b)};
  if (f.empty()) {
    f.lo = 1;  // All-zero marks an empty slot in FingerprintSet.
  }
  return f;
}

// The visited set: open addressing with linear probing over a power-of-two
// table of fingerprints, grown to keep the load at most one half.
class FingerprintSet {
 public:
  // Adds `f`; false when it was already present.
  bool Insert(Fingerprint f) {
    if (2 * (size_ + 1) > slots_.size()) {
      Grow();
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = f.lo & mask;; i = (i + 1) & mask) {
      if (slots_[i].empty()) {
        slots_[i] = f;
        ++size_;
        return true;
      }
      if (slots_[i] == f) {
        return false;
      }
    }
  }

 private:
  void Grow() {
    std::vector<Fingerprint> old = std::move(slots_);
    slots_.assign(old.empty() ? 1024 : 2 * old.size(), Fingerprint{});
    size_ = 0;
    for (const Fingerprint& f : old) {
      if (!f.empty()) {
        Insert(f);
      }
    }
  }

  std::vector<Fingerprint> slots_;
  size_t size_ = 0;
};

struct Found {
  std::string invariant;
  std::string detail;
};

// State-local safety invariants (termination is checked separately, at
// terminal states only).
std::optional<Found> CheckStateInvariants(const SpecMachine& m, const SpecState& s) {
  if (s.stability_broken) {
    return Found{"decision-stability",
                 "p" + std::to_string(s.stability_proc) + " changed an observed decision"};
  }
  for (int i = 0; i < m.n(); ++i) {
    for (int j = i + 1; j < m.n(); ++j) {
      const SpecDecision a = s.observed[static_cast<size_t>(i)];
      const SpecDecision b = s.observed[static_cast<size_t>(j)];
      if (a != SpecDecision::kNone && b != SpecDecision::kNone && a != b) {
        return Found{"agreement", "p" + std::to_string(i) + " observed " + SpecDecisionName(a) +
                                      " but p" + std::to_string(j) + " observed " +
                                      SpecDecisionName(b)};
      }
    }
  }
  const bool commit_forbidden =
      m.scenario().outcome == TxnOutcome::kAbort || s.no_votes_used > 0;
  if (commit_forbidden) {
    for (int i = 0; i < m.n(); ++i) {
      if (s.observed[static_cast<size_t>(i)] == SpecDecision::kCommit) {
        return Found{"validity",
                     "p" + std::to_string(i) + " observed commit although " +
                         (m.scenario().outcome == TxnOutcome::kAbort ? "the client aborted"
                                                                     : "a participant voted no")};
      }
    }
  }
  for (int i = 0; i < m.n(); ++i) {
    const SpecProc& p = s.procs[static_cast<size_t>(i)];
    if (!p.crashed && p.decided != SpecDecision::kNone && p.locks) {
      return Found{"orphan-locks", "p" + std::to_string(i) + " decided " +
                                       SpecDecisionName(p.decided) + " but still holds locks"};
    }
  }
  return std::nullopt;
}

std::optional<Found> CheckTerminal(const SpecMachine& m, const SpecState& s,
                                   const SpecBounds& bounds) {
  if (s.losses_used > 0) {
    return std::nullopt;  // Permanent loss excuses blocking.
  }
  // Bounded-retry artifact, global form: if the highest ballot anywhere
  // belongs to a round that died undecided and its leader has no retry
  // budget left, everyone who promised it is stranded by the ROUND BOUND —
  // the runtime's leader would retry with a higher ballot. A completed
  // highest round earns no excuse: failing to notify is a real violation.
  uint64_t highest = 0;
  for (int i = 0; i < m.n(); ++i) {
    highest = std::max({highest, s.procs[static_cast<size_t>(i)].promised,
                        s.procs[static_cast<size_t>(i)].lead_epoch});
  }
  if (highest > 0) {
    const SpecProc& leader = s.procs[static_cast<size_t>(highest % 16)];
    if (leader.decided == SpecDecision::kNone &&
        leader.takeover_rounds >= bounds.max_takeover_rounds) {
      return std::nullopt;
    }
  }
  for (int i = 0; i < m.n(); ++i) {
    const SpecProc& p = s.procs[static_cast<size_t>(i)];
    if (p.crashed || !m.NeedsDecision(i) || p.decided != SpecDecision::kNone) {
      continue;
    }
    // Bounded-liveness caveat: a participant whose last takeover round was
    // superseded by a competing higher ballot is stranded by the ROUND BOUND,
    // not by the protocol — the runtime retries takeover indefinitely. The
    // theorem checked is therefore "undecided implies the retry budget ran
    // out", which collapses to true non-blocking as rounds -> infinity.
    if (m.TakeoverCandidate(i) && p.takeover_rounds >= bounds.max_takeover_rounds) {
      continue;
    }
    return Found{"non-blocking",
                 "terminal state leaves live p" + std::to_string(i) + " undecided in phase " +
                     SpecPhaseName(p.phase)};
  }
  return std::nullopt;
}

// Replays `moves` from the initial state, taking each move only where
// ForEachSuccessor offers it, so a replay and the BFS share one definition of
// an enabled move. Returns the invariant found at any point along the way
// (first hit wins, matching the BFS which checks every state), or nullopt if
// the trace no longer violates / no longer applies.
std::optional<Found> ReplayTrace(const SpecMachine& m, const std::vector<SpecMove>& moves,
                                 const SpecBounds& bounds) {
  SpecState s = m.Initial();
  SpecState next;
  SpecScratch scratch;
  std::string bytes;
  std::optional<Found> hit = CheckStateInvariants(m, s);
  for (const SpecMove& mv : moves) {
    if (hit.has_value()) {
      return hit;
    }
    bool taken = false;
    m.CanonicalInto(s, &bytes);
    m.ForEachSuccessor(s, bytes, bounds, &scratch,
                       [&](const SpecMove& move, const SpecState& successor, std::string_view) {
                         taken = move == mv;
                         if (taken) {
                           next = successor;
                         }
                         return !taken;
                       });
    if (!taken) {
      return std::nullopt;
    }
    std::swap(s, next);
    hit = CheckStateInvariants(m, s);
  }
  return hit;
}

// Greedy minimization: drop any single move whose removal preserves the same
// named violation; iterate to a fixpoint.
std::vector<SpecMove> MinimizeTrace(const SpecMachine& m, std::vector<SpecMove> moves,
                                    const SpecBounds& bounds, const std::string& invariant) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (size_t i = 0; i < moves.size(); ++i) {
      std::vector<SpecMove> candidate;
      candidate.reserve(moves.size() - 1);
      for (size_t j = 0; j < moves.size(); ++j) {
        if (j != i) {
          candidate.push_back(moves[j]);
        }
      }
      std::optional<Found> hit = ReplayTrace(m, candidate, bounds);
      if (hit.has_value() && hit->invariant == invariant) {
        moves = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return moves;
}

// Best-effort CAMELOT_* replay recipe: walks the trace tracking each
// process's force-point hit counts and each sender's per-type send ordinals,
// mapping crash moves to "<last-force>.after@site#hit=crash" and loss moves
// to "tm.send.<TYPE>@site#ordinal=drop". Returns "" when some step has no
// runtime counterpart (takeover internals, crashes before any force).
std::string BuildReplayRecipe(const SpecMachine& m, const std::vector<SpecMove>& moves) {
  SpecState s = m.Initial();
  // Per (proc, point): hits so far. Per proc: last force (point, hit).
  std::map<std::pair<int, std::string>, int> force_hits;
  std::map<int, std::pair<std::string, int>> last_force;
  // Per (from, type): send ordinal. Per message key: its ordinal entry.
  std::map<std::pair<int, std::string>, int> send_ordinals;
  std::map<std::array<uint64_t, 3>, std::pair<std::string, std::pair<int, int>>> msg_origin;
  std::vector<std::string> entries;

  for (const SpecMove& mv : moves) {
    if (mv.kind == SpecMove::Kind::kCrash) {
      auto it = last_force.find(mv.proc);
      if (it == last_force.end()) {
        return "";  // Crash before any runtime force point: no schedule hook.
      }
      entries.push_back(it->second.first + ".after@" + std::to_string(mv.proc) + "#" +
                        std::to_string(it->second.second) + "=crash");
    } else if (mv.kind == SpecMove::Kind::kLose) {
      auto it = msg_origin.find(mv.msg.Key());
      if (it == msg_origin.end()) {
        return "";
      }
      entries.push_back("tm.send." + it->second.first + "@" +
                        std::to_string(it->second.second.first) + "#" +
                        std::to_string(it->second.second.second) + "=drop");
    } else if (mv.kind == SpecMove::Kind::kNoVote) {
      return "";  // Votes are workload-driven; no failpoint arms a no vote.
    }
    SpecEffect eff;
    SpecState next = m.Apply(s, mv, &eff);
    for (const auto& f : eff.forces) {
      const int hit = ++force_hits[{f.first, f.second}];
      last_force[f.first] = {f.second, hit};
    }
    // Attribute ordinals to the messages this move inserted.
    for (const SpecMsg& msg : next.net) {
      if (!s.HasMsg(msg)) {
        const int ord = ++send_ordinals[{msg.from, SpecMsgTypeName(msg.type)}];
        msg_origin[msg.Key()] = {SpecMsgTypeName(msg.type), {msg.from, ord}};
      }
    }
    s = std::move(next);
  }

  std::string recipe = "CAMELOT_PROTOCOL=" + ProtocolName(m.scenario().options);
  if (m.scenario().options.protocol == CommitProtocol::kPaxos) {
    recipe += " CAMELOT_F=" + std::to_string(m.scenario().options.paxos_f);
  }
  if (!entries.empty()) {
    recipe += " CAMELOT_SCHEDULE='";
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i > 0) {
        recipe += ';';
      }
      recipe += entries[i];
    }
    recipe += "'";
  }
  return recipe;
}

// A visited state: its BFS parent, and the ordinal of the move that reached
// it among the parent's successors in ForEachSuccessor's order.
struct Node {
  int parent = -1;
  uint32_t ordinal = 0;
};

// The moves from the initial state to `nodes[idx]`, recovered by replaying
// each ordinal through ForEachSuccessor.
std::vector<SpecMove> MovesTo(const SpecMachine& m, const SpecBounds& bounds,
                              const std::vector<Node>& nodes, int idx) {
  std::vector<uint32_t> ordinals;
  for (int at = idx; at > 0; at = nodes[static_cast<size_t>(at)].parent) {
    ordinals.push_back(nodes[static_cast<size_t>(at)].ordinal);
  }
  std::vector<SpecMove> moves;
  SpecState s = m.Initial();
  SpecState next;
  SpecScratch scratch;
  std::string bytes;
  for (auto ordinal = ordinals.rbegin(); ordinal != ordinals.rend(); ++ordinal) {
    uint32_t skip = *ordinal;
    m.CanonicalInto(s, &bytes);
    m.ForEachSuccessor(s, bytes, bounds, &scratch,
                       [&](const SpecMove& move, const SpecState& successor, std::string_view) {
                         if (skip-- > 0) {
                           return true;
                         }
                         moves.push_back(move);
                         next = successor;
                         return false;
                       });
    std::swap(s, next);
  }
  return moves;
}

// States the workers expand between two merges.
constexpr size_t kChunkStates = 2048;

// One BFS level in discovery order: each state's node id and canonical
// bytes, the bytes back to back (state i's end at ends_[i]).
class Level {
 public:
  size_t size() const { return nodes_.size(); }
  int node(size_t i) const { return nodes_[i]; }
  std::string_view bytes(size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(bytes_.data() + begin, ends_[i] - begin);
  }
  void Push(int node, std::string_view bytes) {
    nodes_.push_back(node);
    bytes_.append(bytes);
    ends_.push_back(bytes_.size());
  }
  void Clear() {
    nodes_.clear();
    ends_.clear();
    bytes_.clear();
  }

 private:
  std::vector<int> nodes_;
  std::vector<size_t> ends_;
  std::string bytes_;
};

// One frontier state's expansion: a worker fills it, the merge reads it.
// Each is reused chunk after chunk, so once its buffers have grown,
// expanding a state allocates nothing. Aligned so that no two slots of the
// chunk share a cache line.
struct alignas(64) Expansion {
  struct Next {
    Fingerprint fingerprint;
    size_t end = 0;  // Its canonical bytes end here in `bytes`.
    bool violates = false;  // CheckStateInvariants found a violation.
  };

  void Expand(const SpecMachine& m, const CheckerOptions& options, std::string_view parent) {
    m.Decode(parent, &state);
    next.clear();
    bytes.clear();
    terminal.reset();
    m.ForEachSuccessor(state, parent, options.bounds, &scratch,
                       [&](const SpecMove&, const SpecState& successor,
                           std::string_view successor_bytes) {
                         bytes.append(successor_bytes);
                         next.push_back(Next{FingerprintOf(successor_bytes), bytes.size(),
                                             CheckStateInvariants(m, successor).has_value()});
                         return true;
                       });
    if (next.empty() && options.check_termination) {
      terminal = CheckTerminal(m, state, options.bounds);
    }
  }

  SpecState state;  // The decoded parent.
  SpecScratch scratch;
  std::vector<Next> next;  // Kept moves, in ForEachSuccessor's order.
  std::string bytes;       // Their successors' canonical bytes, back to back.
  std::optional<Found> terminal;  // A state without successors failed termination.
};

}  // namespace

std::string CheckResult::Summary() const {
  std::string out = ok ? (complete ? "ok (exhaustive)" : "ok (bounded)") : "VIOLATION";
  char stats[96];
  std::snprintf(stats, sizeof(stats), ": states=%zu transitions=%zu dedup=%zu digest=%016llx",
                states, transitions, dedup_hits, static_cast<unsigned long long>(digest));
  out += stats;
  if (!ok && violation.has_value()) {
    out += " [" + violation->invariant + "] " + violation->detail;
  }
  return out;
}

CheckResult CheckSpec(const SpecMachine& machine, const CheckerOptions& options) {
  CAMELOT_CHECK(machine.HighestRound(options.bounds) <= kSpecMaxRound);
  CheckResult res;

  std::vector<Node> nodes;
  FingerprintSet seen;
  // The frontier holds canonical bytes; visited interior states keep only
  // their fingerprint and parent edge.
  Level level;
  Level next_level;

  const SpecState init = machine.Initial();
  const std::string init_canon = machine.Canonical(init);
  seen.Insert(FingerprintOf(init_canon));
  nodes.push_back(Node{});
  res.digest = FnvMix(kFnvOffset, init_canon);
  level.Push(0, init_canon);
  res.states = 1;

  auto fail = [&](int idx, const Found& found) {
    std::vector<SpecMove> moves =
        MinimizeTrace(machine, MovesTo(machine, options.bounds, nodes, idx), options.bounds,
                      found.invariant);
    Violation v;
    v.invariant = found.invariant;
    v.detail = found.detail;
    // Re-derive the final state of the minimized trace for the dump (the
    // minimized endpoint may differ from the BFS endpoint).
    SpecState final_state = machine.Initial();
    for (const SpecMove& mv : moves) {
      std::optional<Found> hit = CheckStateInvariants(machine, final_state);
      if (hit.has_value()) {
        break;
      }
      SpecEffect eff;
      final_state = machine.Apply(final_state, mv, &eff);
      std::string label = machine.MoveLabel(mv);
      for (const std::string& note : eff.notes) {
        label += "\n      " + note;
      }
      v.trace.push_back(label);
    }
    v.state_dump = machine.DumpState(final_state);
    v.replay = BuildReplayRecipe(machine, moves);
    res.ok = false;
    res.violation = std::move(v);
  };

  {
    // The initial state can only violate through a broken spec, but check it
    // anyway: mutations are allowed to be arbitrarily silly.
    std::optional<Found> found = CheckStateInvariants(machine, init);
    if (found.has_value()) {
      fail(0, *found);
      res.complete = false;
      return res;
    }
  }

  // Level by level, in chunks: the workers expand a chunk's states into their
  // own slots, then this thread merges the slots in frontier order, exactly
  // as a serial BFS would meet them, so every counter, the digest and the
  // first violation are the same at any thread count.
  const int threads = DefaultSweepThreads();
  std::vector<Expansion> chunk;
  while (level.size() > 0) {
    for (size_t begin = 0; begin < level.size(); begin += kChunkStates) {
      const size_t count = std::min(kChunkStates, level.size() - begin);
      if (chunk.size() < count) {
        chunk.resize(count);
      }
      ParallelFor(threads, count, [&](size_t i) {
        chunk[i].Expand(machine, options, level.bytes(begin + i));
      });
      for (size_t i = 0; i < count; ++i) {
        const Expansion& x = chunk[i];
        const int idx = level.node(begin + i);
        if (x.terminal.has_value()) {
          fail(idx, *x.terminal);
          return res;
        }
        size_t start = 0;
        for (uint32_t ordinal = 0; ordinal < x.next.size(); ++ordinal) {
          const Expansion::Next& next = x.next[ordinal];
          const std::string_view bytes(x.bytes.data() + start, next.end - start);
          start = next.end;
          res.transitions += 1;
          if (!seen.Insert(next.fingerprint)) {
            res.dedup_hits += 1;
            continue;
          }
          const int nidx = static_cast<int>(nodes.size());
          nodes.push_back(Node{idx, ordinal});
          res.digest = FnvMix(res.digest, bytes);
          res.states += 1;
          if (next.violates) {
            SpecState state;
            machine.Decode(bytes, &state);
            fail(nidx, *CheckStateInvariants(machine, state));
            return res;
          }
          if (res.states >= options.max_states) {
            res.ok = true;
            res.complete = false;
            return res;
          }
          next_level.Push(nidx, bytes);
        }
      }
    }
    std::swap(level, next_level);
    next_level.Clear();
  }

  res.ok = true;
  res.complete = true;
  return res;
}

// --- Seeded mutation suite ----------------------------------------------------

std::vector<SeededMutation> SeededSpecMutations() {
  std::vector<SeededMutation> out;
  auto scenario = [](CommitOptions opt, int u, int r, bool local, TxnOutcome outcome) {
    SpecScenario sc;
    sc.options = opt;
    sc.update_subs = u;
    sc.readonly_subs = r;
    sc.local_updates = local;
    sc.outcome = outcome;
    return sc;
  };
  const TxnOutcome kC = TxnOutcome::kCommit;

  {
    SeededMutation m;
    m.name = "2pc-drop-coordinator-commit-force";
    m.description = "Optimized 2PC spools the commit record instead of forcing it; a "
                    "coordinator crash after notifying forgets the commit.";
    m.scenario = scenario(CommitOptions::Optimized(), 1, 0, true, kC);
    m.knobs.force_coordinator_commit = false;
    m.bounds.max_crashes = 1;
    m.expected_invariants = {"decision-stability", "agreement"};
    out.push_back(std::move(m));
  }
  {
    SeededMutation m;
    m.name = "2pc-drop-subordinate-prepare-force";
    m.description = "The subordinate's prepare record is spooled; a crash after voting "
                    "yes lets it presume abort while the coordinator commits.";
    m.scenario = scenario(CommitOptions::Optimized(), 1, 0, true, kC);
    m.knobs.force_subordinate_prepare = false;
    m.bounds.max_crashes = 1;
    m.expected_invariants = {"agreement", "decision-stability"};
    out.push_back(std::move(m));
  }
  {
    SeededMutation m;
    m.name = "2pc-drop-subordinate-ack-force";
    m.description = "The delayed ack is spooled, so the ack no longer certifies a "
                    "durable commit record; coordinator forgets, subordinate re-presumes.";
    m.scenario = scenario(CommitOptions::Optimized(), 1, 0, true, kC);
    m.knobs.force_subordinate_ack = false;
    m.bounds.max_crashes = 1;
    m.expected_invariants = {"decision-stability", "agreement"};
    out.push_back(std::move(m));
  }
  {
    SeededMutation m;
    m.name = "2pc-presume-commit-on-unknown";
    m.description = "Recovery and status replies presume commit for unknown families "
                    "instead of abort.";
    m.scenario = scenario(CommitOptions::Optimized(), 2, 0, true, kC);
    m.knobs.presume_abort_on_unknown = false;
    m.bounds.max_crashes = 1;
    m.bounds.max_no_votes = 1;
    m.expected_invariants = {"agreement", "validity"};
    out.push_back(std::move(m));
  }
  {
    SeededMutation m;
    m.name = "2pc-unopt-drop-subordinate-commit-force";
    m.description = "The unoptimized variant's subordinate commit force is demoted to a "
                    "spool, so the immediate ack lies about durability.";
    m.scenario = scenario(CommitOptions::Unoptimized(), 1, 0, true, kC);
    m.knobs.honor_subordinate_commit_force = false;
    m.bounds.max_crashes = 1;
    m.expected_invariants = {"decision-stability", "agreement"};
    out.push_back(std::move(m));
  }
  {
    SeededMutation m;
    m.name = "2pc-commit-despite-no-vote";
    m.description = "The coordinator skips the all-yes check and commits over a no vote.";
    m.scenario = scenario(CommitOptions::Optimized(), 2, 0, true, kC);
    m.knobs.check_all_votes = false;
    m.bounds.max_no_votes = 1;
    m.expected_invariants = {"validity", "agreement"};
    out.push_back(std::move(m));
  }
  {
    SeededMutation m;
    m.name = "2pc-retire-before-notify";
    m.description = "The coordinator spools its end record and forgets the family "
                    "without notifying; in-doubt subordinates then read presumed abort.";
    m.scenario = scenario(CommitOptions::Optimized(), 1, 0, true, kC);
    m.knobs.notify_before_retire = false;
    m.expected_invariants = {"agreement"};
    out.push_back(std::move(m));
  }
  {
    SeededMutation m;
    m.name = "nbc-weaken-replication-quorum";
    m.description = "NBC commits on one replicate-ack fewer than a majority, so a "
                    "takeover read quorum can miss every accept.";
    m.scenario = scenario(CommitOptions::NonBlocking(), 2, 0, true, kC);
    m.knobs.replication_quorum_delta = -1;
    m.bounds.max_crashes = 1;
    m.bounds.max_total_takeovers = 1;
    m.expected_invariants = {"agreement", "decision-stability"};
    out.push_back(std::move(m));
  }
  {
    SeededMutation m;
    m.name = "nbc-skip-promise-check";
    m.description = "Participants accept any epoch regardless of promises — the "
                    "historical coordinator-vs-takeover split brain (PR2).";
    m.scenario = scenario(CommitOptions::NonBlocking(), 2, 0, true, kC);
    m.knobs.check_promise = false;
    m.bounds.max_total_takeovers = 1;
    m.expected_invariants = {"agreement", "decision-stability"};
    out.push_back(std::move(m));
  }
  {
    SeededMutation m;
    m.name = "nbc-keep-locks-on-commit";
    m.description = "Deciding no longer releases locks anywhere.";
    m.scenario = scenario(CommitOptions::NonBlocking(), 1, 1, true, kC);
    m.knobs.drop_locks_on_decide = false;
    m.expected_invariants = {"orphan-locks"};
    out.push_back(std::move(m));
  }
  {
    SeededMutation m;
    m.name = "paxos-weaken-accept-quorum";
    m.description = "Paxos commits on F durable accepts instead of F+1, so a takeover "
                    "read majority can miss the whole accept set.";
    m.scenario = scenario(CommitOptions::Paxos(1), 2, 0, true, kC);
    m.knobs.accept_quorum_delta = -1;
    m.bounds.max_crashes = 1;
    m.bounds.max_total_takeovers = 1;
    m.expected_invariants = {"agreement", "decision-stability"};
    out.push_back(std::move(m));
  }
  {
    SeededMutation m;
    m.name = "paxos-skip-promise-check";
    m.description = "Acceptors take ballot-0 accepts after promising a takeover ballot.";
    m.scenario = scenario(CommitOptions::Paxos(1), 2, 0, true, kC);
    m.knobs.check_promise = false;
    m.bounds.max_total_takeovers = 1;
    m.expected_invariants = {"agreement", "decision-stability"};
    out.push_back(std::move(m));
  }
  {
    SeededMutation m;
    m.name = "paxos-takeover-ignores-accepted-value";
    m.description = "The takeover leader proposes abort even when its read quorum "
                    "testified to an accepted commit.";
    m.scenario = scenario(CommitOptions::Paxos(1), 2, 0, true, kC);
    m.knobs.takeover_adopts_accepted_value = false;
    // No crash needed: a SPURIOUS takeover racing ballot 0 already exposes
    // the bug, and dropping crash branching keeps the space exhaustible.
    m.bounds.max_crashes = 0;
    m.bounds.max_total_takeovers = 1;
    m.expected_invariants = {"agreement", "decision-stability"};
    out.push_back(std::move(m));
  }
  {
    SeededMutation m;
    m.name = "paxos-accept-incomplete-votes";
    m.description = "Acceptors force ballot-0 accepts from any vote instead of a "
                    "complete all-yes set.";
    m.scenario = scenario(CommitOptions::Paxos(1), 2, 0, true, kC);
    m.knobs.paxos_accept_needs_all_votes = false;
    m.bounds.max_no_votes = 1;
    m.expected_invariants = {"validity", "agreement"};
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace camelot
