#include "src/analysis/model_checker.h"

#include <algorithm>
#include <array>
#include <bit>
#include <bitset>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>
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

// The frontier is a FIFO queue of canonical bytes in blocks of kChunkStates
// states. Up to kChunksInFlight blocks at a time are chunks handed to the
// expanding threads, which claim kBatchStates states of a chunk at a time.
constexpr size_t kChunkStates = 2048;
constexpr size_t kBatchStates = 16;
constexpr size_t kChunkBatches = kChunkStates / kBatchStates;
constexpr size_t kChunksInFlight = 4;

// Up to kChunkStates consecutive frontier states: each one's node id and
// canonical bytes, the bytes back to back (state i's end at ends[i]).
struct Block {
  size_t size() const { return nodes.size(); }
  std::string_view bytes(size_t i) const {
    const uint32_t begin = i == 0 ? 0 : ends[i - 1];
    return std::string_view(data.data() + begin, ends[i] - begin);
  }
  void Push(int node, std::string_view state) {
    nodes.push_back(node);
    data.append(state);
    ends.push_back(static_cast<uint32_t>(data.size()));
  }

  std::vector<int> nodes;
  std::vector<uint32_t> ends;
  std::string data;
};

// One thread's working storage, reused state after state: the decoded
// parent and ForEachSuccessor's scratch.
struct Expander {
  SpecState state;
  SpecScratch scratch;
};

// What expanding one batch produced: the thread that claimed the batch fills
// it, the merge reads it. Reused chunk after chunk, so once its buffers have
// grown, expanding allocates nothing. Aligned so that no two batches share a
// cache line.
struct alignas(64) Batch {
  struct Next {
    Fingerprint fingerprint;
    uint32_t end = 0;       // Its canonical bytes end here in `bytes`.
    bool violates = false;  // CheckStateInvariants found a violation.
  };

  // Expands states [first, first + count) of `block`, stopping after the
  // first one that fails the termination check: the merge ends there.
  void Expand(const SpecMachine& m, const CheckerOptions& options, const Block& block,
              size_t first, size_t count, Expander* x) {
    nodes = block.nodes.data() + first;
    next.clear();
    bytes.clear();
    ends.clear();
    terminal.reset();
    for (size_t i = first; i < first + count && !terminal.has_value(); ++i) {
      const std::string_view parent = block.bytes(i);
      m.Decode(parent, &x->state);
      const size_t before = next.size();
      m.ForEachSuccessor(x->state, parent, options.bounds, &x->scratch,
                         [&](const SpecMove&, const SpecState& successor,
                             std::string_view successor_bytes) {
                           bytes.append(successor_bytes);
                           next.push_back(Next{FingerprintOf(successor_bytes),
                                               static_cast<uint32_t>(bytes.size()),
                                               CheckStateInvariants(m, successor).has_value()});
                           return true;
                         });
      ends.push_back(static_cast<uint32_t>(next.size()));
      if (next.size() == before && options.check_termination) {
        terminal = CheckTerminal(m, x->state, options.bounds);
      }
    }
  }

  const int* nodes = nullptr;  // The batch's states' node ids.
  std::vector<Next> next;      // Kept moves of the expanded states, in order.
  std::string bytes;           // Their successors' canonical bytes, back to back.
  std::vector<uint32_t> ends;  // Expanded state i's moves end at next[ends[i]].
  std::optional<Found> terminal;  // The last expanded state failed termination.
};

// A block handed to the expanding threads, with its batches' outputs. Set
// up by the calling thread; `claimed` and `done` are guarded by the
// frontier's mutex, and out[b] belongs to the thread that claimed batch b
// until it sets done[b].
struct Chunk {
  const Block* block = nullptr;
  size_t batches = 0;
  size_t claimed = 0;  // Batches [0, claimed) have a thread.
  std::bitset<kChunkBatches> done;
  std::array<Batch, kChunkBatches> out;
};

// The FIFO frontier of one CheckSpec call and the threads that expand it.
// The calling thread appends states with Push and takes the expanded
// batches from Next strictly in FIFO order, expanding batches itself while
// the next one is unfinished; `workers` more threads, started once, expand
// batches of the chunks in flight, oldest first. Stop, or else the
// destructor, joins the workers before the blocks and outputs they read are
// destroyed, and Stop rethrows on the calling thread an exception a worker
// threw.
class Frontier {
 public:
  Frontier(const SpecMachine& m, const CheckerOptions& options, int workers)
      : m_(m), options_(options), chunks_(kChunksInFlight) {
    try {
      for (int i = 0; i < workers; ++i) {
        workers_.emplace_back([this] { Work(); });
      }
    } catch (...) {
      Join();
      throw;
    }
  }
  ~Frontier() { Join(); }
  Frontier(const Frontier&) = delete;
  Frontier& operator=(const Frontier&) = delete;

  void Push(int node, std::string_view bytes) {
    tail_.Push(node, bytes);
    if (tail_.size() == kChunkStates) {
      Close();
    }
  }

  // The next batch in queue order, once it is expanded; nullptr once the
  // queue is empty. The batch stays valid until the next call.
  const Batch* Next() {
    if (!queue_.empty() && batch_ == chunks_[head_ % kChunksInFlight].batches) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++head_;
      }
      queue_.pop_front();
      batch_ = 0;
      Dispatch();
    }
    if (queue_.empty()) {
      if (tail_.size() == 0) {
        return nullptr;
      }
      Close();  // Nothing else is left to expand, so a short block goes too.
    }
    const Chunk& c = chunks_[head_ % kChunksInFlight];
    std::unique_lock<std::mutex> lock(mu_);
    while (!c.done[batch_] && error_ == nullptr) {
      if (unclaimed_ > 0) {
        ExpandOne(lock, &expander_);
      } else {
        done_cv_.wait(lock, [&] { return c.done[batch_] || error_ != nullptr; });
      }
    }
    if (error_ != nullptr) {
      lock.unlock();
      Stop();
    }
    return &c.out[batch_++];
  }

  // Joins the workers, then rethrows the first exception one of them threw.
  void Stop() {
    Join();
    if (error_ != nullptr) {
      std::rethrow_exception(std::exchange(error_, nullptr));
    }
  }

 private:
  void Close() {
    queue_.push_back(std::move(tail_));
    tail_ = Block{};
    Dispatch();
  }

  // Hands queued blocks to free chunk slots, oldest first.
  void Dispatch() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (dispatched_ - head_ < std::min(queue_.size(), kChunksInFlight)) {
        Chunk& c = chunks_[dispatched_ % kChunksInFlight];
        c.block = &queue_[dispatched_ - head_];
        c.batches = (c.block->size() + kBatchStates - 1) / kBatchStates;
        c.claimed = 0;
        c.done.reset();
        unclaimed_ += c.batches;
        ++dispatched_;
      }
    }
    work_cv_.notify_all();
  }

  // Claims the oldest unclaimed batch in flight and expands it with `lock`
  // released. Requires unclaimed_ > 0.
  void ExpandOne(std::unique_lock<std::mutex>& lock, Expander* x) {
    size_t seq = head_;
    while (chunks_[seq % kChunksInFlight].claimed == chunks_[seq % kChunksInFlight].batches) {
      ++seq;
    }
    Chunk& c = chunks_[seq % kChunksInFlight];
    const size_t b = c.claimed++;
    --unclaimed_;
    const Block& block = *c.block;
    lock.unlock();
    const size_t first = b * kBatchStates;
    c.out[b].Expand(m_, options_, block, first, std::min(kBatchStates, block.size() - first), x);
    lock.lock();
    c.done.set(b);
    done_cv_.notify_one();
  }

  void Work() {
    try {
      Expander x;
      std::unique_lock<std::mutex> lock(mu_);
      while (true) {
        work_cv_.wait(lock, [this] { return stop_ || unclaimed_ > 0; });
        if (stop_) {
          return;
        }
        ExpandOne(lock, &x);
      }
    } catch (...) {
      // Such as std::bad_alloc: the calling thread rethrows it after the join.
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (error_ == nullptr) {
          error_ = std::current_exception();
        }
        stop_ = true;
      }
      work_cv_.notify_all();
      done_cv_.notify_all();
    }
  }

  void Join() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) {
        worker.join();
      }
    }
  }

  const SpecMachine& m_;
  const CheckerOptions& options_;
  // The calling thread's own. Only it touches tail_ and queue_; the workers
  // read the blocks in flight through their chunks.
  Expander expander_;
  Block tail_;               // Being filled, not yet queued.
  std::deque<Block> queue_;  // Oldest first; the first ones are in flight.
  std::vector<Chunk> chunks_;  // Chunk number k is chunks_[k % kChunksInFlight].
  size_t batch_ = 0;           // The oldest chunk's next batch to merge.
  std::mutex mu_;
  // Guarded by mu_. Only the calling thread writes head_ and dispatched_, so
  // it reads them without the lock.
  size_t head_ = 0;        // The oldest chunk in flight.
  size_t dispatched_ = 0;  // Chunks dispatched so far.
  size_t unclaimed_ = 0;   // Batches in flight without a thread.
  bool stop_ = false;
  std::exception_ptr error_;
  std::condition_variable work_cv_;  // unclaimed_ > 0, or stop_.
  std::condition_variable done_cv_;  // A batch is expanded, or error_ is set.
  std::vector<std::thread> workers_;
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
  CAMELOT_CHECK(machine.EpochsFitOneByte(options.bounds));
  CheckResult res;

  // The frontier holds canonical bytes; visited interior states keep only
  // their fingerprint and parent edge.
  std::vector<Node> nodes;
  FingerprintSet seen;

  const SpecState init = machine.Initial();
  const std::string init_canon = machine.Canonical(init);
  seen.Insert(FingerprintOf(init_canon));
  nodes.push_back(Node{});
  res.digest = FnvMix(kFnvOffset, init_canon);
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

  // A FIFO queue meets states in the order of a level-by-level BFS, and this
  // thread merges every batch in queue order, exactly as a serial BFS would
  // meet the successors, so every counter, the digest and the first
  // violation are the same at any thread count.
  Frontier frontier(machine, options, DefaultSweepThreads() - 1);
  frontier.Push(0, init_canon);
  while (const Batch* batch = frontier.Next()) {
    uint32_t first = 0;
    size_t start = 0;
    for (size_t i = 0; i < batch->ends.size(); ++i) {
      for (uint32_t k = first; k < batch->ends[i]; ++k) {
        const Batch::Next& next = batch->next[k];
        const std::string_view bytes(batch->bytes.data() + start, next.end - start);
        start = next.end;
        res.transitions += 1;
        if (!seen.Insert(next.fingerprint)) {
          res.dedup_hits += 1;
          continue;
        }
        const int nidx = static_cast<int>(nodes.size());
        nodes.push_back(Node{batch->nodes[i], k - first});
        res.digest = FnvMix(res.digest, bytes);
        res.states += 1;
        if (next.violates) {
          frontier.Stop();
          SpecState state;
          machine.Decode(bytes, &state);
          fail(nidx, *CheckStateInvariants(machine, state));
          return res;
        }
        if (res.states >= options.max_states) {
          frontier.Stop();
          res.ok = true;
          res.complete = false;
          return res;
        }
        frontier.Push(nidx, bytes);
      }
      first = batch->ends[i];
    }
    if (batch->terminal.has_value()) {
      frontier.Stop();
      fail(batch->nodes[batch->ends.size() - 1], *batch->terminal);
      return res;
    }
  }
  frontier.Stop();

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
