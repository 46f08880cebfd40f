// Explicit-state model checker for the declarative commit-protocol specs.
//
// Breadth-first exploration of every interleaving of spec-rule firings plus
// bounded environment choices (crashes, message losses, no votes). Visited
// states are deduplicated by a 128-bit fingerprint of their canonical bytes,
// as TLC does: two distinct states merge only on a fingerprint collision,
// which for n states has probability at most n^2 / 2^129 (about 5e-26 at six
// million states). Safety invariants are checked by name at every state:
//
//   agreement          — no two sites ever observe different decisions.
//   validity           — commit is only observed when the client asked to
//                        commit and nobody voted no.
//   decision-stability — a site never changes a decision it already exposed.
//   orphan-locks       — a site that has decided holds no locks.
//   non-blocking       — (termination, optional) no loss-free terminal state
//                        leaves a live decision-needing site undecided.
//
// A violation reports the shortest BFS trace, greedily minimized (every move
// whose removal preserves the violation is dropped), the violating state, and
// — when every step maps onto a runtime failpoint schedule — a CAMELOT_*
// replay recipe in the crash explorer's point@site#hit=action grammar.
#ifndef SRC_ANALYSIS_MODEL_CHECKER_H_
#define SRC_ANALYSIS_MODEL_CHECKER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/protocol_spec.h"

namespace camelot {

struct CheckerOptions {
  SpecBounds bounds;
  // Hard cap on distinct states; exceeding it makes the run incomplete, not
  // failed. The quick-tier configurations all fit well under the default.
  size_t max_states = 400000;
  // Also flag loss-free terminal states with a live undecided participant.
  // Meaningful for nbc / paxos (and crash-free 2PC); plain 2PC with crashes
  // blocks by design.
  bool check_termination = false;
};

struct Violation {
  std::string invariant;  // "agreement", "validity", "decision-stability", ...
  std::string detail;     // One-line specifics (who disagreed, which lock, ...).
  std::vector<std::string> trace;  // Minimized move labels, in order.
  std::string state_dump;          // The violating state, human-readable.
  std::string replay;  // CAMELOT_* recipe, empty when no runtime schedule maps.
};

struct CheckResult {
  bool ok = false;        // No violation found.
  bool complete = false;  // Exhausted the state space within max_states.
  size_t states = 0;
  size_t transitions = 0;
  size_t dedup_hits = 0;
  uint64_t digest = 0;  // FNV-1a over each new state's canonical bytes, in BFS order.
  std::optional<Violation> violation;
  std::string Summary() const;
};

// Requires machine.HighestRound(options.bounds) <= kSpecMaxRound and
// machine.EpochsFitOneByte(options.bounds). The frontier is a FIFO queue of
// canonical bytes: DefaultSweepThreads() - 1 workers (CAMELOT_SWEEP_THREADS),
// started for this call and joined before it returns, expand batches of it
// ahead of the calling thread, which merges them in queue order and expands
// batches itself while the next one it must merge is unfinished. The result
// is the same at any thread count. An exception thrown on a worker is
// rethrown on the calling thread.
CheckResult CheckSpec(const SpecMachine& machine, const CheckerOptions& options);

// One seeded spec weakening for the kill suite: the scenario + knobs define a
// buggy spec, and the checker must report a violation whose invariant is one
// of expected_invariants. The same scenario and bounds with default knobs
// must verify clean (the control run).
struct SeededMutation {
  std::string name;
  std::string description;
  SpecScenario scenario;
  SpecKnobs knobs;
  SpecBounds bounds;
  std::vector<std::string> expected_invariants;
};

// The built-in mutation suite covering every knob: dropped forces, weakened
// quorums, skipped promise / vote checks, flipped presumption, kept locks.
std::vector<SeededMutation> SeededSpecMutations();

}  // namespace camelot

#endif  // SRC_ANALYSIS_MODEL_CHECKER_H_
