// Primitive-cost conformance oracle (the static-analysis gate).
//
// The paper's Section 4.2 analysis predicts protocol latency by summing
// primitive costs; reproducing it honestly requires that the runtime perform
// EXACTLY the primitives the analysis charges for — no extra log force, no
// duplicate datagram, no hidden IPC. This oracle closes that loop: it drives
// one fault-free minimal transaction in a deterministic world, then asserts
//   measured primitive counts == ExpectedMinimalTxnCounts(...)   (exact),
//   spec-fold protocol counts == ExpectedProtocolCounts(...)     (exact), and
//   measured completion latency >= CompletionPath(...).TotalMs() (the
//   analysis deliberately underestimates: it ignores in-process CPU).
// The spec fold is the third, independent derivation: the declarative
// state-machine spec (src/analysis/protocol_spec.h) run fault-free must
// reproduce the hand-derived vector on every cell, so a report that passes
// certifies that the model-checked protocol, the paper's analysis, and the
// runtime all charge the same primitives.
// On a count mismatch the report carries a per-primitive diff naming every
// unexpected or missing primitive.
#ifndef SRC_HARNESS_CONFORMANCE_H_
#define SRC_HARNESS_CONFORMANCE_H_

#include <functional>
#include <string>
#include <vector>

#include "src/analysis/static_analysis.h"
#include "src/harness/world.h"

namespace camelot {

// One cell of the conformance matrix: the paper's minimal transaction under a
// commit variant, operation kind, subordinate count, and outcome.
struct ConformanceScenario {
  CommitOptions options = CommitOptions::Optimized();
  TxnKind kind = TxnKind::kWrite;
  int subordinates = 1;
  TxnOutcome outcome = TxnOutcome::kCommit;
  uint64_t seed = 1;
};

struct ConformanceReport {
  bool counts_match = false;
  bool spec_fold_ok = false;  // Spec fold complete AND equal to the hand vector.
  bool latency_ok = false;  // measured_ms >= predicted_ms (underestimate bias).
  Status txn_status;        // Outcome of the driven transaction itself.
  CountVector predicted;
  CountVector spec_predicted;  // Protocol counts folded from the declarative spec.
  CountVector measured;
  std::string diff;  // Per-primitive diff; empty iff the counts match exactly.
  std::string spec_diff;  // Spec fold vs hand protocol vector; empty iff equal.
  double predicted_ms = 0;
  double measured_ms = 0;
  // The measured transaction's failpoint trace (virtual µs included); filled
  // only when `prepare` turned recording on.
  std::vector<std::string> trace;

  bool ok() const {
    return counts_match && spec_fold_ok && latency_ok && txn_status.ok();
  }
  // Human-readable verdict: the latency comparison plus the count diff.
  std::string Explain() const;
};

// Builds a deterministic Table-2-calibrated world, runs one warmup write
// transaction (steady state), clears the ledger, drives the scenario's
// minimal transaction to quiescence, and compares. `prepare` (optional) runs
// after the warmup and ledger clear, right before the measured transaction —
// mutation tests arm failpoints there, and a prepare that turns failpoint
// recording on gets the measured transaction's trace in the report.
ConformanceReport RunConformanceScenario(
    const ConformanceScenario& scenario,
    const std::function<void(World&)>& prepare = nullptr);

}  // namespace camelot

#endif  // SRC_HARNESS_CONFORMANCE_H_
