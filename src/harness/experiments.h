// Experiment drivers shared by the benches: the paper's "basic experiments".
//
// Latency experiment (Figures 2 and 3, Table 3): a minimal distributed
// transaction — one small operation at a single server at each site — run on
// a coordinator plus 0..3 subordinate sites, repeated many times; per-repeat
// latency from begin-transaction to commit-transaction return, plus the
// derived transaction-management-only cost (total minus operation
// processing), plus the measured critical path (until all locks dropped).
//
// Throughput experiment (Figures 4 and 5): N application/server pairs at one
// site execute minimal local transactions in a closed loop; the TranMan
// worker-thread count, group commit, and kernel bottleneck are parameters.
#ifndef SRC_HARNESS_EXPERIMENTS_H_
#define SRC_HARNESS_EXPERIMENTS_H_

#include <string>

#include "src/analysis/static_analysis.h"
#include "src/harness/world.h"
#include "src/stats/summary.h"

namespace camelot {

// The paper's minimal distributed transaction: one small operation at a
// single server at each of `subordinates + 1` sites, then commit under
// `options` — or, with TxnOutcome::kAbort, a client abort after the
// operations (the abort path the conformance oracle audits). Servers must be
// named "server:<site>" holding an int64 object "obj" (see
// RunLatencyExperiment for the canonical setup).
Async<Status> MinimalTransaction(AppClient& app, int subordinates, TxnKind kind,
                                 CommitOptions options, int64_t value,
                                 TxnOutcome outcome = TxnOutcome::kCommit);

// --- Latency ------------------------------------------------------------------

struct LatencyConfig {
  int subordinates = 1;
  TxnKind kind = TxnKind::kWrite;
  CommitOptions options = CommitOptions::Optimized();
  int repetitions = 100;
  bool multicast = false;
  uint64_t seed = 1;
  // Realistic jitter by default; zero for deterministic runs.
  bool deterministic = false;
  // The paper's experiment pipelines transactions back-to-back on the SAME
  // data element, so each transaction inherits lock-wait from its
  // predecessor's (variant-dependent) lock-drop time — this is what separates
  // the optimized / semi-optimized / unoptimized curves in Figure 2. Set
  // false to quiesce between repetitions (isolated-transaction mode, which
  // also enables the critical-path measurement).
  bool pipelined = true;
};

struct LatencyResult {
  Summary total_ms;      // Begin to commit-return (completion).
  Summary tm_ms;         // Derived transaction-management cost.
  Summary critical_ms;   // Begin to all-locks-dropped.
  int failures = 0;
};

LatencyResult RunLatencyExperiment(const LatencyConfig& config);

// --- Throughput -----------------------------------------------------------------

struct ThroughputConfig {
  int pairs = 1;                 // Application/server pairs.
  TxnKind kind = TxnKind::kWrite;
  size_t tranman_threads = 20;
  bool group_commit = true;
  SimDuration duration = Sec(60);
  uint64_t seed = 1;
};

struct ThroughputResult {
  double tps = 0;
  uint64_t commits = 0;
  uint64_t disk_writes = 0;
  uint64_t pool_queued_events = 0;  // Events that waited for a TranMan thread.
};

ThroughputResult RunThroughputExperiment(const ThroughputConfig& config);

// Applies the Table-2-calibrated world used by the latency experiments.
WorldConfig LatencyWorldConfig(int subordinates, uint64_t seed, bool deterministic);

}  // namespace camelot

#endif  // SRC_HARNESS_EXPERIMENTS_H_
