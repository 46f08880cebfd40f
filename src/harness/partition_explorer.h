// PartitionExplorer: systematic partition-schedule exploration with a
// liveness/availability oracle — the network-fault twin of CrashExplorer.
//
// Each run builds a fresh CamelotWorld, drives a fixed transfer workload
// (vault 1 <-> vault 2 ping-pong coordinated from site 0, so every transfer
// spans three sites and NBC has a quorum to win on either side of a
// coordinator-isolating split), installs a NemesisScript against the live
// network, force-heals every fault at the end of the workload window, and
// audits:
//
//   - liveness: within `resolve_window` of virtual time after HealAll(),
//     every started transaction family reaches a decided outcome at every
//     site (zero live families), and the world then quiesces;
//   - safety: the shared crash-explorer oracle — observer agreement, money
//     conservation, commit-subset match, zero leaked locks/families, and
//     exactly-once effects under datagram duplication and reordering;
//   - isolation: the run's recorded operation history replays serializably
//     (src/harness/isolation_oracle.h); a failure names the anomaly, dumps
//     the history file, and appends CAMELOT_HISTORY=<file> to the recipe;
//   - availability evidence: per-site decisions *inside* the fault window
//     (counted between each partition install and the matching heal) plus
//     blocked-period/blocked-time counters, so tests can assert the paper's
//     blocking claim — 2PC subordinates stall while a partition isolates the
//     coordinator, NBC's connected quorum decides anyway.
//
// Every failing run carries a one-line replay recipe:
//   CAMELOT_SEED=<s> CAMELOT_PROTOCOL=<2pc|2pc-unopt|2pc-int|nbc|paxos>
//   [CAMELOT_F=<f>] CAMELOT_NEMESIS='<script>'
// (CAMELOT_F appears for paxos only) which partition_schedule_test honors via
// those environment variables.
#ifndef SRC_HARNESS_PARTITION_EXPLORER_H_
#define SRC_HARNESS_PARTITION_EXPLORER_H_

#include <optional>
#include <string>
#include <vector>

#include "src/harness/nemesis.h"
#include "src/harness/world.h"
#include "src/tranman/local_api.h"

namespace camelot {

struct PartitionExplorerConfig {
  int site_count = 3;
  uint64_t seed = 1;
  // Commit variant for the workload's transfers (Optimized 2PC when unset;
  // see ExplorerConfig::variant — same contract).
  std::optional<CommitOptions> variant;

  CommitOptions Options() const { return variant.value_or(CommitOptions::Optimized()); }
  int transfers = 4;          // Serial; transfer i moves amount between vaults
                              // 1 and 2 (direction alternates), coordinated
                              // from site 0.
  int64_t initial_balance = 1000;
  int64_t amount = 10;
  // Virtual time allotted to the workload (faults fire inside this window;
  // HealAll() runs at its end), then to post-heal resolution before the
  // liveness check.
  SimDuration workload_window = Sec(20);
  SimDuration resolve_window = Sec(20);
  // Host threads for the sweep fan-out (each script runs in an independent
  // World, so runs are bit-identical at any thread count and failures are
  // merged in script order). 0 = CAMELOT_SWEEP_THREADS / host default.
  int sweep_threads = 0;
};

// Per-site availability evidence gathered across every fault window.
struct SiteObservation {
  uint64_t decided_in_window = 0;  // committed+aborted deltas while partitioned.
  uint64_t blocked_periods = 0;    // Final counter values (whole run).
  uint64_t blocked_time_us = 0;
  uint64_t stuck_families = 0;
};

struct PartitionRunResult {
  bool ok = true;
  std::vector<std::string> violations;  // Oracle failures, human-readable.
  int client_ok = 0;                    // Transfers whose commit returned OK.
  std::vector<SiteObservation> sites;
  uint64_t datagrams_reordered = 0;
  std::vector<std::string> nemesis_log;  // Applied events, timestamped.
  std::vector<std::string> unapplied;    // Events whose condition never fired.
  std::string replay;                    // One-line replay recipe for this run.
  std::string history_path;              // Dumped history (isolation failures only).

  std::string Explain() const;  // Violations joined, one per line.
};

struct PartitionSweepFailure {
  std::string label;
  NemesisScript script;
  PartitionRunResult result;
};

class PartitionExplorer {
 public:
  explicit PartitionExplorer(PartitionExplorerConfig config) : config_(config) {}

  const PartitionExplorerConfig& config() const { return config_; }

  // One full run: install `script`, drive workload, HealAll, resolve, audit.
  PartitionRunResult Run(const NemesisScript& script);

  // One run per {group split} x {phase window}: the split is installed when
  // the phase trigger fires (workload active / PREPARE sent / first sub voted
  // / decision forced) and healed 4 virtual seconds later. Covers every
  // 2-way split of a 3-site world plus total isolation, under the configured
  // protocol. Returns the failing runs; `runs` (optional) counts runs.
  std::vector<PartitionSweepFailure> ExhaustiveSinglePartitionSweep(int* runs = nullptr);

  // `rounds` seeded random multi-fault scripts: partition episodes mixed with
  // loss / duplication / reorder / congestion bursts, each force-healed at
  // the end of the workload window.
  std::vector<PartitionSweepFailure> RandomNemesisSweep(uint64_t rng_seed, int rounds,
                                                        int* runs = nullptr);

  // The replay recipe prefix for this configuration (seed + protocol).
  std::string ReplayPrefix() const;

 private:
  struct SweepCandidate {
    std::string label;
    NemesisScript script;
  };

  // Fan the candidate scripts across the sweep thread pool, appending the
  // failing runs to `failures` in candidate order.
  void RunScripts(const std::vector<SweepCandidate>& candidates,
                  std::vector<PartitionSweepFailure>* failures);

  PartitionExplorerConfig config_;
};

}  // namespace camelot

#endif  // SRC_HARNESS_PARTITION_EXPLORER_H_
