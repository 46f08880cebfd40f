// CrashExplorer: systematic crash-schedule exploration with an atomicity
// oracle.
//
// Each run builds a fresh CamelotWorld, drives a fixed multi-site transfer
// workload (every transfer touches three sites: the coordinator plus two
// vault owners) under an armed CrashSchedule, then HEALS the installation —
// restarting every down site, repeatedly if a schedule crashes a site again
// mid-recovery — and finally audits the survivors:
//
//   - money conserved: the sum of all vault balances equals the initial
//     funding plus the effects of some subset of the attempted transfers,
//     and that subset contains every transfer whose commit returned OK
//     (client-visible OK implies durably committed);
//   - agreement: two independent observer sites read identical balances;
//   - nothing leaked: zero held locks and zero live transaction families at
//     every site, and no recovery pass reported failure;
//   - isolation: the run's recorded operation history replays serializably
//     (src/harness/isolation_oracle.h); a failure names the anomaly, dumps
//     the history file, and appends CAMELOT_HISTORY=<file> to the recipe.
//
// Exploration modes:
//   Discover()                — fault-free recording run; returns every
//                               (point, site, hits) the workload evaluates.
//   ExhaustiveSingleCrashSweep — one run per discovered (point, site, hit):
//                               crash there, heal, audit.
//   RecoverySweep             — given a base crash, discover which recovery.*
//                               points the restart evaluates, then sweep a
//                               second crash over each (crash-during-recovery
//                               schedules; recovery must be idempotent).
//   RandomSweep               — seeded multi-fault schedules (crash / drop /
//                               delay / error at random discovered points).
//
// Every failing run carries a one-line replay recipe:
//   CAMELOT_SEED=<s> CAMELOT_PROTOCOL=<2pc|2pc-unopt|2pc-int|nbc|paxos>
//   [CAMELOT_F=<f>] CAMELOT_SCHEDULE='<schedule>'
// (CAMELOT_F appears for paxos only) which the crash_schedule_test honors via
// those environment variables, and determinism guarantees the rerun
// reproduces the identical event trace.
#ifndef SRC_HARNESS_CRASH_EXPLORER_H_
#define SRC_HARNESS_CRASH_EXPLORER_H_

#include <optional>
#include <string>
#include <vector>

#include "src/base/failpoint.h"
#include "src/harness/world.h"
#include "src/tranman/local_api.h"

namespace camelot {

struct ExplorerConfig {
  int site_count = 3;
  uint64_t seed = 1;
  // Commit variant for the workload's transfers (Optimized 2PC when unset).
  // Everything — workload, conformance prediction, replay recipe — goes
  // through Options().
  std::optional<CommitOptions> variant;

  CommitOptions Options() const { return variant.value_or(CommitOptions::Optimized()); }
  int transfers = 3;          // Serial transfers; transfer i moves amount from
                              // vault i%N to vault (i+1)%N, coordinated by 0.
  int64_t initial_balance = 1000;
  int64_t amount = 10;
  // Virtual time allotted to the workload before healing starts, and to each
  // heal round before re-checking which sites are still down.
  SimDuration workload_window = Sec(6);
  SimDuration heal_window = Sec(3);
  int max_restart_attempts = 4;  // A schedule may crash recovery itself.
  // Host threads for the sweep fan-out (each schedule is an independent
  // World, so runs are bit-identical at any thread count and failures are
  // merged in schedule order). 0 = CAMELOT_SWEEP_THREADS / host default.
  int sweep_threads = 0;
};

struct RunResult {
  bool ok = true;
  std::vector<std::string> violations;  // Oracle failures, human-readable.
  int client_ok = 0;                    // Transfers whose commit returned OK.
  std::vector<std::string> trace;       // Registry trace (recording runs only).
  std::vector<DiscoveredPoint> discovered;  // Recording runs only.
  std::string replay;                   // One-line replay recipe for this run.
  std::string history_path;             // Dumped history (isolation failures only).

  std::string Explain() const;  // Violations joined, one per line.
};

struct SweepFailure {
  CrashSchedule schedule;
  RunResult result;
};

// The schedules ExhaustiveSingleCrashSweep runs: one crash at every
// discovered (point, site, hit <= max_hits_per_point; 0 = every hit).
std::vector<CrashSchedule> SingleCrashSchedules(const std::vector<DiscoveredPoint>& discovered,
                                                uint64_t max_hits_per_point);

// The schedules RandomSweep runs: `rounds` schedules of 1..max_faults entries
// drawn from `discovered` by an Rng seeded with `rng_seed`.
std::vector<CrashSchedule> RandomSchedules(const std::vector<DiscoveredPoint>& discovered,
                                           uint64_t rng_seed, int rounds, int max_faults);

class CrashExplorer {
 public:
  explicit CrashExplorer(ExplorerConfig config) : config_(config) {}

  const ExplorerConfig& config() const { return config_; }

  // Fault-free recording run. Workload-only discovery: the returned set holds
  // every (point, site) with its total hit count.
  std::vector<DiscoveredPoint> Discover();

  // One full run: arm `schedule`, drive workload, heal, audit.
  RunResult Run(const CrashSchedule& schedule, bool record = false);

  // Crash once at every discovered (point, site, hit <= max_hits_per_point;
  // 0 = every hit). Returns the failing runs; `runs` (optional) counts runs.
  std::vector<SweepFailure> ExhaustiveSingleCrashSweep(uint64_t max_hits_per_point = 1,
                                                       int* runs = nullptr);

  // Crash-during-recovery: runs `base` recording to learn which recovery.*
  // points its heal evaluates, then sweeps {base, crash@recovery-point} pairs.
  std::vector<SweepFailure> RecoverySweep(const ScheduleEntry& base, int* runs = nullptr);

  // `rounds` random schedules of 1..max_faults entries drawn from the
  // discovered set with actions crash/drop/delay/error.
  std::vector<SweepFailure> RandomSweep(uint64_t rng_seed, int rounds, int max_faults,
                                        int* runs = nullptr);

  // The replay recipe prefix for this configuration (seed + protocol).
  std::string ReplayPrefix() const;

 private:
  // Fan the schedules across the sweep thread pool, appending the failing
  // runs to `failures` in schedule order.
  void RunSchedules(const std::vector<CrashSchedule>& schedules,
                    std::vector<SweepFailure>* failures);

  ExplorerConfig config_;
};

}  // namespace camelot

#endif  // SRC_HARNESS_CRASH_EXPLORER_H_
