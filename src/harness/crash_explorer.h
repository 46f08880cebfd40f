// CrashExplorer: the fault explorer. One runner checks the paper's two fault
// claims: optimized presumed-abort 2PC stays atomic when sites crash, and the
// non-blocking protocols keep deciding while a partition isolates the
// coordinator.
//
// Each run builds a fresh CamelotWorld, drives a ring of serial transfers
// from site 0 under a FaultPlan — an armed CrashSchedule, a NemesisScript
// installed against the live network, or both — then HEALS the installation
// (restarting every down site, repeatedly if a schedule crashes a site again
// mid-recovery) and audits the survivors: money conserved with every
// client-visible OK commit durable, observers agree, nothing leaked, effects
// exactly once (src/harness/oracle.h); a fault-free run's primitive counts
// equal the static prediction exactly; the recorded history replays
// serializably (src/harness/isolation_oracle.h; a failure dumps the history
// and appends CAMELOT_HISTORY=<file> to the recipe); and, with a non-zero
// `resolve_window`, liveness (see ExplorerConfig).
//
// The two studies differ only in data. The crash study is ExplorerConfig{}: a
// ring over every site's vault (on three sites only one transfer in three
// spans three sites; the other two touch the coordinator's own vault), a 6 s
// workload window and no liveness bound. The partition study is
// PartitionStudy(): a ring over vaults 1 and 2, so every transfer spans three
// sites and NBC has a 2-of-3 quorum on the majority side of a
// coordinator-isolating split, with the liveness oracle on. Its runs also
// report availability evidence: per-site decisions *inside* each partition
// window plus the blocked-period/blocked-time counters.
//
// Every run carries a one-line replay recipe:
//   CAMELOT_SEED=<s> CAMELOT_PROTOCOL=<2pc|2pc-unopt|2pc-int|nbc|paxos>
//   [CAMELOT_F=<f>] [CAMELOT_SITES=<n>] [CAMELOT_TRANSFERS=<n>]
//   [CAMELOT_BALANCE=<v>] [CAMELOT_AMOUNT=<v>]
//   [CAMELOT_SCHEDULE='<schedule>'] [CAMELOT_NEMESIS='<script>']
// CAMELOT_F appears for paxos only, and the four sizing tokens only where the
// run differs from its study's default. ReadReplayRecipe() rebuilds the run,
// which reproduces the identical event trace.
#ifndef SRC_HARNESS_CRASH_EXPLORER_H_
#define SRC_HARNESS_CRASH_EXPLORER_H_

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/failpoint.h"
#include "src/harness/nemesis.h"
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
  int transfers = 3;          // Serial transfers around the vault ring,
                              // coordinated by site 0.
  // The vault ring: transfer i moves amount from vaults[i % m] to
  // vaults[(i + 1) % m]. Empty = every site's vault in site order.
  std::vector<int> vaults;
  int64_t initial_balance = 1000;
  int64_t amount = 10;
  // Virtual time allotted to the workload before healing starts.
  SimDuration workload_window = Sec(6);
  int max_restart_attempts = 4;  // A schedule may crash recovery itself.
  // Non-zero turns on the liveness oracle: at the end of the workload window
  // every network fault is force-healed and unfired arms are disarmed; after
  // this much more virtual time the workload must have finished and every
  // site must hold zero undecided families.
  SimDuration resolve_window = 0;
  // Host threads for the sweep fan-out (each run is an independent World, so
  // runs are bit-identical at any thread count and failures are merged in
  // plan order). 0 = CAMELOT_SWEEP_THREADS / host default.
  int sweep_threads = 0;
};

// The partition study: the vault 1 <-> vault 2 ring, 4 transfers, a 20 s
// workload window and a 20 s resolve window.
ExplorerConfig PartitionStudy();

// The explorers' world tuning: tight protocol timers (the failure_test
// tuning) so fault scenarios resolve in seconds of virtual time, and zero
// jitter so every run is bit-deterministic.
WorldConfig ExplorerWorldConfig(int site_count, uint64_t seed);

// What a run injects: crash-schedule entries armed on the failpoints, a
// nemesis script installed against the network, or both.
struct FaultPlan {
  CrashSchedule schedule;
  NemesisScript script;

  // Implicit, so a schedule or a script alone is a plan: Run(schedule).
  FaultPlan() = default;
  FaultPlan(CrashSchedule s) : schedule(std::move(s)) {}
  FaultPlan(NemesisScript n) : script(std::move(n)) {}

  bool empty() const { return schedule.entries.empty() && script.empty(); }
};

// Per-site availability evidence gathered across every partition window.
struct SiteObservation {
  uint64_t decided_in_window = 0;  // committed+aborted deltas while partitioned.
  uint64_t blocked_periods = 0;    // Final counter values (whole run).
  uint64_t blocked_time_us = 0;
  uint64_t stuck_families = 0;
};

struct RunResult {
  bool ok = true;
  std::vector<std::string> violations;  // Oracle failures, human-readable.
  int client_ok = 0;                    // Transfers whose commit returned OK.
  std::vector<std::string> trace;       // Registry trace (recording runs only).
  std::vector<DiscoveredPoint> discovered;  // Recording runs only.
  std::vector<SiteObservation> sites;       // Empty when the script failed to install.
  uint64_t datagrams_reordered = 0;
  std::vector<std::string> nemesis_log;  // Applied events, timestamped.
  std::vector<std::string> unapplied;    // Events whose condition never fired.
  std::string replay;                   // One-line replay recipe for this run.
  std::string history_path;             // Dumped history (isolation failures only).

  std::string Explain() const;  // Violations, then the nemesis log, one per line.
};

struct SweepFailure {
  FaultPlan plan;
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

// The scripts ExhaustiveSinglePartitionSweep runs after its fault-free
// baseline: each 2-way split of three sites plus total isolation, installed
// at four phases of the `options` commit protocol and healed 4 s later.
std::vector<NemesisScript> SinglePartitionScripts(const CommitOptions& options);

// The scripts RandomNemesisSweep runs: `rounds` scripts of 1..3 fault
// episodes drawn by an Rng seeded with `rng_seed`.
std::vector<NemesisScript> RandomNemesisScripts(uint64_t rng_seed, int rounds);

// A run rebuilt from its replay recipe.
struct ExplorerReplay {
  ExplorerConfig config;
  FaultPlan plan;
};

// Reads a recipe's tokens through `lookup` (the process environment by
// default) on top of `study`, the defaults of the study that wrote it.
Result<ExplorerReplay> ReadReplayRecipe(
    ExplorerConfig study,
    const std::function<const char*(const char*)>& lookup = [](const char* name) {
      return std::getenv(name);
    });

class CrashExplorer {
 public:
  explicit CrashExplorer(ExplorerConfig config) : config_(std::move(config)) {}

  const ExplorerConfig& config() const { return config_; }

  // Fault-free recording run. Workload-only discovery: the returned set holds
  // every (point, site) with its total hit count.
  std::vector<DiscoveredPoint> Discover();

  // One full run: inject `plan`, drive the workload, heal, audit. `record`
  // keeps the failpoint trace and discovered points.
  RunResult Run(const FaultPlan& plan, bool record = false);

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

  // The fault-free baseline (which runs the conformance gate) plus one run
  // per SinglePartitionScripts() script under the configured protocol.
  std::vector<SweepFailure> ExhaustiveSinglePartitionSweep(int* runs = nullptr);

  // One run per RandomNemesisScripts(rng_seed, rounds) script.
  std::vector<SweepFailure> RandomNemesisSweep(uint64_t rng_seed, int rounds,
                                               int* runs = nullptr);

 private:
  // The replay recipe for `plan` under this configuration.
  std::string Recipe(const FaultPlan& plan) const;

  // Fans the plans across the sweep thread pool and returns `failures` with
  // the failing runs appended in plan order. `runs` (optional) receives
  // `extra_runs` plus the number of plans.
  std::vector<SweepFailure> RunPlans(const std::vector<FaultPlan>& plans,
                                     std::vector<SweepFailure> failures, int* runs,
                                     int extra_runs = 0);

  ExplorerConfig config_;
};

}  // namespace camelot

#endif  // SRC_HARNESS_CRASH_EXPLORER_H_
