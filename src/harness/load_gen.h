// Open-loop load generator: offered load that does not slow down when the
// system does.
//
// The bank workload's clients are closed-loop — each waits for its transfer
// to finish before issuing the next, so under overload the offered rate
// politely collapses to the service rate and the system never sees a real
// overload. This generator is the opposite: a Poisson arrival process spawns
// one independent transaction coroutine per arrival at the configured rate
// regardless of how many are still in flight. That is
// what makes congestion collapse observable: arrivals keep coming while the
// backlog's latency grows past every client's deadline.
//
// Transactions are balance-conserving transfers over the bank_workload
// account table (so AuditBankInvariant still gates every overload run), with
// Zipfian account selection for hotspot contention and a read-only fraction.
// Each arrival carries an absolute client deadline; when propagate_deadlines
// is set the deadline rides every RPC (AppClient::set_deadline) so admission
// control and servers can shed zombie work. Client-level retries (after a
// shed or a transient failure) are gated by a shared token-bucket
// RetryBudget — the SRE pattern that stops a retry storm from amplifying an
// overload into a metastable failure.
//
// The stats separate throughput from goodput: a commit that lands after its
// deadline is real work the system did for nobody. Goodput is also bucketed
// by commit time so the overload explorer can locate the recovery instant
// after a load spike.
#ifndef SRC_HARNESS_LOAD_GEN_H_
#define SRC_HARNESS_LOAD_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/harness/bank_workload.h"
#include "src/harness/world.h"
#include "src/ipc/retry_budget.h"
#include "src/stats/summary.h"

namespace camelot {

// YCSB-style Zipfian generator over [0, n): key 0 is the hottest. theta in
// [0, 1); 0 degenerates to uniform. Deterministic given the caller's Rng.
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta);
  uint64_t Next(Rng& rng) const;
  uint64_t n() const { return n_; }

 private:
  uint64_t n_ = 1;
  double theta_ = 0;
  double zetan_ = 1;  // Sum of 1/i^theta for i in [1, n].
  double alpha_ = 0;
  double eta_ = 0;
};

// Every account starts with 1000 and transfers move 1..5 (constants in
// load_gen.cc).
struct LoadGenConfig {
  double offered_tps = 50.0;              // Mean arrival rate (open loop).
  SimDuration duration = Sec(10);         // Arrival window; completions may trail it.

  double read_fraction = 0.0;             // Fraction of read-only (audit-style) txns.
  int accounts_per_site = 8;
  double zipf_theta = 0.99;               // Account hotspot skew; 0 = uniform.
  CommitOptions options = CommitOptions::Optimized();

  // Long-lived transactions: after staging its updates (locks held) each
  // transaction thinks for an exponentially distributed hold time before
  // calling Commit (0 = commit immediately, the classic short-txn shape).
  // This is the paper's interactive-transaction regime — the window in which
  // a crash catches transactions mid-flight, and exactly the regime where a
  // blocking commit protocol strands locks behind a dead coordinator.
  SimDuration hold_time_mean = 0;
  SimDuration hold_time_max = 0;          // Per-draw clamp; 0 = unclamped.

  // Per-arrival client deadline (relative; 0 = none). The absolute deadline is
  // fixed at arrival time and survives retries — a retry does not buy the
  // client more patience.
  SimDuration deadline = Sec(2);
  // When false the deadline is still used to CLASSIFY outcomes (goodput vs
  // late) but is not attached to any RPC, so nothing downstream can shed on
  // it. This is the A/B lever: both arms measure goodput identically; only
  // one lets the system act on deadlines.
  bool propagate_deadlines = true;

  // Client-level retries after a shed / transient failure: at most
  // max_retries extra attempts per arrival, all gated by a generator-wide
  // token-bucket budget (ratio tokens earned per first attempt, at most 50
  // banked, spend 1 per retry; ratio <= 0 = unlimited). See
  // src/ipc/retry_budget.h.
  int max_retries = 2;
  double retry_budget_ratio = 0.1;
  // Collapse-arm client behavior: keep retrying failed attempts until
  // max_retries even after the deadline has passed (the user hammering
  // reload). Combined with an unlimited budget this is the retry-storm
  // amplifier the budget exists to cap.
  bool retry_past_deadline = false;

  uint64_t rng_seed = 1;                  // Arrival gaps + account choices.
};

struct LoadGenStats {
  uint64_t offered = 0;        // Arrivals generated.
  uint64_t committed = 0;      // Commit returned OK (any time).
  uint64_t goodput = 0;        // Committed within the client deadline.
  uint64_t late_commits = 0;   // Committed after the deadline: wasted work.
  uint64_t shed = 0;           // Final outcome kOverloaded (admission/deadline shed).
  uint64_t failed = 0;         // Any other final failure (aborts, timeouts).
  uint64_t retries = 0;        // Extra attempts actually issued.
  uint64_t retries_suppressed = 0;  // Retries the token budget refused.
  uint64_t in_flight_peak = 0;

  Summary latency_ms;          // Arrival-to-commit-return, committed txns only.

  // In-deadline commits per kBucketWidth of virtual time, indexed from the
  // generator's start instant. The explorer reads these to find the knee and
  // the recovery point.
  static constexpr SimDuration kBucketWidth = Sec(1);
  std::vector<uint64_t> goodput_buckets;
  SimTime start = 0;

  // Mean in-deadline commits/sec between the two absolute instants.
  double GoodputTps(SimTime from, SimTime to) const;
};

// The account table the generator transfers over — SetupBank-compatible so
// AuditBankInvariant audits an overload run exactly like a chaos run.
BankWorkloadConfig ToBankConfig(const LoadGenConfig& cfg);

class LoadGen {
 public:
  // The world must already have the bank installed (SetupBank(ToBankConfig)).
  LoadGen(World& world, LoadGenConfig cfg);

  // Spawns the arrival process; returns immediately (open loop).
  void Start();

  // True once the arrival window closed and every spawned txn finished.
  bool done() const { return arrivals_done_ && finished_ == stats_.offered; }

  const LoadGenStats& stats() const { return stats_; }
  const LoadGenConfig& config() const { return cfg_; }
  const RetryBudget& budget() const { return budget_; }

 private:
  struct Pick {
    int site;
    int index;
  };

  Async<void> ArrivalLoop();
  Async<void> RunTxn(uint64_t id, SimTime arrival);
  Async<Status> Attempt(AppClient& app, Rng& rng, bool read_only, SimTime deadline);
  Pick PickAccount(Rng& rng) const;
  void RecordCommit(SimTime arrival, SimTime deadline);

  World& world_;
  LoadGenConfig cfg_;
  LoadGenStats stats_;
  Rng rng_;
  RetryBudget budget_;
  ZipfianGenerator zipf_;
  uint64_t in_flight_ = 0;
  uint64_t finished_ = 0;
  bool arrivals_done_ = false;
};

}  // namespace camelot

#endif  // SRC_HARNESS_LOAD_GEN_H_
