// Crash-schedule soak (ctest label: soak): the expensive end of the explorer.
// Multi-seed exhaustive every-hit sweeps plus seeded random multi-fault
// schedules under the two-phase, non-blocking, and Paxos commit protocols. Failing schedules are appended to
// crash_soak_failures.txt (override the directory with CAMELOT_ARTIFACT_DIR)
// so CI can upload them as an artifact; each line is a ready-to-run replay
// recipe for crash_schedule_test's ReplaysScheduleFromEnvironment.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/harness/crash_explorer.h"
#include "src/tranman/local_api.h"

namespace camelot {
namespace {

std::string ArtifactPath() {
  const char* dir = std::getenv("CAMELOT_ARTIFACT_DIR");
  return (dir != nullptr ? std::string(dir) + "/" : std::string()) + "crash_soak_failures.txt";
}

void ReportFailures(const std::vector<SweepFailure>& failures) {
  if (failures.empty()) {
    return;
  }
  std::FILE* artifact = std::fopen(ArtifactPath().c_str(), "a");
  for (const SweepFailure& f : failures) {
    ADD_FAILURE() << "schedule " << f.plan.schedule.ToString() << " violated the oracle:\n"
                  << f.result.Explain() << "  replay: " << f.result.replay;
    if (artifact != nullptr) {
      std::fprintf(artifact, "%s\n", f.result.replay.c_str());
    }
  }
  if (artifact != nullptr) {
    std::fclose(artifact);
  }
}

TEST(CrashSoak, ExhaustiveEveryHitSweepAcrossSeeds) {
  int total_runs = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    for (const CommitOptions& options :
         {CommitOptions::Optimized(), CommitOptions::NonBlocking(), CommitOptions::Paxos(1)}) {
      ExplorerConfig cfg;
      cfg.seed = seed;
      cfg.variant = options;
      cfg.transfers = 4;
      int runs = 0;
      ReportFailures(CrashExplorer(cfg).ExhaustiveSingleCrashSweep(/*max_hits_per_point=*/0,
                                                                   &runs));
      total_runs += runs;
    }
  }
  std::printf("crash soak: %d exhaustive single-crash runs\n", total_runs);
  EXPECT_GE(total_runs, 8000);
}

// The intermediate variants get one exhaustive seed each: their fault
// handling shares the 2PC machinery, so a single sweep guards the parts the
// optimization flags actually change (force counts, ack discipline).
TEST(CrashSoak, ExhaustiveSweepIntermediateVariants) {
  int total_runs = 0;
  for (const CommitOptions& options :
       {CommitOptions::Unoptimized(), CommitOptions::Intermediate()}) {
    ExplorerConfig cfg;
    cfg.variant = options;
    cfg.transfers = 4;
    int runs = 0;
    ReportFailures(CrashExplorer(cfg).ExhaustiveSingleCrashSweep(/*max_hits_per_point=*/0,
                                                                 &runs));
    total_runs += runs;
  }
  std::printf("crash soak: %d intermediate-variant runs\n", total_runs);
  EXPECT_GE(total_runs, 150);
}

TEST(CrashSoak, RandomMultiFaultSchedules) {
  int total_runs = 0;
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    for (const CommitOptions& options :
         {CommitOptions::Optimized(), CommitOptions::NonBlocking(), CommitOptions::Paxos(1)}) {
      ExplorerConfig cfg;
      cfg.seed = seed;
      cfg.variant = options;
      int runs = 0;
      ReportFailures(CrashExplorer(cfg).RandomSweep(/*rng_seed=*/seed * 7919, /*rounds=*/90,
                                                    /*max_faults=*/3, &runs));
      total_runs += runs;
    }
  }
  std::printf("crash soak: %d random multi-fault runs\n", total_runs);
  EXPECT_GE(total_runs, 4000);
}

TEST(CrashSoak, RecoverySweepAcrossSeeds) {
  struct ProtocolBase {
    CommitOptions options;
    const char* base_point;  // Coordinator decision-durable crash point.
  };
  const ProtocolBase bases[] = {
      {CommitOptions::Optimized(), "tm.2pc.commit_force.after"},
      {CommitOptions::NonBlocking(), "tm.nbc.commit_force.after"},
      {CommitOptions::Paxos(1), "tm.paxos.accept_force.after"},
  };
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    for (const ProtocolBase& base : bases) {
      ExplorerConfig cfg;
      cfg.seed = seed;
      cfg.variant = base.options;
      CrashExplorer ex(cfg);
      int runs = 0;
      ReportFailures(
          ex.RecoverySweep({base.base_point, SiteId{0}, 1, FailpointAction::kCrash, 0}, &runs));
      EXPECT_GE(runs, 2) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace camelot
