// Partition-schedule soak (ctest label: soak): multi-seed exhaustive
// single-partition sweeps plus seeded random multi-fault nemesis scripts
// (partition churn, loss/dup/reorder bursts, congestion storms) under both
// two-phase, non-blocking, and Paxos commit protocols. Failing scripts are appended to
// partition_soak_failures.txt (override the directory with
// CAMELOT_ARTIFACT_DIR) so CI can upload them as an artifact; each line is a
// ready-to-run replay recipe for partition_schedule_test's
// ReplaysNemesisFromEnvironment.
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
  return (dir != nullptr ? std::string(dir) + "/" : std::string()) + "partition_soak_failures.txt";
}

void ReportFailures(const std::vector<SweepFailure>& failures) {
  if (failures.empty()) {
    return;
  }
  std::FILE* artifact = std::fopen(ArtifactPath().c_str(), "a");
  for (const SweepFailure& f : failures) {
    ADD_FAILURE() << "script '" << f.plan.script.ToString() << "' violated the oracle:\n"
                  << f.result.Explain() << "  replay: " << f.result.replay;
    if (artifact != nullptr) {
      std::fprintf(artifact, "%s\n", f.result.replay.c_str());
    }
  }
  if (artifact != nullptr) {
    std::fclose(artifact);
  }
}

TEST(PartitionSoak, ExhaustiveSweepAcrossSeeds) {
  int total_runs = 0;
  for (uint64_t seed = 1; seed <= 27; ++seed) {
    for (const CommitOptions& options :
         {CommitOptions::Optimized(), CommitOptions::NonBlocking(), CommitOptions::Paxos(1)}) {
      ExplorerConfig cfg = PartitionStudy();
      cfg.seed = seed;
      cfg.variant = options;
      cfg.transfers = 6;
      int runs = 0;
      ReportFailures(CrashExplorer(cfg).ExhaustiveSinglePartitionSweep(&runs));
      total_runs += runs;
    }
  }
  std::printf("partition soak: %d exhaustive single-partition runs\n", total_runs);
  EXPECT_GE(total_runs, 1280);
}

// One exhaustive sweep each for the intermediate commit variants (shared 2PC
// machinery, different force/ack discipline) — see crash_soak_test.cc.
TEST(PartitionSoak, ExhaustiveSweepIntermediateVariants) {
  int total_runs = 0;
  for (const CommitOptions& options :
       {CommitOptions::Unoptimized(), CommitOptions::Intermediate()}) {
    ExplorerConfig cfg = PartitionStudy();
    cfg.variant = options;
    cfg.transfers = 6;
    int runs = 0;
    ReportFailures(CrashExplorer(cfg).ExhaustiveSinglePartitionSweep(&runs));
    total_runs += runs;
  }
  std::printf("partition soak: %d intermediate-variant runs\n", total_runs);
  EXPECT_GE(total_runs, 32);
}

TEST(PartitionSoak, RandomMultiFaultNemesisScripts) {
  int total_runs = 0;
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    for (const CommitOptions& options :
         {CommitOptions::Optimized(), CommitOptions::NonBlocking(), CommitOptions::Paxos(1)}) {
      ExplorerConfig cfg = PartitionStudy();
      cfg.seed = seed;
      cfg.variant = options;
      int runs = 0;
      ReportFailures(
          CrashExplorer(cfg).RandomNemesisSweep(/*rng_seed=*/seed * 6271, /*rounds=*/90, &runs));
      total_runs += runs;
    }
  }
  std::printf("partition soak: %d random nemesis runs\n", total_runs);
  EXPECT_GE(total_runs, 4000);
}

}  // namespace
}  // namespace camelot
