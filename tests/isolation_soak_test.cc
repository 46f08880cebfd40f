// Isolation-gated bank chaos soak (ctest label: soak): the balance-conserving
// bank workload (src/harness/bank_workload.h) runs under alternating network
// partitions and site crash/restart rounds, for every commit variant of the
// paper's comparison. After every round the world must pass BOTH gates:
//
//   - AuditBankInvariant: every account readable, two observers at different
//     sites agree (assertDataSync), total balance conserved, and each balance
//     equals the isolation oracle's serial-replay final state;
//   - IsolationOracle::Check: the accumulated operation history — spanning
//     every partition, crash, and restart so far — replays serializably.
//
// Failures append a human-readable line (with a CAMELOT_HISTORY dump of the
// offending history) to isolation_soak_failures.txt, under
// CAMELOT_ARTIFACT_DIR when set, so CI uploads them as artifacts.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/harness/bank_workload.h"
#include "src/harness/crash_explorer.h"
#include "src/harness/isolation_oracle.h"
#include "src/harness/nemesis.h"
#include "src/harness/replay.h"
#include "src/harness/world.h"

namespace camelot {
namespace {

std::string ArtifactPath() {
  const char* dir = std::getenv("CAMELOT_ARTIFACT_DIR");
  return (dir != nullptr ? std::string(dir) + "/" : std::string()) + "isolation_soak_failures.txt";
}

void ReportRoundFailure(const std::string& label, const std::vector<std::string>& violations,
                        const World& world, const HistoryRecorder& history) {
  std::string text = label + " violated the bank/isolation gate:\n";
  for (const std::string& v : violations) {
    text += "  - " + v + "\n";
  }
  auto dumped = DumpHistoryArtifact(history, label);
  if (dumped.ok()) {
    text += "  history: CAMELOT_HISTORY='" + *dumped + "'";
  }
  ADD_FAILURE() << text;
  if (std::FILE* artifact = std::fopen(ArtifactPath().c_str(), "a")) {
    std::fprintf(artifact, "%s\n", text.c_str());
    std::fclose(artifact);
  }
  (void)world;
}

struct Variant {
  const char* name;
  CommitOptions options;
};

const Variant kVariants[] = {
    {"2pc", CommitOptions::Optimized()},
    {"2pc-unopt", CommitOptions::Unoptimized()},
    {"2pc-int", CommitOptions::Intermediate()},
    {"nbc", CommitOptions::NonBlocking()},
    {"paxos", CommitOptions::Paxos(1)},
};

TEST(IsolationSoak, BankWorkloadUnderChaosAllVariants) {
  constexpr int kSeeds = 3;
  constexpr int kRounds = 6;
  int rounds_run = 0;
  for (const Variant& variant : kVariants) {
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      // The explorer tuning: chaos rounds resolve in seconds of virtual time
      // and stay bit-deterministic.
      World world(ExplorerWorldConfig(/*site_count=*/3, seed * 131 + 7));
      world.history().set_enabled(true);
      BankWorkloadConfig bank;
      bank.options = variant.options;
      bank.rng_seed = seed;
      SetupBank(world, bank);
      Nemesis nemesis(world.sched(), world.net(), &world.failpoints());

      for (int round = 0; round < kRounds; ++round) {
        const std::string label = std::string("isolation-soak-") + variant.name + "-s" +
                                  std::to_string(seed) + "-r" + std::to_string(round);
        BankWorkloadStats stats;
        SpawnBankClients(world, bank, &stats);
        if (round % 2 == 0) {
          // Partition round: isolate the clients' site 0 from the majority
          // mid-workload, heal 3 virtual seconds later.
          auto script = NemesisScript::Parse("@1000000=partition:0|1,2;+3000000=heal");
          ASSERT_TRUE(script.ok()) << script.status().message();
          ASSERT_TRUE(nemesis.Install(*script).ok());
          world.RunFor(Sec(8));
        } else {
          // Crash round: take a vault-owning site down mid-workload, bring it
          // back through full media recovery.
          const int victim = 1 + (round / 2) % 2;  // Rounds alternate the victim.
          world.RunFor(Sec(1));
          world.Crash(victim);
          world.RunFor(Sec(2));
          world.Restart(victim);
          world.RunFor(Sec(5));
        }
        nemesis.HealAll();
        for (int i = 0; i < world.site_count(); ++i) {
          if (!world.site(i).site().up()) {
            world.Restart(i);
          }
        }
        world.RunFor(Sec(3));

        // Drain, bounded: a livelocked round fails loudly instead of hanging.
        constexpr size_t kMaxEvents = 2u * 1000 * 1000;
        std::vector<std::string> violations;
        if (world.sched().RunUntilIdle(kMaxEvents) >= kMaxEvents) {
          violations.push_back("round did not quiesce within " + std::to_string(kMaxEvents) +
                               " events");
        }
        if (stats.finished_clients != bank.clients) {
          violations.push_back("only " + std::to_string(stats.finished_clients) + "/" +
                               std::to_string(bank.clients) + " clients finished");
        }

        IsolationReport report = IsolationOracle::Check(world.history().events());
        if (stats.committed == 0) {
          violations.push_back("no transfer committed this round (chaos ate the workload)");
        }
        std::vector<std::string> audit = AuditBankInvariant(world, bank, &report);
        violations.insert(violations.end(), audit.begin(), audit.end());
        for (const IsolationAnomaly& a : report.anomalies) {
          violations.push_back("isolation: " + a.ToString());
        }
        if (!violations.empty()) {
          ReportRoundFailure(label, violations, world, world.history());
        }
        ++rounds_run;
      }
    }
  }
  std::printf("isolation soak: %d chaos rounds across %zu variants\n", rounds_run,
              std::size(kVariants));
  EXPECT_EQ(rounds_run, static_cast<int>(std::size(kVariants)) * kSeeds * kRounds);
}

}  // namespace
}  // namespace camelot
