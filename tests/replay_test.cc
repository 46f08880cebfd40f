#include "src/harness/replay.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/harness/crash_explorer.h"
#include "src/stats/history.h"

namespace camelot {
namespace {

TEST(ReplayRecipeTest, PrefixNamesSeedAndProtocol) {
  EXPECT_EQ(ReplayRecipePrefix(42, CommitOptions::Optimized()),
            "CAMELOT_SEED=42 CAMELOT_PROTOCOL=2pc");
  EXPECT_EQ(ReplayRecipePrefix(7, CommitOptions::NonBlocking()),
            "CAMELOT_SEED=7 CAMELOT_PROTOCOL=nbc");
}

TEST(ReplayRecipeTest, FullRecipeQuotesSchedule) {
  EXPECT_EQ(ReplayRecipe(3, CommitOptions::Optimized(), "CAMELOT_SCHEDULE", "disk.read@2#1=error"),
            "CAMELOT_SEED=3 CAMELOT_PROTOCOL=2pc CAMELOT_SCHEDULE='disk.read@2#1=error'");
  EXPECT_EQ(ReplayRecipe(9, CommitOptions::NonBlocking(), "CAMELOT_NEMESIS",
                         "partition@1000:0|1,2"),
            "CAMELOT_SEED=9 CAMELOT_PROTOCOL=nbc CAMELOT_NEMESIS='partition@1000:0|1,2'");
}

TEST(ReplayRecipeTest, ProtocolNameCoversAllFiveVariants) {
  EXPECT_EQ(ProtocolName(CommitOptions::Optimized()), "2pc");
  EXPECT_EQ(ProtocolName(CommitOptions::Unoptimized()), "2pc-unopt");
  EXPECT_EQ(ProtocolName(CommitOptions::Intermediate()), "2pc-int");
  EXPECT_EQ(ProtocolName(CommitOptions::NonBlocking()), "nbc");
  EXPECT_EQ(ProtocolName(CommitOptions::Paxos(1)), "paxos");
  EXPECT_EQ(ProtocolName(CommitOptions::Paxos(0)), "paxos");  // F rides in CAMELOT_F.
}

TEST(ReplayRecipeTest, ParseProtocolNameRoundTrips) {
  for (const char* name : {"2pc", "2pc-unopt", "2pc-int", "nbc", "paxos"}) {
    auto options = ParseProtocolName(name);
    ASSERT_TRUE(options.ok()) << name;
    EXPECT_EQ(ProtocolName(*options), name);
  }
  EXPECT_FALSE(ParseProtocolName("3pc").ok());
  EXPECT_FALSE(ParseProtocolName("").ok());
}

TEST(ReplayRecipeTest, PaxosPrefixCarriesF) {
  EXPECT_EQ(ReplayRecipePrefix(11, CommitOptions::Paxos(1)),
            "CAMELOT_SEED=11 CAMELOT_PROTOCOL=paxos CAMELOT_F=1");
  EXPECT_EQ(ReplayRecipePrefix(11, CommitOptions::Paxos(3)),
            "CAMELOT_SEED=11 CAMELOT_PROTOCOL=paxos CAMELOT_F=3");
  EXPECT_EQ(ReplayRecipe(11, CommitOptions::Paxos(2), "CAMELOT_SCHEDULE", "x"),
            "CAMELOT_SEED=11 CAMELOT_PROTOCOL=paxos CAMELOT_F=2 CAMELOT_SCHEDULE='x'");
}

TEST(ReplayRecipeTest, ReadReplayRecipeAppliesPaxosF) {
  std::map<std::string, std::string> recipe = {{"CAMELOT_PROTOCOL", "paxos"}, {"CAMELOT_F", "2"}};
  const auto lookup = [&recipe](const char* name) -> const char* {
    const auto it = recipe.find(name);
    return it == recipe.end() ? nullptr : it->second.c_str();
  };
  auto parsed = ParseProtocolName("paxos");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->paxos_f, 1u);  // Parse default: smallest non-degenerate F.
  Result<ExplorerReplay> replay = ReadReplayRecipe(ExplorerConfig{}, lookup);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->config.Options().paxos_f, 2u);
  // Non-paxos protocols pass through untouched even with CAMELOT_F set.
  recipe["CAMELOT_PROTOCOL"] = "nbc";
  replay = ReadReplayRecipe(ExplorerConfig{}, lookup);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->config.Options().protocol, CommitProtocol::kNonBlocking);
  recipe = {{"CAMELOT_PROTOCOL", "paxos"}};
  replay = ReadReplayRecipe(ExplorerConfig{}, lookup);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->config.Options().paxos_f, 1u);  // No F: keep the parsed F.
}

TEST(ReplayRecipeTest, ReadReplayRecipeRejectsBadTokens) {
  std::map<std::string, std::string> recipe = {{"CAMELOT_SITES", "0"}};
  const auto lookup = [&recipe](const char* name) -> const char* {
    const auto it = recipe.find(name);
    return it == recipe.end() ? nullptr : it->second.c_str();
  };
  EXPECT_FALSE(ReadReplayRecipe(ExplorerConfig{}, lookup).ok());
  // The partition study's ring needs vaults 1 and 2.
  recipe = {{"CAMELOT_SITES", "2"}};
  EXPECT_TRUE(ReadReplayRecipe(ExplorerConfig{}, lookup).ok());
  EXPECT_FALSE(ReadReplayRecipe(PartitionStudy(), lookup).ok());
  recipe = {{"CAMELOT_SCHEDULE", "tm.prepared@0#1=explode"}};
  EXPECT_FALSE(ReadReplayRecipe(ExplorerConfig{}, lookup).ok());
  recipe = {{"CAMELOT_NEMESIS", "@1=explode"}};
  EXPECT_FALSE(ReadReplayRecipe(PartitionStudy(), lookup).ok());
  recipe = {{"CAMELOT_PROTOCOL", "3pc"}};
  EXPECT_FALSE(ReadReplayRecipe(ExplorerConfig{}, lookup).ok());
}

TEST(ReplayRecipeTest, FourVariantPrefixAndRecipe) {
  EXPECT_EQ(ReplayRecipePrefix(5, CommitOptions::Unoptimized()),
            "CAMELOT_SEED=5 CAMELOT_PROTOCOL=2pc-unopt");
  EXPECT_EQ(ReplayRecipe(5, CommitOptions::Intermediate(), "CAMELOT_SCHEDULE", "x"),
            "CAMELOT_SEED=5 CAMELOT_PROTOCOL=2pc-int CAMELOT_SCHEDULE='x'");
}

TEST(ReplayRecipeTest, WithHistoryAppendsQuotedPath) {
  EXPECT_EQ(WithHistory("CAMELOT_SEED=1 CAMELOT_PROTOCOL=2pc", "/tmp/run.history"),
            "CAMELOT_SEED=1 CAMELOT_PROTOCOL=2pc CAMELOT_HISTORY='/tmp/run.history'");
}

TEST(HistoryArtifactTest, DumpAndLoadRoundTrip) {
  HistoryRecorder recorder;
  recorder.set_enabled(true);
  recorder.Record(HistoryEvent{HistoryOp::kInit, 0, 0, kInvalidTid, "vault", "obj",
                               Bytes{1, 2, 3}});
  recorder.Record(HistoryEvent{HistoryOp::kWrite, 10, 1, Tid{FamilyId{0, 1}, 0, 0}, "vault",
                               "obj", Bytes{4, 5}});
  recorder.Record(HistoryEvent{HistoryOp::kCommit, 20, 1, Tid{FamilyId{0, 1}, 0, 0},
                               std::string(), std::string(), Bytes()});

  // Dump under a scratch artifact dir; the label is sanitized.
  std::string dir = ::testing::TempDir();
  setenv("CAMELOT_ARTIFACT_DIR", dir.c_str(), 1);
  auto path = DumpHistoryArtifact(recorder, "round trip/#1");
  unsetenv("CAMELOT_ARTIFACT_DIR");
  ASSERT_TRUE(path.ok()) << path.status().message();
  EXPECT_EQ(path->find(dir), 0u) << *path;
  EXPECT_EQ(path->find(' '), std::string::npos) << *path;

  auto loaded = LoadHistoryFile(*path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded->size(), recorder.events().size());
  for (size_t i = 0; i < loaded->size(); ++i) {
    EXPECT_EQ((*loaded)[i], recorder.events()[i]) << "event " << i;
  }
  std::remove(path->c_str());
}

TEST(HistoryArtifactTest, LoadRejectsMissingFile) {
  EXPECT_FALSE(LoadHistoryFile("/nonexistent/never.history").ok());
}

}  // namespace
}  // namespace camelot
