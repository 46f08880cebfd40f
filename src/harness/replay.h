// Replay-recipe formatting shared by the fault and overload explorers: every
// oracle failure prints a one-line environment-variable recipe that rebuilds
// the exact run. Both explorers share the seed/protocol prefix; each appends
// its own variables (see crash_explorer.h and overload_oracle.h), and
// isolation failures add CAMELOT_HISTORY=<file> pointing at the dumped
// operation history so the oracle verdict is reproducible offline without
// re-running the simulation.
#ifndef SRC_HARNESS_REPLAY_H_
#define SRC_HARNESS_REPLAY_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/stats/history.h"
#include "src/tranman/local_api.h"

namespace camelot {

// The five commit variants, as replay-recipe protocol tokens: "2pc"
// (Optimized), "2pc-unopt" (Unoptimized), "2pc-int" (Intermediate), "nbc"
// (NonBlocking), "paxos" (Paxos Commit; F rides in CAMELOT_F, defaulting
// to 1 on parse).
std::string ProtocolName(const CommitOptions& options);
Result<CommitOptions> ParseProtocolName(std::string_view name);

// "CAMELOT_SEED=<seed> CAMELOT_PROTOCOL=<token>[ CAMELOT_F=<f>]" (CAMELOT_F
// for paxos only).
std::string ReplayRecipePrefix(uint64_t seed, const CommitOptions& options);

// The full recipe: prefix + " <variable>='<schedule>'".
std::string ReplayRecipe(uint64_t seed, const CommitOptions& options,
                         const std::string& variable, const std::string& schedule);

// Appends " CAMELOT_HISTORY='<path>'" to an existing recipe.
std::string WithHistory(const std::string& recipe, const std::string& history_path);

// Writes a serialized history under CAMELOT_ARTIFACT_DIR (or the working
// directory when unset) as "<label>.history"; `label` is sanitized to
// [A-Za-z0-9._-]. Returns the path written.
Result<std::string> DumpHistoryArtifact(const HistoryRecorder& history,
                                        const std::string& label);

// Loads and parses a history file (the target of a CAMELOT_HISTORY recipe).
Result<std::vector<HistoryEvent>> LoadHistoryFile(const std::string& path);

}  // namespace camelot

#endif  // SRC_HARNESS_REPLAY_H_
