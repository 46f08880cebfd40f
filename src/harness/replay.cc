#include "src/harness/replay.h"

#include <cstdio>
#include <cstdlib>

namespace camelot {

std::string ProtocolName(const CommitOptions& options) {
  if (options.protocol == CommitProtocol::kPaxos) {
    return "paxos";
  }
  if (options.protocol == CommitProtocol::kNonBlocking) {
    return "nbc";
  }
  if (options.force_subordinate_commit) {
    return options.piggyback_commit_ack ? "2pc-int" : "2pc-unopt";
  }
  return "2pc";
}

Result<CommitOptions> ParseProtocolName(std::string_view name) {
  if (name == "2pc") {
    return CommitOptions::Optimized();
  }
  if (name == "2pc-unopt") {
    return CommitOptions::Unoptimized();
  }
  if (name == "2pc-int") {
    return CommitOptions::Intermediate();
  }
  if (name == "nbc") {
    return CommitOptions::NonBlocking();
  }
  if (name == "paxos") {
    // The name alone does not carry F; recipes pair it with CAMELOT_F
    // (ApplyPaxosFFromEnv), defaulting to the smallest non-degenerate set.
    return CommitOptions::Paxos(1);
  }
  return InvalidArgumentError("unknown protocol name: " + std::string(name));
}

CommitOptions ApplyPaxosFFromEnv(CommitOptions options) {
  if (options.protocol != CommitProtocol::kPaxos) {
    return options;
  }
  if (const char* f = std::getenv("CAMELOT_F")) {
    options.paxos_f = static_cast<uint32_t>(std::strtoul(f, nullptr, 10));
  }
  return options;
}

std::string ReplayRecipePrefix(uint64_t seed, const CommitOptions& options) {
  std::string prefix =
      "CAMELOT_SEED=" + std::to_string(seed) + " CAMELOT_PROTOCOL=" + ProtocolName(options);
  if (options.protocol == CommitProtocol::kPaxos) {
    prefix += " CAMELOT_F=" + std::to_string(options.paxos_f);
  }
  return prefix;
}

std::string ReplayRecipe(uint64_t seed, const CommitOptions& options,
                         const std::string& variable, const std::string& schedule) {
  return ReplayRecipePrefix(seed, options) + " " + variable + "='" + schedule + "'";
}

std::string WithHistory(const std::string& recipe, const std::string& history_path) {
  return recipe + " CAMELOT_HISTORY='" + history_path + "'";
}

Result<std::string> DumpHistoryArtifact(const HistoryRecorder& history,
                                        const std::string& label) {
  std::string name;
  for (char c : label) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    name.push_back(ok ? c : '_');
  }
  if (name.empty()) {
    name = "run";
  }
  std::string path;
  if (const char* dir = std::getenv("CAMELOT_ARTIFACT_DIR")) {
    path = std::string(dir) + "/";
  }
  path += name + ".history";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return UnavailableError("cannot write history file: " + path);
  }
  const std::string text = history.Serialize();
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    return UnavailableError("short write to history file: " + path);
  }
  return path;
}

Result<std::vector<HistoryEvent>> LoadHistoryFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return NotFoundError("cannot open history file: " + path);
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return HistoryRecorder::Parse(text);
}

}  // namespace camelot
