#include "src/harness/replay.h"

#include <cstdio>
#include <cstdlib>

namespace camelot {

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
