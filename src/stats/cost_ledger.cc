#include "src/stats/cost_ledger.h"

#include <cstdio>

namespace camelot {

const char* CostPrimitiveSuffix(CostPrimitive primitive) {
  switch (primitive) {
    case CostPrimitive::kLogForce:
      return "force";
    case CostPrimitive::kLogSpool:
      return "spool";
    case CostPrimitive::kDatagram:
      return "dgram";
    case CostPrimitive::kLocalIpc:
      return "call";
    case CostPrimitive::kLocalIpcServer:
      return "server_call";
    case CostPrimitive::kLocalOutOfLine:
      return "oob";
    case CostPrimitive::kLocalOneway:
      return "oneway";
    case CostPrimitive::kRemoteRpc:
      return "rpc";
  }
  return "unknown";
}

void AddCounts(CountVector& into, const CountVector& add) {
  for (const auto& [key, count] : add) {
    into[key] += count;
  }
}

std::string CostLedger::Key(const CostEvent& event) {
  return event.role + "/" + event.phase + "/" + CostPrimitiveSuffix(event.primitive);
}

CountVector CostLedger::Counts() const {
  CountVector counts;
  for (const CostEvent& event : events_) {
    ++counts[Key(event)];
  }
  return counts;
}

CountVector CostLedger::ProtocolCounts() const {
  CountVector counts;
  for (const CostEvent& event : events_) {
    if (event.role == "ipc") {
      continue;
    }
    ++counts[Key(event)];
  }
  return counts;
}

std::string CostLedger::Diff(const CountVector& predicted, const CountVector& measured) {
  CountVector keys;  // Union of both key sets, values unused.
  for (const auto& [key, count] : predicted) {
    keys[key] = 0;
  }
  for (const auto& [key, count] : measured) {
    keys[key] = 0;
  }
  std::string out;
  for (const auto& [key, unused] : keys) {
    const auto p = predicted.find(key);
    const auto m = measured.find(key);
    const int64_t pv = p == predicted.end() ? 0 : p->second;
    const int64_t mv = m == measured.end() ? 0 : m->second;
    if (pv == mv) {
      continue;
    }
    char line[256];
    std::snprintf(line, sizeof(line), "  %s: predicted %lld, measured %lld (%+lld)\n",
                  key.c_str(), static_cast<long long>(pv), static_cast<long long>(mv),
                  static_cast<long long>(mv - pv));
    out += line;
  }
  return out;
}

std::string CostLedger::Render(const CountVector& counts) {
  std::string out;
  for (const auto& [key, count] : counts) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %s: %lld\n", key.c_str(),
                  static_cast<long long>(count));
    out += line;
  }
  return out;
}

}  // namespace camelot
