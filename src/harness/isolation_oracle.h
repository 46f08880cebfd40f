// IsolationOracle: checks a recorded operation history (src/stats/history.h)
// for serializability, Jepsen-style, and names the anomaly when it is not.
//
// The check generalizes the serial-replay argument the fault-free
// serializability tests have always made: under strict two-phase locking every
// lock a committed family took was held from first touch until its commit
// transition, so ordering committed families by their EARLIEST recorded commit
// transition is a valid serial order. Replaying the committed families' writes
// in that order against the recorded initial state yields the value every
// committed read must have seen — any read that disagrees with the model is a
// bug, and the observed value's provenance tells us which classic anomaly to
// call it:
//
//   read of aborted   — the value was written by a family that aborted
//                       (e.g. a skipped/leaked undo);
//   dirty read        — the value was written by a family that had not yet
//                       committed when the read happened (leaked write locks);
//   lost update       — the value is a stale committed version and the reader
//                       also wrote this object (its update clobbered one it
//                       never saw);
//   write skew        — stale committed version, and the reader wrote OTHER
//                       objects based on it;
//   non-serializable  — stale version read-only, or unknown provenance.
//
// Two cross-variant anomalies need no replay: a family with both a commit and
// an abort transition in the history (divergent outcome — sites disagree
// about atomicity), and a post-quiesce state that disagrees with the replay
// (divergent final state, checked via IsolationReport::CheckFinalValue).
//
// Caveat: provenance is value-based, so when distinct writes produce equal
// bytes an anomaly can be attributed to the wrong class — but never invented:
// only reads that genuinely disagree with the serial replay are reported.
#ifndef SRC_HARNESS_ISOLATION_ORACLE_H_
#define SRC_HARNESS_ISOLATION_ORACLE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/stats/history.h"

namespace camelot {

enum class AnomalyType : uint8_t {
  kDivergentOutcome,     // A family both committed and aborted (site disagreement).
  kReadOfAborted,        // Committed read observed an aborted family's write.
  kDirtyRead,            // Committed read observed a not-yet-committed write.
  kLostUpdate,           // Reader overwrote a committed version it never saw.
  kWriteSkew,            // Reader wrote elsewhere based on a stale version.
  kNonSerializableRead,  // Stale or unexplainable read; no finer class fits.
  kDivergentFinalState,  // Quiesced state disagrees with the serial replay.
};

const char* AnomalyName(AnomalyType type);

struct IsolationAnomaly {
  AnomalyType type = AnomalyType::kNonSerializableRead;
  FamilyId family;     // The observing (or outcome-divergent) family.
  std::string server;  // Where; empty for kDivergentOutcome.
  std::string object;
  std::string detail;  // Human-readable evidence.

  std::string ToString() const;
};

struct IsolationReport {
  std::vector<IsolationAnomaly> anomalies;
  size_t committed = 0;   // Families with a commit transition.
  size_t aborted = 0;     // Families with only abort transitions.
  size_t undecided = 0;   // Families that touched data but never concluded.
  size_t reads_checked = 0;

  // The serial replay's final value per (server, object).
  std::map<std::pair<std::string, std::string>, Bytes> final_state;

  bool ok() const { return anomalies.empty(); }
  std::string Explain() const;

  // Compares an out-of-band observation of (server, object) — e.g. a durable
  // peek after quiesce — against the replay; appends a kDivergentFinalState
  // anomaly and returns false on mismatch.
  bool CheckFinalValue(const std::string& server, const std::string& object,
                       const Bytes& actual);
};

class IsolationOracle {
 public:
  static IsolationReport Check(const std::vector<HistoryEvent>& events);
};

}  // namespace camelot

#endif  // SRC_HARNESS_ISOLATION_ORACLE_H_
