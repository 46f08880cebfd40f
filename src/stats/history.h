// HistoryRecorder: a Jepsen-style operation history of a running Camelot
// world — every transactional read and write the data servers serve, every
// top-level commit/abort transition the transaction managers apply, and the
// initial value of every object installed at setup, each stamped
// {tid, site, server, object, value, virtual time}.
//
// The recorder is the measured side of the isolation oracle
// (src/harness/isolation_oracle.h): after a chaos run quiesces, the oracle
// replays the committed transactions in commit order against the recorded
// initial state and checks that every committed read is explainable — the
// serializability twin of the primitive-cost conformance gate.
//
// Components never see the recorder: they report through their Site
// (Site::RecordServed, Site::RecordOutcome), which stamps the site id and
// virtual time and, while recording is off, returns after one branch
// without building an event. Recording is a single vector push per event
// (no I/O, no sim-time cost), so both explorers keep it on for every
// schedule sweep and soak. Histories serialize to a line-oriented replayable
// text format; a failing run dumps its history and prints a CAMELOT_HISTORY=
// replay recipe (see src/harness/replay.h) that reproduces the oracle
// verdict offline.
//
// Deliberately NOT recorded, so a replay stays value-faithful:
//   - recovery redo/undo and RestorePreparedUpdate (they reconstruct writes
//     already in the history; re-recording would double-count them);
//   - abort-path compensation writes (an aborted family's effects must
//     vanish, which the replay models by never applying them);
//   - nested-subtree aborts (none of the gated workloads nest; see
//     DESIGN.md "Isolation oracle and bank workload" for the limitation).
#ifndef SRC_STATS_HISTORY_H_
#define SRC_STATS_HISTORY_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/base/codec.h"
#include "src/base/status.h"
#include "src/base/types.h"

namespace camelot {

enum class HistoryOp : uint8_t {
  kInit,    // CreateObjectForSetup installed the object (tid invalid).
  kRead,    // A transaction read `value` from (server, object).
  kWrite,   // A transaction wrote `value` to (server, object).
  kCommit,  // A site applied the family's commit transition (server/object empty).
  kAbort,   // A site applied the family's abort transition (server/object empty).
};

const char* HistoryOpName(HistoryOp op);

struct HistoryEvent {
  HistoryOp op = HistoryOp::kRead;
  SimTime ts = 0;
  SiteId site{};        // Site that observed the event.
  Tid tid = kInvalidTid;  // Invalid for kInit.
  std::string server;   // Data server name; empty for commit/abort.
  std::string object;   // Empty for commit/abort.
  Bytes value;          // Read/written/initial value; empty for commit/abort.

  std::string ToLine() const;  // The serialized one-line form.

  friend bool operator==(const HistoryEvent&, const HistoryEvent&) = default;
};

class HistoryRecorder {
 public:
  // Recording is off until a harness opts in (the explorers and the isolation
  // tests do); a disabled recorder drops events, and Site skips building them.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void Record(HistoryEvent event) {
    if (enabled_) {
      events_.push_back(std::move(event));
    }
  }

  void Clear() { events_.clear(); }
  size_t size() const { return events_.size(); }
  const std::vector<HistoryEvent>& events() const { return events_; }

  // The replayable history-file format (what CAMELOT_HISTORY points at):
  //   # camelot-history v1
  //   <ts> <op> <tid|-> <site> <server|-> <object|-> <value-hex|->
  // one line per event, whitespace-separated tokens, values hex-encoded.
  std::string Serialize() const;
  static Result<std::vector<HistoryEvent>> Parse(std::string_view text);

 private:
  bool enabled_ = false;
  std::vector<HistoryEvent> events_;
};

}  // namespace camelot

#endif  // SRC_STATS_HISTORY_H_
