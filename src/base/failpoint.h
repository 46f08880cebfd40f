// Named failpoints: deterministic fault injection at fixed protocol points.
//
// A FailpointRegistry holds, per (point name, site), a hit counter and any
// armed triggers. Code on the hot paths (TranMan log forces and datagram
// sends, StableLog::Force, DiskManager page I/O, RecoveryManager passes)
// evaluates a named point through a per-site Failpoints handle; an armed
// trigger fires when the counter reaches its hit number ("crash at the Nth
// hit of P on site S").
//
// Actions:
//   crash  — take the site down at this point (Site::Crash, listeners fire
//            before the evaluating code continues);
//   drop   — suppress the operation (meaningful at datagram-send points);
//   delay  — stall the operation by a virtual-time duration;
//   error  — fail the operation with an error return (meaningful at points
//            with a defined error path, e.g. disk reads; a log force treats
//            it as a failed force);
//   callback — run an arbitrary test-provided closure at the point (how
//            tests replace "poll until durable, then crash" watchers).
//
// Determinism: all hit counting happens in virtual time on the simulation's
// single thread, so for a fixed (seed, workload, armed schedule) every run
// evaluates the same points in the same order with the same counters. The
// registry optionally records a trace of every evaluation; two runs of the
// same seed + schedule must produce identical traces (tested).
//
// Evaluations at a DOWN site are suppressed (not counted): a dead site's
// coroutines are winding down and their hits are not part of the protocol
// history being explored.
#ifndef SRC_BASE_FAILPOINT_H_
#define SRC_BASE_FAILPOINT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"

namespace camelot {

enum class FailpointAction : uint8_t {
  kNone = 0,
  kCrash,
  kDrop,
  kDelay,
  kError,
  kCallback,
};

const char* FailpointActionName(FailpointAction action);

// What an evaluation returned to the instrumented code. kCrash has already
// crashed the site and kCallback has already run by the time the caller sees
// the hit; kDrop / kDelay / kError are the caller's to honor.
struct FailpointHit {
  FailpointAction action = FailpointAction::kNone;
  SimDuration delay = 0;  // Set for kDelay.
};

// One armed trigger: fire `action` when the (point, site) counter reaches
// `hit` (1-based). Each trigger fires at most once.
struct FailpointArm {
  FailpointAction action = FailpointAction::kCrash;
  uint64_t hit = 1;
  SimDuration delay = 0;                // kDelay.
  std::function<void()> callback;       // kCallback.

  static FailpointArm Crash(uint64_t hit_number = 1) {
    return {FailpointAction::kCrash, hit_number, 0, nullptr};
  }
  static FailpointArm Drop(uint64_t hit_number = 1) {
    return {FailpointAction::kDrop, hit_number, 0, nullptr};
  }
  static FailpointArm Delay(uint64_t hit_number, SimDuration d) {
    return {FailpointAction::kDelay, hit_number, d, nullptr};
  }
  static FailpointArm Error(uint64_t hit_number = 1) {
    return {FailpointAction::kError, hit_number, 0, nullptr};
  }
  static FailpointArm Callback(uint64_t hit_number, std::function<void()> fn) {
    return {FailpointAction::kCallback, hit_number, 0, std::move(fn)};
  }
};

// A (point, site, hit count) triple observed by a recording run — the unit
// the crash-schedule explorer sweeps over.
struct DiscoveredPoint {
  std::string point;
  SiteId site;
  uint64_t hits = 0;
};

class FailpointRegistry {
 public:
  // Arms `point` at `site`. Multiple arms per (point, site) are allowed
  // (e.g. different hit numbers).
  void Arm(std::string_view point, SiteId site, FailpointArm arm);
  // Removes every arm (hit counters and the trace are kept).
  void DisarmAll();
  // Clears counters, arms, and trace.
  void Reset();

  // Turns on hit counting + trace recording. Counting also happens while any
  // arm is installed; recording makes counters observable via Discovered()
  // and appends one trace line per evaluation.
  void set_recording(bool on);
  bool recording() const { return recording_; }

  // Counting happens only while "active": recording, or at least one arm.
  bool active() const { return recording_ || armed_count_ > 0; }

  // Called by Failpoints handles. `site` must be a live site.
  FailpointHit Eval(std::string_view point, SiteId site, SimTime now);

  uint64_t hits(std::string_view point, SiteId site) const;
  // Every (point, site) with a nonzero counter, sorted by point then site.
  std::vector<DiscoveredPoint> Discovered() const;
  // Arms that have not fired yet, as "point@site#hit=action" strings.
  std::vector<std::string> UnfiredArms() const;

  const std::vector<std::string>& trace() const { return trace_; }

 private:
  struct ArmedEntry {
    FailpointArm arm;
    bool fired = false;
  };
  struct SiteState {
    uint64_t hits = 0;
    std::vector<ArmedEntry> arms;
  };
  // Site states indexed by SiteId value (grown on demand).
  using PointState = std::vector<SiteState>;

  // Lets points_ be probed with a string_view, so an evaluation builds no
  // key string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const { return std::hash<std::string_view>{}(name); }
  };

  SiteState* Find(std::string_view point, SiteId site);
  const SiteState* Find(std::string_view point, SiteId site) const;

  std::unordered_map<std::string, PointState, NameHash, std::equal_to<>> points_;
  size_t armed_count_ = 0;  // Unfired arms across all points.
  bool recording_ = false;
  std::vector<std::string> trace_;
};

// Per-site, per-component evaluation handle. Default-constructed handles are
// inert (every Eval returns kNone at zero cost) — components outside a full
// CamelotWorld never pay for the instrumentation.
class Failpoints {
 public:
  Failpoints() = default;
  Failpoints(FailpointRegistry* registry, SiteId site, std::function<SimTime()> now,
             std::function<bool()> site_up, std::function<void()> crash_site)
      : registry_(registry),
        site_(site),
        now_(std::move(now)),
        site_up_(std::move(site_up)),
        crash_site_(std::move(crash_site)) {}

  // True when evaluations can have any effect; lets hot paths skip building
  // point-name strings entirely.
  bool active() const { return registry_ != nullptr && registry_->active(); }

  // Evaluates the named point. A kCrash trigger crashes the site before this
  // returns; a kCallback trigger has already run. The caller honors
  // kDrop / kDelay / kError according to the point's semantics.
  FailpointHit Eval(std::string_view point) const;
  // Evaluates the point named `prefix` + `suffix` (a force point's ".before"
  // or ".after", a send gate's message type), joined on the stack.
  FailpointHit Eval(std::string_view prefix, std::string_view suffix) const;

 private:
  FailpointRegistry* registry_ = nullptr;
  SiteId site_{};
  std::function<SimTime()> now_;
  std::function<bool()> site_up_;
  std::function<void()> crash_site_;
};

// --- Crash schedules (replayable fault scripts) ---------------------------------
//
// Textual form (the replay string printed on oracle failures and accepted via
// the CAMELOT_SCHEDULE env var):
//
//   point@site#hit=action[:arg][;point@site#hit=action...]
//
// e.g. "tm.2pc.commit_force.before@0#1=crash;tm.send.vote@1#2=delay:5000".

struct ScheduleEntry {
  std::string point;
  SiteId site{};
  uint64_t hit = 1;
  FailpointAction action = FailpointAction::kCrash;
  SimDuration delay = 0;  // kDelay argument, microseconds.

  std::string ToString() const;
};

struct CrashSchedule {
  std::vector<ScheduleEntry> entries;

  std::string ToString() const;
  static Result<CrashSchedule> Parse(std::string_view text);

  // Installs every entry into the registry.
  void ArmAll(FailpointRegistry& registry) const;
};

}  // namespace camelot

#endif  // SRC_BASE_FAILPOINT_H_
