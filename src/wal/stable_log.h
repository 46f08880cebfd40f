// StableLog: the per-site common log on simulated stable storage.
//
// Appends are buffered in volatile memory; Force() makes everything up to an
// LSN durable by performing a (15 ms) disk write. With group commit enabled, a
// single writer daemon batches all force requests that accumulate while the
// disk is busy into one physical write — the paper's "log batching", without
// which a disk log caps out near 30 forced commits per second.
//
// Records are framed with a self-verifying header (length + payload CRC +
// header CRC), so replay can tell an *expected* torn tail (a crash cut a
// write short: the final frame is incomplete) apart from *interior media
// corruption* (a complete frame whose CRC fails: the disk lost committed
// work). The log is the single point of durability, so — like Camelot's
// duplexed common log — it can optionally be mirrored on two simulated log
// disks, forced in parallel; a frame is durable as long as either copy is
// intact, and replay reads whichever mirror's frame passes CRC, repairing
// the other.
//
// A crash discards the volatile tail; recovery replays the durable prefix
// and truncates any torn tail so later appends extend a clean log.
#ifndef SRC_WAL_STABLE_LOG_H_
#define SRC_WAL_STABLE_LOG_H_

#include <deque>
#include <string>
#include <memory>
#include <vector>

#include "src/base/failpoint.h"
#include "src/base/storage_faults.h"
#include "src/sim/channel.h"
#include "src/sim/scheduler.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/wal/log_record.h"

namespace camelot {

struct LogConfig {
  // One physical log-disk write (Table 2: log force 15 ms).
  SimDuration force_latency = Usec(15000);
  // Batch multiple force requests into one disk write.
  bool group_commit = true;
  // Extra wait before a batched write starts, to accumulate more commits
  // (group commit timers, Helland et al.). 0 = batch only what queued while
  // the disk was busy.
  SimDuration batch_window = 0;
  // Duplex the log across two mirrored log disks (Camelot's duplexed common
  // log). Both mirrors are forced in parallel — same latency — and replay
  // salvages any frame that is intact on either mirror.
  bool duplex = false;
  // Media faults on the log disk(s); see src/base/storage_faults.h.
  StorageFaultConfig faults;
  // How many checkpoint generations WriteCheckpoint retains before reclaiming
  // log space. 1 reclaims everything before the newest checkpoint (minimum
  // footprint); 2 keeps one previous interval on disk so media recovery can
  // fall back past the last checkpoint when rebuilding a page whose updates
  // were checkpointed away (see RecoveryManager::RebuildPage).
  int checkpoint_generations_retained = 1;
};

struct LogCounters {
  uint64_t appends = 0;
  uint64_t force_requests = 0;
  uint64_t disk_writes = 0;      // Physical forces actually performed.
  uint64_t mirror_writes = 0;    // Physical writes counting each mirror.
  uint64_t bytes_written = 0;
  uint64_t records_batched = 0;  // Force requests satisfied by another's write.
  uint64_t write_stalls = 0;     // Forces that hit a write stall fault.
  uint64_t torn_writes_injected = 0;
  uint64_t bit_rot_injected = 0;
  uint64_t frames_salvaged = 0;  // Replay frames rebuilt from the other mirror.
  uint64_t interior_corruption = 0;  // Unsalvageable interior frames seen.
};

// How a replay scan of the durable log ended.
enum class LogScanEnd {
  kCleanEnd,             // Every durable byte parsed into valid frames.
  kTornTail,             // Final frame incomplete: expected after a crash.
  kInteriorCorruption,   // A complete frame failed CRC on every mirror: the
                         // media lost committed work. Recovery must fail
                         // loudly rather than silently truncate replay here.
};

struct LogReplay {
  std::vector<LogRecord> records;
  LogScanEnd end = LogScanEnd::kCleanEnd;
  size_t frames_salvaged = 0;  // Frames unreadable on one mirror, rebuilt.
};

class StableLog {
 public:
  StableLog(Scheduler& sched, LogConfig config);

  // Appends a record to the volatile buffer; returns its end-exclusive LSN.
  // The record is durable once durable_lsn() >= returned LSN.
  Lsn Append(const LogRecord& record);

  // Appends and immediately forces (convenience for the single-record case).
  Async<Lsn> AppendAndForce(const LogRecord& record);

  // Makes everything up to `upto` durable. Returns true once durable_lsn() >=
  // upto; returns false if a crash destroyed the tail first (the caller's
  // world is gone and it must not treat the record as durable).
  Async<bool> Force(Lsn upto);

  Lsn durable_lsn() const { return Lsn{durable_bytes_}; }
  Lsn buffered_lsn() const { return Lsn{durable_bytes_ + static_cast<uint64_t>(tail_.size())}; }
  bool IsDurable(Lsn lsn) const { return lsn.value <= durable_bytes_; }

  // Crash: the volatile tail is lost. (The durable bytes survive — they model
  // the disk.) A write in flight leaves an independently torn prefix on each
  // mirror. Pending force waiters are abandoned by their crashed callers.
  void OnCrash();

  // Replays the durable prefix (stops at the first bad frame). Prefer
  // ReplayDurable in recovery paths: it also classifies how the scan ended,
  // repairs mirror damage, and truncates a torn tail.
  std::vector<LogRecord> ReadDurable() { return Replay(/*repair=*/false).records; }

  // Full recovery-grade replay: salvages frames from either mirror (copying
  // the good bytes over the bad mirror), distinguishes a torn tail from
  // interior corruption, and — unless the scan hit interior corruption —
  // truncates trailing torn garbage so subsequent appends extend a clean log.
  LogReplay ReplayDurable() { return Replay(/*repair=*/true); }

  // Testing hook: flip a byte of one mirror's durable image.
  void CorruptDurableByte(size_t offset, int mirror = 0);

  // Saves the durable image (with its base offset) to a host file, and loads
  // one back — lets a world's stable storage outlive the process (e.g. the
  // shell's `save`/`load`). Only the durable bytes persist, exactly as a real
  // disk would; the primary mirror is saved and a load seeds both mirrors.
  // Returns false on I/O failure or a corrupt image.
  bool SaveToFile(const std::string& path) const;
  bool LoadFromFile(const std::string& path);

  // Physically reclaims the durable prefix before `lsn` (call only with the
  // LSN of a checkpoint record boundary: replay must still see a whole-frame
  // prefix). LSNs remain globally monotonic; ReadDurable returns records
  // after the reclaimed prefix.
  void ReclaimBefore(Lsn lsn);
  uint64_t reclaimed_bytes() const { return base_offset_; }

  // Fault-injection points around the physical log write: the harness wires a
  // per-site handle so crash schedules can cut a force short at exactly
  // "wal.force.before_write" / "wal.force.after_write" (see base/failpoint.h).
  void set_failpoints(Failpoints failpoints) { failpoints_ = std::move(failpoints); }

  // Enables/changes media faults mid-run (e.g. after a clean loading phase).
  void set_faults(const StorageFaultConfig& faults) { config_.faults = faults; }
  bool duplex() const { return config_.duplex; }
  const LogConfig& config() const { return config_; }
  const LogCounters& counters() const { return counters_; }

 private:
  struct ForceWaiter {
    uint64_t upto;
    std::shared_ptr<Channel<bool>> done;
  };
  // Outcome of probing one mirror for a frame at a given offset.
  enum class FrameProbe { kValid, kTorn, kBad };

  int active_mirrors() const { return config_.duplex ? 2 : 1; }
  Async<void> WriterDaemon();
  // One physical write's worth of simulated latency, including stall faults.
  SimDuration DrawWriteLatency();
  // Moves the volatile tail up to `target` into every mirror's durable image
  // and applies write-time media faults.
  void Publish(uint64_t target);
  // Classifies the frame at `pos` (image-relative) in `image`; on kValid,
  // `frame_len` receives the total framed length (header + payload).
  FrameProbe Probe(const Bytes& image, size_t pos, size_t* frame_len) const;
  LogReplay Replay(bool repair);

  // Evaluates a wal.force.* failpoint; honors kDelay inline (kCrash is applied
  // by the handle). Returns true if a crash fired while we were at the point.
  Async<bool> AtWritePoint(const char* point, uint64_t epoch);

  Scheduler& sched_;
  LogConfig config_;
  Failpoints failpoints_;
  Bytes mirror_[2];          // Disk image(s), starting at base_offset_.
                             // mirror_[1] is live only when duplexing.
  uint64_t base_offset_ = 0; // Bytes reclaimed from the front (checkpointing).
  uint64_t durable_bytes_ = 0;
  Bytes tail_;               // Volatile buffer beyond durable_bytes_.
  SimMutex disk_;            // The disk arm (non-group-commit path).
  Rng fault_rng_;            // Private stream: fault draws stay reproducible.
  bool writer_running_ = false;
  uint64_t crash_epoch_ = 0;     // Bumped on crash: in-flight writes abandon.
  uint64_t inflight_target_ = 0; // End LSN of the write in progress (0 = none).
  std::deque<ForceWaiter> waiters_;
  LogCounters counters_;
};

}  // namespace camelot

#endif  // SRC_WAL_STABLE_LOG_H_
