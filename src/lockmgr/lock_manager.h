// Family-based shared/exclusive locking for data servers.
//
// Following the paper's Section 3.4, locking "is designed to permit
// concurrency only among different transaction families": two transactions of
// the same Moss-model family never conflict with each other (intra-family
// serialization is the application's business), while across families the
// usual shared/exclusive rules apply.
//
// Nested-transaction rules (Moss):
//   - nested commit: the child's locks are anti-inherited by its parent
//     (MoveToParent);
//   - nested abort: locks acquired by the aborted subtree are released,
//     except where an ancestor also holds the lock;
//   - top-level commit/abort: ReleaseFamily drops everything.
//
// The lock manager is pure bookkeeping: the 0.5 ms get/drop costs of Table 2
// are charged by the data server around these calls. Waiting is FIFO-fair,
// with a timeout used as the deadlock fallback (cross-family deadlocks are
// broken by aborting the timed-out transaction).
#ifndef SRC_LOCKMGR_LOCK_MANAGER_H_
#define SRC_LOCKMGR_LOCK_MANAGER_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/sim/channel.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"

namespace camelot {

enum class LockMode : uint8_t { kShared = 0, kExclusive = 1 };

struct LockCounters {
  uint64_t acquisitions = 0;
  uint64_t immediate_grants = 0;
  uint64_t waits = 0;
  uint64_t timeouts = 0;
  uint64_t releases = 0;
  // Total grant-to-release sim-time over all released locks. Locks that
  // evaporate in a crash (Clear) are not counted — the interesting number is
  // how long committed/aborted work kept others out, e.g. while a partition
  // blocked a prepared subordinate.
  uint64_t total_hold_time_us = 0;
};

class LockManager {
 public:
  explicit LockManager(Scheduler& sched) : sched_(sched) {}

  // Acquires `object` in `mode` for `tid`. Grants immediately when compatible
  // (same family never conflicts; shared/shared never conflicts); otherwise
  // waits FIFO until granted or `timeout` elapses (kTimedOut: caller should
  // abort — this is the deadlock fallback). timeout < 0 waits forever.
  Async<Status> Acquire(const Tid& tid, const std::string& object, LockMode mode,
                        SimDuration timeout);

  // True if `tid` (itself, not an ancestor) holds `object` at >= `mode`.
  bool Holds(const Tid& tid, const std::string& object, LockMode mode) const;

  // Releases one lock held by `tid`; no-op if not held.
  void Release(const Tid& tid, const std::string& object);
  // Releases every lock held by exactly `tid`.
  void ReleaseAll(const Tid& tid);
  // Drops every lock held by any member of the family (top-level commit/abort).
  void ReleaseFamily(const FamilyId& family);
  // Nested commit: re-owns all of `child`'s locks to `parent`.
  void MoveToParent(const Tid& child, const Tid& parent);

  size_t held_lock_count() const;
  size_t waiter_count() const;
  const LockCounters& counters() const { return counters_; }

  // Drops all state (site crash: volatile lock tables evaporate). Waiters are
  // woken with kUnavailable.
  void Clear();

 private:
  struct Holder {
    Tid tid;
    LockMode mode;
    SimTime acquired_at = 0;
  };
  struct Waiter {
    Tid tid;
    LockMode mode;
    std::shared_ptr<Channel<Status>> wake;
    bool granted = false;
  };
  struct LockState {
    std::vector<Holder> holders;
    std::deque<std::shared_ptr<Waiter>> waiters;
  };

  // Whether `tid` may hold `object` in `mode` alongside the current holders.
  static bool Compatible(const LockState& state, const Tid& tid, LockMode mode);
  // After any release, promote newly-compatible waiters (FIFO, batch of
  // compatible shareds).
  void GrantWaiters(const std::string& object, LockState& state);
  void EraseIfFree(const std::string& object);

  Scheduler& sched_;
  std::unordered_map<std::string, LockState> locks_;
  LockCounters counters_;
};

}  // namespace camelot

#endif  // SRC_LOCKMGR_LOCK_MANAGER_H_
