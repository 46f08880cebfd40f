#include "src/lockmgr/lock_manager.h"

#include <algorithm>

#include "src/base/logging.h"

namespace camelot {

bool LockManager::Compatible(const LockState& state, const Tid& tid, LockMode mode) {
  for (const Holder& h : state.holders) {
    if (h.tid.family == tid.family) {
      continue;  // Same family never conflicts (paper, Section 3.4).
    }
    if (mode == LockMode::kExclusive || h.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

Async<Status> LockManager::Acquire(const Tid& tid, const std::string& object, LockMode mode,
                                   SimDuration timeout) {
  ++counters_.acquisitions;
  LockState& state = locks_[object];

  // Re-entrant / upgrade handling for a tid that already holds the lock.
  for (Holder& h : state.holders) {
    if (h.tid == tid) {
      if (h.mode == LockMode::kExclusive || mode == LockMode::kShared) {
        ++counters_.immediate_grants;
        co_return OkStatus();
      }
      // Upgrade S -> X: legal when no other family holds the lock.
      if (Compatible(state, tid, LockMode::kExclusive)) {
        h.mode = LockMode::kExclusive;
        ++counters_.immediate_grants;
        co_return OkStatus();
      }
      break;  // Must wait for the other family to drain.
    }
  }

  // FIFO fairness: do not jump the queue even if currently compatible.
  if (state.waiters.empty() && Compatible(state, tid, mode)) {
    state.holders.push_back(Holder{tid, mode, sched_.now()});
    ++counters_.immediate_grants;
    co_return OkStatus();
  }

  ++counters_.waits;
  auto waiter = std::make_shared<Waiter>();
  waiter->tid = tid;
  waiter->mode = mode;
  waiter->wake = std::make_shared<Channel<Status>>(sched_);
  state.waiters.push_back(waiter);

  std::optional<Status> outcome;
  if (timeout < 0) {
    outcome = co_await waiter->wake->Receive();
  } else {
    outcome = co_await waiter->wake->ReceiveTimeout(timeout);
  }
  if (outcome.has_value()) {
    co_return *outcome;
  }
  // Timed out (or the table was cleared): withdraw the request if it is still
  // queued. If it was granted in the same instant, honour the grant.
  if (waiter->granted) {
    co_return OkStatus();
  }
  auto it = locks_.find(object);
  if (it != locks_.end()) {
    auto& q = it->second.waiters;
    q.erase(std::remove(q.begin(), q.end(), waiter), q.end());
    // Our departure may unblock others (e.g. an S behind our X).
    GrantWaiters(object, it->second);
    EraseIfFree(object);
  }
  ++counters_.timeouts;
  co_return TimedOutError("lock wait timed out on " + object + " (" + ToString(tid) + ")");
}

bool LockManager::Holds(const Tid& tid, const std::string& object, LockMode mode) const {
  auto it = locks_.find(object);
  if (it == locks_.end()) {
    return false;
  }
  for (const Holder& h : it->second.holders) {
    if (h.tid == tid && (h.mode == LockMode::kExclusive || mode == LockMode::kShared)) {
      return true;
    }
  }
  return false;
}

void LockManager::GrantWaiters(const std::string& /*object*/, LockState& state) {
  while (!state.waiters.empty()) {
    auto& front = state.waiters.front();
    // A waiter whose tid already holds the lock is an upgrader.
    bool handled = false;
    for (Holder& h : state.holders) {
      if (h.tid == front->tid) {
        if (front->mode == LockMode::kExclusive &&
            !Compatible(state, front->tid, LockMode::kExclusive)) {
          return;  // Upgrade still blocked.
        }
        if (front->mode == LockMode::kExclusive) {
          h.mode = LockMode::kExclusive;
        }
        handled = true;
        break;
      }
    }
    if (!handled) {
      if (!Compatible(state, front->tid, front->mode)) {
        return;
      }
      state.holders.push_back(Holder{front->tid, front->mode, sched_.now()});
    }
    front->granted = true;
    front->wake->Send(OkStatus());
    state.waiters.pop_front();
  }
}

void LockManager::EraseIfFree(const std::string& object) {
  auto it = locks_.find(object);
  if (it != locks_.end() && it->second.holders.empty() && it->second.waiters.empty()) {
    locks_.erase(it);
  }
}

void LockManager::Release(const Tid& tid, const std::string& object) {
  auto it = locks_.find(object);
  if (it == locks_.end()) {
    return;
  }
  auto& holders = it->second.holders;
  const size_t before = holders.size();
  holders.erase(std::remove_if(holders.begin(), holders.end(),
                               [&](const Holder& h) {
                                 if (h.tid != tid) {
                                   return false;
                                 }
                                 counters_.total_hold_time_us +=
                                     static_cast<uint64_t>(sched_.now() - h.acquired_at);
                                 return true;
                               }),
                holders.end());
  if (holders.size() != before) {
    ++counters_.releases;
    GrantWaiters(object, it->second);
    EraseIfFree(object);
  }
}

void LockManager::ReleaseAll(const Tid& tid) {
  std::vector<std::string> objects;
  for (const auto& [object, state] : locks_) {
    for (const Holder& h : state.holders) {
      if (h.tid == tid) {
        objects.push_back(object);
        break;
      }
    }
  }
  for (const auto& object : objects) {
    Release(tid, object);
  }
}

void LockManager::ReleaseFamily(const FamilyId& family) {
  std::vector<std::string> objects;
  for (const auto& [object, state] : locks_) {
    for (const Holder& h : state.holders) {
      if (h.tid.family == family) {
        objects.push_back(object);
        break;
      }
    }
  }
  for (const auto& object : objects) {
    auto it = locks_.find(object);
    if (it == locks_.end()) {
      continue;
    }
    auto& holders = it->second.holders;
    const size_t before = holders.size();
    holders.erase(std::remove_if(holders.begin(), holders.end(),
                                 [&](const Holder& h) {
                                   if (h.tid.family != family) {
                                     return false;
                                   }
                                   counters_.total_hold_time_us +=
                                       static_cast<uint64_t>(sched_.now() - h.acquired_at);
                                   return true;
                                 }),
                  holders.end());
    if (holders.size() != before) {
      ++counters_.releases;
      GrantWaiters(object, it->second);
      EraseIfFree(object);
    }
  }
}

void LockManager::MoveToParent(const Tid& child, const Tid& parent) {
  CAMELOT_CHECK(child.family == parent.family);
  for (auto& [object, state] : locks_) {
    Holder* parent_holder = nullptr;
    Holder* child_holder = nullptr;
    for (Holder& h : state.holders) {
      if (h.tid == parent) {
        parent_holder = &h;
      } else if (h.tid == child) {
        child_holder = &h;
      }
    }
    if (child_holder == nullptr) {
      continue;
    }
    if (parent_holder != nullptr) {
      // Parent already holds it: merge modes, drop the child entry.
      parent_holder->mode = std::max(parent_holder->mode, child_holder->mode);
      auto& holders = state.holders;
      holders.erase(std::remove_if(holders.begin(), holders.end(),
                                   [&](const Holder& h) { return h.tid == child; }),
                    holders.end());
    } else {
      child_holder->tid = parent;
    }
  }
}

size_t LockManager::held_lock_count() const {
  size_t n = 0;
  for (const auto& [object, state] : locks_) {
    n += state.holders.size();
  }
  return n;
}

size_t LockManager::waiter_count() const {
  size_t n = 0;
  for (const auto& [object, state] : locks_) {
    n += state.waiters.size();
  }
  return n;
}

void LockManager::Clear() {
  for (auto& [object, state] : locks_) {
    for (auto& w : state.waiters) {
      w->wake->Send(UnavailableError("lock table cleared (site crash)"));
    }
  }
  locks_.clear();
}

}  // namespace camelot
