#include "src/server/data_server.h"

#include <algorithm>

#include "src/base/logging.h"

namespace camelot {

DataServer::DataServer(Site& site, std::string name, DiskManager& diskmgr, NameService& names,
                       ServerConfig config)
    : site_(site),
      name_(std::move(name)),
      diskmgr_(diskmgr),
      names_(names),
      config_(config),
      locks_(site.sched()) {
  site_.RegisterService(name_, [this](RpcContext ctx, uint32_t method, Bytes body) {
    return Handle(ctx, method, std::move(body));
  });
  CAMELOT_CHECK(names_.Register(name_, site_.id()).ok());
  site_.AddCrashListener([this] {
    families_.clear();
    locks_.Clear();
    concluded_.clear();
  });
}

void DataServer::CreateObjectForSetup(const std::string& object, Bytes value) {
  site_.RecordServed(HistoryOp::kInit, kInvalidTid, name_, object, value);
  diskmgr_.RecoveryWrite(name_, object, std::move(value));
}

Result<Bytes> DataServer::PeekDurable(const std::string& object) const {
  return diskmgr_.RecoveryRead(name_, object);
}

Async<void> DataServer::RestorePreparedUpdate(const Tid& tid, const std::string& object,
                                              Bytes old_value, Bytes new_value, Lsn lsn) {
  FamilyState& fam = families_[tid.family];
  fam.joined = true;  // TranMan already knows about us via its own recovery.
  Status lock = co_await locks_.Acquire(tid, object, LockMode::kExclusive, Usec(0));
  CAMELOT_CHECK(lock.ok());  // Nothing else can hold locks during restart.
  fam.updates.push_back(UpdateEntry{tid, object, std::move(old_value), std::move(new_value),
                                    lsn});
}

Async<RpcResult> DataServer::Handle(RpcContext ctx, uint32_t method, Bytes body) {
  ByteReader r(body);
  // Deadline shed: a transactional operation that arrives after its client's
  // deadline is zombie work — refuse before joining or touching locks. The
  // protocol upcalls (vote/commit/abort) below are never shed: they complete
  // work the transaction manager already admitted.
  if ((method == kSrvRead || method == kSrvWrite || method == kSrvCreate) &&
      ctx.deadline > 0 && site_.sched().now() > ctx.deadline) {
    ++counters_.deadline_rejects;
    co_return RpcResult{OverloadedError("client deadline already passed"), {}};
  }
  switch (method) {
    case kSrvRead: {
      const Tid tid = r.Transaction();
      const std::string object = r.Str();
      if (!r.ok()) {
        co_return RpcResult{InvalidArgumentError("bad read request"), {}};
      }
      RpcResult result = co_await HandleRead(tid, object);
      co_return result;
    }
    case kSrvWrite:
    case kSrvCreate: {
      const Tid tid = r.Transaction();
      const std::string object = r.Str();
      Bytes value = r.Blob();
      if (!r.ok()) {
        co_return RpcResult{InvalidArgumentError("bad write request"), {}};
      }
      if (method == kSrvCreate) {
        const bool exists = co_await diskmgr_.Exists(name_, object);
        if (exists) {
          co_return RpcResult{AlreadyExistsError(object), {}};
        }
      }
      RpcResult result = co_await HandleWrite(tid, object, std::move(value));
      co_return result;
    }
    case kSrvVote: {
      const Tid top = r.Transaction();
      RpcResult result = co_await HandleVote(top);
      co_return result;
    }
    case kSrvCommitFamily: {
      const Tid top = r.Transaction();
      RpcResult result = co_await HandleCommitFamily(top);
      co_return result;
    }
    case kSrvAbortFamily: {
      const Tid top = r.Transaction();
      RpcResult result = co_await HandleAbortFamily(top);
      co_return result;
    }
    case kSrvNestedCommit: {
      const Tid child = r.Transaction();
      const Tid parent = r.Transaction();
      RpcResult result = co_await HandleNestedCommit(child, parent);
      co_return result;
    }
    case kSrvAbortSubtree: {
      const Tid top = r.Transaction();
      const uint32_t n = r.U32();
      std::vector<uint32_t> serials;
      for (uint32_t i = 0; i < n && r.ok(); ++i) {
        serials.push_back(r.U32());
      }
      if (!r.ok()) {
        co_return RpcResult{InvalidArgumentError("bad abort-subtree request"), {}};
      }
      RpcResult result = co_await HandleAbortSubtree(top, serials);
      co_return result;
    }
    default:
      co_return RpcResult{InvalidArgumentError("unknown server method"), {}};
  }
}

bool DataServer::Concluded(const FamilyId& family) const { return concluded_.contains(family); }

void DataServer::MarkConcluded(const FamilyId& family) { concluded_.insert(family); }

Async<Status> DataServer::EnsureJoined(const Tid& tid) {
  FamilyState& fam = families_[tid.family];
  if (fam.joined) {
    co_return OkStatus();
  }
  // Figure 1, event 4: "Server notifies TranMan that it is taking part".
  RpcResult result = co_await site_.CallLocal(kTranManServiceName, kTmJoin,
                                              EncodeJoinRequest(tid, name_),
                                              RpcContext{site_.id(), tid},
                                              /*to_data_server=*/false);
  if (!result.status.ok()) {
    co_return result.status;
  }
  // Note: families_ may have been rebuilt (crash) while we awaited.
  families_[tid.family].joined = true;
  ++counters_.joins;
  co_return OkStatus();
}

Async<RpcResult> DataServer::HandleRead(const Tid& tid, const std::string& object) {
  if (!tid.IsValid()) {
    co_return RpcResult{InvalidArgumentError("read requires a transaction"), {}};
  }
  if (Concluded(tid.family)) {
    co_return RpcResult{AbortedError("transaction already concluded"), {}};
  }
  Status joined = co_await EnsureJoined(tid);
  if (!joined.ok()) {
    co_return RpcResult{std::move(joined), {}};
  }
  co_await site_.sched().Delay(config_.lock_cost);
  Status lock = co_await locks_.Acquire(tid, object, LockMode::kShared,
                                        config_.lock_wait_timeout);
  if (!lock.ok()) {
    co_return RpcResult{std::move(lock), {}};
  }
  if (Concluded(tid.family)) {
    locks_.Release(tid, object);
    co_return RpcResult{AbortedError("transaction concluded while waiting"), {}};
  }
  auto value = co_await diskmgr_.Read(name_, object);
  if (!value.ok()) {
    co_return RpcResult{value.status(), {}};
  }
  site_.RecordServed(HistoryOp::kRead, tid, name_, object, *value);
  ++counters_.reads;
  ByteWriter w;
  w.Blob(*value);
  co_return RpcResult{OkStatus(), w.Take()};
}

Async<RpcResult> DataServer::HandleWrite(const Tid& tid, const std::string& object, Bytes value) {
  if (!tid.IsValid()) {
    co_return RpcResult{InvalidArgumentError("write requires a transaction"), {}};
  }
  if (Concluded(tid.family)) {
    co_return RpcResult{AbortedError("transaction already concluded"), {}};
  }
  Status joined = co_await EnsureJoined(tid);
  if (!joined.ok()) {
    co_return RpcResult{std::move(joined), {}};
  }
  co_await site_.sched().Delay(config_.lock_cost);
  Status lock = co_await locks_.Acquire(tid, object, LockMode::kExclusive,
                                        config_.lock_wait_timeout);
  if (!lock.ok()) {
    co_return RpcResult{std::move(lock), {}};
  }
  if (Concluded(tid.family)) {
    locks_.Release(tid, object);
    co_return RpcResult{AbortedError("transaction concluded while waiting"), {}};
  }
  const uint32_t inc = site_.incarnation();
  Bytes old_value;
  auto existing = co_await diskmgr_.Read(name_, object);
  if (!site_.up() || site_.incarnation() != inc) {
    // The site crashed while we read: appending the update now would plant a
    // record (and a dirty page) in the NEXT incarnation's state.
    co_return RpcResult{UnavailableError("site crashed during write"), {}};
  }
  if (existing.ok()) {
    old_value = *existing;
  } else if (existing.status().code() != StatusCode::kNotFound) {
    // Only "does not exist yet" legitimately means an empty before-image. A
    // transient read failure must fail the write: logging old_value = {} here
    // would make a later undo ERASE the page's real contents.
    co_return RpcResult{existing.status(), {}};
  }
  // Figure 1, event 5: report old and new value to the disk manager; the
  // update record is appended now but forced as late as possible.
  const Lsn lsn = diskmgr_.log().Append(
      LogRecord::Update(tid, name_, object, old_value, value));
  Status written = co_await diskmgr_.Write(name_, object, value, lsn);
  if (!written.ok()) {
    co_return RpcResult{std::move(written), {}};
  }
  site_.RecordServed(HistoryOp::kWrite, tid, name_, object, value);
  families_[tid.family].updates.push_back(UpdateEntry{tid, object, std::move(old_value),
                                                      std::move(value), lsn});
  ++counters_.writes;
  co_return RpcResult{OkStatus(), {}};
}

Async<RpcResult> DataServer::HandleVote(const Tid& top) {
  ByteWriter w;
  if (inject_vote_no_ > 0) {
    --inject_vote_no_;
    w.U8(static_cast<uint8_t>(ServerVote::kNo));
    co_return RpcResult{OkStatus(), w.Take()};
  }
  auto it = families_.find(top.family);
  if (it == families_.end() || it->second.updates.empty()) {
    ++counters_.votes_readonly;
    w.U8(static_cast<uint8_t>(ServerVote::kReadOnly));
  } else {
    ++counters_.votes_update;
    w.U8(static_cast<uint8_t>(ServerVote::kUpdate));
  }
  co_return RpcResult{OkStatus(), w.Take()};
}

Async<RpcResult> DataServer::HandleCommitFamily(const Tid& top) {
  // Figure 1, event 11: drop the locks held by the transaction.
  MarkConcluded(top.family);
  co_await site_.sched().Delay(config_.lock_cost);
  locks_.ReleaseFamily(top.family);
  families_.erase(top.family);
  ++counters_.commits;
  co_return RpcResult{OkStatus(), {}};
}

Async<void> DataServer::UndoUpdates(std::vector<UpdateEntry> updates) {
  // Newest first; value logging makes undo a plain write of the old value.
  // The records are CLRs so recovery knows these forwards were compensated.
  const uint32_t inc = site_.incarnation();
  for (auto it = updates.rbegin(); it != updates.rend(); ++it) {
    if (!site_.up() || site_.incarnation() != inc) {
      co_return;  // Crashed mid-undo; restart recovery finishes the job.
    }
    if (failpoints_.active()) {
      const FailpointHit hit = failpoints_.Eval("server.undo");
      if (hit.action == FailpointAction::kDrop) {
        continue;  // Injected bug: leak the forward image by skipping compensation.
      }
      if (hit.action == FailpointAction::kDelay) {
        co_await site_.sched().Delay(hit.delay);
      }
      if (!site_.up() || site_.incarnation() != inc) {
        co_return;
      }
    }
    const Lsn lsn = diskmgr_.log().Append(
        LogRecord::UndoUpdate(it->tid, name_, it->object, it->new_value, it->old_value));
    co_await diskmgr_.Write(name_, it->object, it->old_value, lsn);
  }
}

Async<RpcResult> DataServer::HandleAbortFamily(const Tid& top) {
  MarkConcluded(top.family);
  auto it = families_.find(top.family);
  if (it != families_.end()) {
    std::vector<UpdateEntry> updates = std::move(it->second.updates);
    families_.erase(it);
    co_await UndoUpdates(std::move(updates));
  }
  co_await site_.sched().Delay(config_.lock_cost);
  locks_.ReleaseFamily(top.family);
  ++counters_.aborts;
  co_return RpcResult{OkStatus(), {}};
}

Async<RpcResult> DataServer::HandleNestedCommit(const Tid& child, const Tid& parent) {
  auto it = families_.find(child.family);
  if (it != families_.end()) {
    for (auto& update : it->second.updates) {
      if (update.tid == child) {
        update.tid = parent;  // Anti-inheritance: effects now belong to the parent.
      }
    }
  }
  locks_.MoveToParent(child, parent);
  co_return RpcResult{OkStatus(), {}};
}

Async<RpcResult> DataServer::HandleAbortSubtree(const Tid& top,
                                                const std::vector<uint32_t>& serials) {
  auto is_victim = [&serials](const Tid& tid) {
    return std::find(serials.begin(), serials.end(), tid.serial) != serials.end();
  };
  auto it = families_.find(top.family);
  if (it != families_.end()) {
    std::vector<UpdateEntry> victims;
    auto& updates = it->second.updates;
    for (auto u = updates.begin(); u != updates.end();) {
      if (is_victim(u->tid)) {
        victims.push_back(std::move(*u));
        u = updates.erase(u);
      } else {
        ++u;
      }
    }
    co_await UndoUpdates(std::move(victims));
  }
  co_await site_.sched().Delay(config_.lock_cost);
  for (uint32_t serial : serials) {
    Tid victim = top;
    victim.serial = serial;
    locks_.ReleaseAll(victim);
  }
  ++counters_.aborts;
  co_return RpcResult{OkStatus(), {}};
}

}  // namespace camelot
