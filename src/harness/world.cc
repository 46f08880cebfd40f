#include "src/harness/world.h"

#include "src/base/logging.h"
#include "src/stats/table.h"

namespace camelot {

CamelotSite::CamelotSite(Scheduler& sched, Network& net, NameService& names, SiteId id,
                         const WorldConfig& config, FailpointRegistry& failpoints,
                         CostLedger& cost_ledger, HistoryRecorder& history)
    : site_(sched, net, id, config.ipc),
      netmsg_(site_, net),
      names_(names),
      comman_(site_, netmsg_, names),
      log_(sched, config.log),
      diskmgr_(sched, log_, config.disk),
      tranman_(site_, net, comman_, log_, config.tranman),
      recovery_(site_, diskmgr_, log_, tranman_) {
  site_.AddCrashListener([this] {
    log_.OnCrash();
    diskmgr_.OnCrash();
  });
  // Every component that hosts failpoints shares one per-site handle into the
  // world's registry; a kCrash trigger takes this whole site down.
  const Failpoints handle(
      &failpoints, id, [this] { return site_.sched().now(); },
      [this] { return site_.up(); },
      [this] {
        if (site_.up()) {
          site_.Crash();
        }
      });
  log_.set_failpoints(handle);
  diskmgr_.set_failpoints(handle);
  tranman_.set_failpoints(handle);
  recovery_.set_failpoints(handle);
  failpoint_handle_ = handle;
  // Components record through their Site, which stamps this site's id into
  // the world's ledger and history.
  site_.set_recorders(&cost_ledger, &history);
  // Media recovery: a CRC-failing data page (foreground read or background
  // scrub) is rebuilt by redoing its history from the log.
  diskmgr_.set_media_repair([this](std::string segment, std::string object) {
    return recovery_.RebuildPage(std::move(segment), std::move(object));
  });
  diskmgr_.StartScrubber();
}

void CamelotSite::RecordRecovery(const RecoveryReport& report) {
  last_recovery_ = report;
  ++recovery_totals_.recoveries;
  if (!report.status.ok()) {
    ++recovery_totals_.failed_recoveries;
  }
  recovery_totals_.frames_salvaged += report.frames_salvaged;
  recovery_totals_.pages_repaired += report.pages_repaired;
  recovery_totals_.repair_failures += report.repair_failures;
}

DataServer* CamelotSite::AddServer(const std::string& name, ServerConfig config) {
  auto server = std::make_unique<DataServer>(site_, name, diskmgr_, names_, config);
  DataServer* raw = server.get();
  raw->set_failpoints(failpoint_handle_);
  servers_.emplace(name, std::move(server));
  return raw;
}

DataServer* CamelotSite::server(const std::string& name) {
  auto it = servers_.find(name);
  return it == servers_.end() ? nullptr : it->second.get();
}

std::map<std::string, DataServer*> CamelotSite::ServerMap() {
  std::map<std::string, DataServer*> out;
  for (auto& [name, server] : servers_) {
    out.emplace(name, server.get());
  }
  return out;
}

World::World(WorldConfig config)
    : config_(config), sched_(config.seed), net_(sched_, config.net) {
  for (int i = 0; i < config.site_count; ++i) {
    sites_.push_back(std::make_unique<CamelotSite>(sched_, net_, names_,
                                                   SiteId{static_cast<uint32_t>(i)}, config_,
                                                   failpoints_, cost_ledger_, history_));
  }
}

DataServer* World::AddServer(int site_index, const std::string& name) {
  return site(site_index).AddServer(name, config_.server);
}

void World::Crash(int site_index) { site(site_index).site().Crash(); }

void World::Restart(int site_index) {
  CamelotSite& s = site(site_index);
  s.site().Restart();
  sched_.Spawn([](CamelotSite* cs) -> Async<void> {
    RecoveryReport report = co_await cs->recovery().Recover(cs->ServerMap());
    if (!cs->site().up()) {
      // A failpoint crashed the site mid-recovery: the interrupted pass does
      // not count as a recovery; the site stays down until restarted again.
      co_return;
    }
    cs->RecordRecovery(report);
    if (!report.status.ok()) {
      // Interior log corruption: the durable state is not trustworthy.
      // Refuse service (stay down) rather than run on a silently truncated
      // history — a real installation would page an operator for the archive.
      cs->site().Crash();
      co_return;
    }
    cs->tranman().AnnounceRecovered();
    cs->diskmgr().StartScrubber();
  }(&s));
}

std::string World::StatsReport() {
  Table table({"METRIC"});
  std::vector<std::string> headers{"METRIC"};
  for (size_t i = 0; i < sites_.size(); ++i) {
    headers.push_back("site " + std::to_string(i));
  }
  Table report(headers);
  auto row = [&](const std::string& name, auto getter) {
    std::vector<std::string> cells{name};
    for (auto& site : sites_) {
      cells.push_back(std::to_string(getter(*site)));
    }
    report.AddRow(cells);
  };
  row("up", [](CamelotSite& s) {
    return static_cast<uint64_t>(s.site().up() ? 1 : 0);
  });
  row("txns begun", [](CamelotSite& s) {
    return s.tranman().counters().begun;
  });
  row("txns committed", [](CamelotSite& s) {
    return s.tranman().counters().committed;
  });
  row("txns aborted", [](CamelotSite& s) {
    return s.tranman().counters().aborted;
  });
  row("prepares handled", [](CamelotSite& s) {
    return s.tranman().counters().prepares_handled;
  });
  row("read-only votes", [](CamelotSite& s) {
    return s.tranman().counters().read_only_votes;
  });
  row("blocked periods", [](CamelotSite& s) {
    return s.tranman().counters().blocked_periods;
  });
  row("blocked time (us)", [](CamelotSite& s) {
    return s.tranman().counters().blocked_time_us;
  });
  row("stuck families", [](CamelotSite& s) {
    return s.tranman().counters().stuck_families;
  });
  row("duplicate effects", [](CamelotSite& s) {
    return s.tranman().counters().duplicate_effects;
  });
  row("lock hold time (us)", [](CamelotSite& s) {
    uint64_t total = 0;
    for (auto& [name, server] : s.ServerMap()) {
      total += server->locks().counters().total_hold_time_us;
    }
    return total;
  });
  row("takeovers", [](CamelotSite& s) {
    return s.tranman().counters().takeovers;
  });
  row("orphans aborted", [](CamelotSite& s) {
    return s.tranman().counters().orphans_aborted;
  });
  row("heuristic resolutions", [](CamelotSite& s) {
    return s.tranman().counters().heuristic_resolutions;
  });
  row("heuristic damage", [](CamelotSite& s) {
    return s.tranman().counters().heuristic_damage;
  });
  row("live families", [](CamelotSite& s) {
    return static_cast<uint64_t>(s.tranman().live_family_count());
  });
  row("log appends", [](CamelotSite& s) {
    return s.log().counters().appends;
  });
  row("log force requests", [](CamelotSite& s) {
    return s.log().counters().force_requests;
  });
  row("log disk writes", [](CamelotSite& s) {
    return s.log().counters().disk_writes;
  });
  row("log records batched", [](CamelotSite& s) {
    return s.log().counters().records_batched;
  });
  row("data reads (hit)", [](CamelotSite& s) {
    return s.diskmgr().counters().reads_hit;
  });
  row("data reads (miss)", [](CamelotSite& s) {
    return s.diskmgr().counters().reads_miss;
  });
  row("pool evictions", [](CamelotSite& s) {
    return s.diskmgr().counters().evictions;
  });
  row("log mirror writes", [](CamelotSite& s) {
    return s.log().counters().mirror_writes;
  });
  row("log torn writes", [](CamelotSite& s) {
    return s.log().counters().torn_writes_injected;
  });
  row("log frames salvaged", [](CamelotSite& s) {
    return s.log().counters().frames_salvaged;
  });
  row("data crc failures", [](CamelotSite& s) {
    return s.diskmgr().counters().crc_failures_detected;
  });
  row("data pages repaired", [](CamelotSite& s) {
    return s.diskmgr().counters().pages_repaired;
  });
  row("pages scrubbed", [](CamelotSite& s) {
    return s.diskmgr().counters().pages_scrubbed;
  });
  row("restart pages rebuilt", [](CamelotSite& s) {
    return static_cast<uint64_t>(s.recovery_totals().pages_repaired);
  });
  row("pool queued events", [](CamelotSite& s) {
    return s.tranman().pool().queued_events();
  });
  row("pool wait p99 (us)", [](CamelotSite& s) {
    return static_cast<uint64_t>(s.tranman().pool().queued_time_us().Percentile(99));
  });
  row("pool depth hwm", [](CamelotSite& s) {
    return static_cast<uint64_t>(s.tranman().pool().depth_high_watermark());
  });
  row("admission rejects", [](CamelotSite& s) {
    return s.tranman().counters().overload_rejects;
  });
  row("deadline shed", [](CamelotSite& s) {
    return s.tranman().counters().deadline_shed;
  });
  row("prepares shed", [](CamelotSite& s) {
    return s.tranman().counters().prepares_shed;
  });
  row("off-path dropped", [](CamelotSite& s) {
    return s.tranman().counters().offpath_dropped;
  });
  row("server deadline rejects", [](CamelotSite& s) {
    uint64_t total = 0;
    for (auto& [name, server] : s.ServerMap()) {
      total += server->counters().deadline_rejects;
    }
    return total;
  });
  row("rpc retransmits", [](CamelotSite& s) {
    return s.netmsg().retransmits();
  });
  row("rpc retries suppressed", [](CamelotSite& s) {
    return s.netmsg().retransmits_suppressed();
  });
  std::string out = report.Render();
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "network: %llu datagrams sent, %llu delivered, %llu lost, %llu dup'd, "
                "%llu reordered, %llu multicasts\n",
                static_cast<unsigned long long>(net_.counters().datagrams_sent),
                static_cast<unsigned long long>(net_.counters().datagrams_delivered),
                static_cast<unsigned long long>(net_.counters().datagrams_lost),
                static_cast<unsigned long long>(net_.counters().datagrams_duplicated),
                static_cast<unsigned long long>(net_.counters().datagrams_reordered),
                static_cast<unsigned long long>(net_.counters().multicasts_sent));
  out += buf;
  return out;
}

// --- AppClient -------------------------------------------------------------------

Async<Result<Tid>> AppClient::Begin(Tid parent) {
  RpcResult result = co_await home_.site().CallLocal(kTranManServiceName, kTmBegin,
                                                     EncodeBeginRequest(parent),
                                                     RpcContext{home_.site().id(), parent,
                                                                deadline_},
                                                     /*to_data_server=*/false);
  if (!result.status.ok()) {
    co_return result.status;
  }
  ByteReader r(result.body);
  const Tid tid = r.Transaction();
  if (!r.ok()) {
    co_return CorruptionError("bad begin response");
  }
  co_return tid;
}

Async<Status> AppClient::Commit(const Tid& tid, CommitOptions options) {
  RpcResult result = co_await home_.site().CallLocal(kTranManServiceName, kTmCommit,
                                                     EncodeCommitRequest(tid, options),
                                                     RpcContext{home_.site().id(), tid, deadline_},
                                                     /*to_data_server=*/false);
  co_return result.status;
}

Async<Status> AppClient::Abort(const Tid& tid) {
  RpcResult result = co_await home_.site().CallLocal(kTranManServiceName, kTmAbort,
                                                     EncodeTidOnly(tid),
                                                     RpcContext{home_.site().id(), tid, deadline_},
                                                     /*to_data_server=*/false);
  co_return result.status;
}

Async<Result<Bytes>> AppClient::Read(const Tid& tid, const std::string& server,
                                     const std::string& object) {
  RpcResult result =
      co_await home_.comman().Call(server, kSrvRead, EncodeObjectRequest(tid, object), tid,
                                   /*trace=*/nullptr, deadline_);
  if (!result.status.ok()) {
    co_return result.status;
  }
  ByteReader r(result.body);
  Bytes value = r.Blob();
  if (!r.ok()) {
    co_return CorruptionError("bad read response");
  }
  co_return value;
}

Async<Status> AppClient::Write(const Tid& tid, const std::string& server,
                               const std::string& object, Bytes value) {
  RpcResult result = co_await home_.comman().Call(server, kSrvWrite,
                                                  EncodeWriteRequest(tid, object, value), tid,
                                                  /*trace=*/nullptr, deadline_);
  co_return result.status;
}

Async<Result<int64_t>> AppClient::ReadInt(const Tid& tid, const std::string& server,
                                          const std::string& object) {
  auto result = co_await Read(tid, server, object);
  if (!result.ok()) {
    co_return result.status();
  }
  co_return DecodeInt64(*result);
}

Async<Status> AppClient::WriteInt(const Tid& tid, const std::string& server,
                                  const std::string& object, int64_t value) {
  Status status = co_await Write(tid, server, object, EncodeInt64(value));
  co_return status;
}

}  // namespace camelot
