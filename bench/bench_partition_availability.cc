// Availability under partition: 2PC vs the non-blocking protocol when a
// partition isolates the coordinator at the exact window of vulnerability
// (commit record forced, COMMITs still in flight).
//
// One distributed transfer (coordinator at site 0, vaults at sites 1 and 2)
// runs under each protocol. A nemesis trigger on the coordinator's
// commit-force point installs the partition {0} | {1,2}, which heals 4 s
// later. We measure, at each prepared subordinate:
//   - decision latency: partition install -> the subordinate's outcome;
//   - whether the decision landed inside the fault window (availability);
//   - blocked periods / blocked time (lock-holding limbo, 2PC only);
//   - vault lock hold time (how long the blocked family kept others out).
//
// The paper's blocking claim, as numbers: 2PC subordinates cannot decide
// until the heal (decision latency ~ partition duration, locks held
// throughout), while NBC's connected majority quorum decides in a few
// hundred milliseconds and releases its locks with the partition still up.
//
// The last line is a machine-readable JSON summary for trend tracking.
#include <cstdio>
#include <string>

#include "src/harness/crash_explorer.h"
#include "src/harness/nemesis.h"
#include "src/harness/world.h"
#include "src/stats/table.h"

namespace camelot {
namespace {

constexpr SimDuration kPartitionHold = Sec(4.0);

struct ProtocolResult {
  bool commit_ok = false;
  SimTime partition_at = 0;
  SimTime heal_at = 0;
  SimTime decided_at[2] = {0, 0};  // Sites 1 and 2.
  uint64_t blocked_periods = 0;
  uint64_t blocked_time_us = 0;
  uint64_t lock_hold_us = 0;  // Vault servers at sites 1+2.
};

Async<void> Transfer(World* world, bool non_blocking, bool* ok) {
  AppClient app(world->site(0));
  const CommitOptions options =
      non_blocking ? CommitOptions::NonBlocking() : CommitOptions::Optimized();
  auto begin = co_await app.Begin();
  if (!begin.ok()) {
    co_return;
  }
  const Tid tid = *begin;
  auto a = co_await app.ReadInt(tid, "server:1", "vault");
  auto b = co_await app.ReadInt(tid, "server:2", "vault");
  if (!a.ok() || !b.ok()) {
    co_await app.Abort(tid);
    co_return;
  }
  co_await app.WriteInt(tid, "server:1", "vault", *a - 10);
  co_await app.WriteInt(tid, "server:2", "vault", *b + 10);
  *ok = (co_await app.Commit(tid, options)).ok();
}

// Samples the subordinates' decision counters until both have decided (or the
// deadline passes), pinning each site's first decision instant.
Async<void> WatchDecisions(World* world, ProtocolResult* out) {
  const SimTime deadline = world->sched().now() + Sec(30.0);
  while (world->sched().now() < deadline) {
    bool all_decided = true;
    for (int sub : {1, 2}) {
      const TranManCounters& c = world->site(sub).tranman().counters();
      if (c.committed + c.aborted > 0) {
        if (out->decided_at[sub - 1] == 0) {
          out->decided_at[sub - 1] = world->sched().now();
        }
      } else {
        all_decided = false;
      }
    }
    if (all_decided) {
      co_return;
    }
    co_await world->sched().Delay(Msec(2));
  }
}

ProtocolResult RunProtocol(bool non_blocking) {
  ProtocolResult out;
  // The explorers' tuning: zero jitter and fast protocol timers, so the run
  // is bit-deterministic and resolves in seconds of virtual time.
  World world(ExplorerWorldConfig(/*site_count=*/3, /*seed=*/1));
  for (int i = 0; i < 3; ++i) {
    world.AddServer(i, "server:" + std::to_string(i))
        ->CreateObjectForSetup("vault", EncodeInt64(1000));
  }

  Nemesis nemesis(world.sched(), world.net(), &world.failpoints());
  const std::string trigger =
      non_blocking ? "tm.nbc.commit_force.after@0#1" : "tm.2pc.commit_force.after@0#1";
  auto script = NemesisScript::Parse(trigger + "=partition:0|1,2;+" +
                                     std::to_string(kPartitionHold) + "=heal");
  CAMELOT_CHECK(script.ok());
  nemesis.set_on_apply([&world, &out](const NemesisEvent& ev) {
    if (ev.action == NemesisEvent::Action::kPartition) {
      out.partition_at = world.sched().now();
    } else if (ev.action == NemesisEvent::Action::kHeal) {
      out.heal_at = world.sched().now();
    }
  });
  CAMELOT_CHECK(nemesis.Install(*script).ok());

  world.sched().Spawn(Transfer(&world, non_blocking, &out.commit_ok));
  world.sched().Spawn(WatchDecisions(&world, &out));
  world.RunUntilIdle();
  world.failpoints().DisarmAll();

  for (int sub : {1, 2}) {
    const TranManCounters& c = world.site(sub).tranman().counters();
    out.blocked_periods += c.blocked_periods;
    out.blocked_time_us += c.blocked_time_us;
    out.lock_hold_us +=
        world.site(sub).server("server:" + std::to_string(sub))->locks().counters().total_hold_time_us;
  }
  return out;
}

double LatencyMs(const ProtocolResult& r, int sub) {
  if (r.decided_at[sub - 1] == 0 || r.partition_at == 0) {
    return -1.0;
  }
  return ToMs(r.decided_at[sub - 1] - r.partition_at);
}

bool DecidedInWindow(const ProtocolResult& r, int sub) {
  return r.decided_at[sub - 1] != 0 && r.heal_at != 0 && r.decided_at[sub - 1] < r.heal_at;
}

}  // namespace
}  // namespace camelot

int main() {
  using namespace camelot;

  std::printf("=== Availability under a coordinator-isolating partition ===\n");
  std::printf("(partition {0} | {1,2} installed at the coordinator's commit force,\n"
              " healed %.0f ms later; decision latency measured at the prepared\n"
              " subordinates, sites 1 and 2)\n\n",
              ToMs(kPartitionHold));

  const ProtocolResult two_phase = RunProtocol(/*non_blocking=*/false);
  const ProtocolResult nbc = RunProtocol(/*non_blocking=*/true);

  Table table({"PROTOCOL", "decision ms (s1)", "decision ms (s2)", "in window",
               "blocked periods", "blocked ms", "vault lock hold ms"});
  for (const auto* r : {&two_phase, &nbc}) {
    const bool is_nbc = (r == &nbc);
    const int in_window = (DecidedInWindow(*r, 1) ? 1 : 0) + (DecidedInWindow(*r, 2) ? 1 : 0);
    table.AddRow({is_nbc ? "non-blocking" : "2PC",
                  Table::Num(LatencyMs(*r, 1), 1), Table::Num(LatencyMs(*r, 2), 1),
                  std::to_string(in_window) + "/2",
                  std::to_string(r->blocked_periods),
                  Table::Num(r->blocked_time_us / 1000.0, 1),
                  Table::Num(r->lock_hold_us / 1000.0, 1)});
  }
  table.Print();

  std::printf("\n2PC subordinates sit prepared until the heal delivers the verdict:\n"
              "decision latency tracks the partition duration and the vault locks\n"
              "stay held throughout. The non-blocking quorum {1,2} runs takeover and\n"
              "decides with the partition still standing.\n\n");

  auto emit = [](const char* name, const ProtocolResult& r) {
    std::printf("{\"protocol\":\"%s\",\"commit_ok\":%s,"
                "\"decision_latency_ms\":[%.1f,%.1f],"
                "\"decided_in_window\":%d,"
                "\"blocked_periods\":%llu,\"blocked_time_ms\":%.1f,"
                "\"vault_lock_hold_ms\":%.1f}",
                name, r.commit_ok ? "true" : "false", LatencyMs(r, 1), LatencyMs(r, 2),
                (DecidedInWindow(r, 1) ? 1 : 0) + (DecidedInWindow(r, 2) ? 1 : 0),
                static_cast<unsigned long long>(r.blocked_periods),
                r.blocked_time_us / 1000.0, r.lock_hold_us / 1000.0);
  };
  std::printf("JSON: [");
  emit("2pc", two_phase);
  std::printf(",");
  emit("nbc", nbc);
  std::printf("]\n");
  return 0;
}
