// Overhead of the Jepsen-style isolation harness: the same fault-free bank
// workload (src/harness/bank_workload.h) runs twice from one seed — once with
// the HistoryRecorder disabled (the production-shaped baseline) and once with
// every read/write/commit/abort recorded — and then the IsolationOracle
// replays the recorded history.
//
// Reported per run:
//   - host wall-clock for the simulation and events simulated per host second
//     (Site::RecordServed and Site::RecordOutcome sit on the DataServer and
//     TranMan hot paths, so this is where recording overhead shows up; off,
//     each is one branch);
//   - history events captured;
//   - mean virtual commit latency seen by the clients (must be identical in
//     both runs: recording must never perturb the simulation's timeline);
//   - host wall-clock of IsolationOracle::Check over the recorded history.
//
// The last line is a machine-readable JSON summary for trend tracking. The
// exit status is non-zero unless both runs share one virtual timeline and the
// oracle passes the recorded history.
#include <chrono>
#include <cstdio>

#include "src/harness/bank_workload.h"
#include "src/harness/isolation_oracle.h"
#include "src/harness/world.h"
#include "src/stats/table.h"

namespace camelot {
namespace {

BankWorkloadConfig BenchBankConfig() {
  BankWorkloadConfig bank;
  bank.accounts_per_site = 4;
  bank.clients = 6;
  bank.transfers_per_client = 50;
  bank.rng_seed = 7;
  return bank;
}

struct BenchResult {
  double sim_wall_ms = 0;
  uint64_t sim_events = 0;
  size_t history_events = 0;
  int committed = 0;
  int aborted = 0;
  double mean_commit_latency_ms = 0;
  SimTime virtual_end = 0;
  // Recorder-on run only.
  double oracle_wall_ms = 0;
  bool oracle_ok = false;
  size_t reads_checked = 0;
};

double HostMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

BenchResult RunBank(bool record) {
  BenchResult out;
  WorldConfig w;
  w.site_count = 3;
  w.seed = 42;
  World world(w);
  world.history().set_enabled(record);
  const BankWorkloadConfig bank = BenchBankConfig();
  SetupBank(world, bank);
  BankWorkloadStats stats;
  SpawnBankClients(world, bank, &stats);

  const auto start = std::chrono::steady_clock::now();
  out.sim_events = world.sched().RunUntilIdle(/*max_events=*/50u * 1000 * 1000);
  out.sim_wall_ms = HostMs(start);

  out.history_events = world.history().size();
  out.committed = stats.committed;
  out.aborted = stats.aborted;
  if (stats.committed > 0) {
    out.mean_commit_latency_ms = ToMs(stats.commit_latency_total) / stats.committed;
  }
  out.virtual_end = world.sched().now();

  if (record) {
    const auto check_start = std::chrono::steady_clock::now();
    const IsolationReport report = IsolationOracle::Check(world.history().events());
    out.oracle_wall_ms = HostMs(check_start);
    out.oracle_ok = report.ok();
    out.reads_checked = report.reads_checked;
    if (!report.ok()) {
      std::printf("ORACLE FAILURE (bench world is supposed to be fault-free):\n%s",
                  report.Explain().c_str());
    }
  }
  return out;
}

double EventsPerSec(const BenchResult& r) {
  return r.sim_wall_ms > 0 ? r.sim_events / (r.sim_wall_ms / 1000.0) : 0;
}

}  // namespace
}  // namespace camelot

int main() {
  using namespace camelot;

  const BankWorkloadConfig bank = BenchBankConfig();
  std::printf("=== History-recording overhead on the bank workload ===\n");
  std::printf("(%d clients x %d transfers over %d accounts/site, fault-free,\n"
              " identical seed; 'off' disables the HistoryRecorder, 'on' records\n"
              " every operation and then runs IsolationOracle::Check)\n\n",
              bank.clients, bank.transfers_per_client, bank.accounts_per_site);

  const BenchResult off = RunBank(/*record=*/false);
  const BenchResult on = RunBank(/*record=*/true);

  Table table({"RECORDER", "sim wall ms", "events/s", "history events", "committed",
               "mean commit ms (virtual)", "oracle ms"});
  for (const auto* r : {&off, &on}) {
    const bool is_on = (r == &on);
    table.AddRow({is_on ? "on" : "off", Table::Num(r->sim_wall_ms, 1),
                  Table::Num(EventsPerSec(*r), 0), std::to_string(r->history_events),
                  std::to_string(r->committed), Table::Num(r->mean_commit_latency_ms, 3),
                  is_on ? Table::Num(r->oracle_wall_ms, 1) : "-"});
  }
  table.Print();

  // Recording must be timeline-invisible: the virtual clock and the commit
  // outcomes are part of the determinism contract, not just a nicety.
  const bool timeline_identical = off.virtual_end == on.virtual_end &&
                                  off.committed == on.committed &&
                                  off.aborted == on.aborted &&
                                  off.sim_events == on.sim_events;
  std::printf("\ntimeline identical across runs: %s%s\n",
              timeline_identical ? "yes" : "NO — recorder perturbed the simulation",
              on.oracle_ok ? "" : " (and the oracle flagged a fault-free run!)");

  auto emit = [](const char* name, const BenchResult& r, bool with_oracle) {
    std::printf("{\"recorder\":\"%s\",\"sim_wall_ms\":%.2f,\"events_per_sec\":%.0f,"
                "\"history_events\":%zu,\"committed\":%d,\"aborted\":%d,"
                "\"mean_commit_latency_ms\":%.3f",
                name, r.sim_wall_ms, EventsPerSec(r), r.history_events, r.committed,
                r.aborted, r.mean_commit_latency_ms);
    if (with_oracle) {
      std::printf(",\"oracle_wall_ms\":%.2f,\"oracle_ok\":%s,\"reads_checked\":%zu",
                  r.oracle_wall_ms, r.oracle_ok ? "true" : "false", r.reads_checked);
    }
    std::printf("}");
  };
  std::printf("JSON: [");
  emit("off", off, /*with_oracle=*/false);
  std::printf(",");
  emit("on", on, /*with_oracle=*/true);
  std::printf("]\n");
  return (timeline_identical && on.oracle_ok) ? 0 : 1;
}
