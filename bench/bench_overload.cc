// Overload robustness benchmark with a committed goodput trajectory.
//
// Runs the OverloadExplorer's baseline -> 5x spike -> recovery profile for
// each commit variant with admission control ON, plus one shedding-disabled
// collapse arm and one nemesis latency storm, and reports the virtual-time
// goodput numbers:
//
//   <variant>_measured_capacity_tps   usable knee from the calibration run
//   <variant>_baseline_goodput_tps    in-deadline commits/sec before the spike
//   <variant>_spike_goodput_tps       goodput DURING the 5x overload
//   <variant>_recovered_goodput_tps   background goodput after the spike ends
//   <variant>_p99_ms                  committed-txn latency p99 over the run
//   <variant>_shed_total              admission rejects + expiry sheds
//   <variant>_ok                      1 if every overload oracle held
//   collapse_*                        the same profile with shedding disabled
//   collapse_confirmed                1 if ExpectCollapse() found real collapse
//   storm_*                           congestion storm instead of a load spike
//
// Everything here is measured in VIRTUAL time, so the numbers are
// deterministic for a given seed and move only when the modeled system
// changes — no host-speed calibration is needed. Flags: --quick (fewer
// variants, used by the CI perf smoke job) and --json=PATH (see
// bench_json.h). scripts/compare_bench.py gates CI on goodput regressions vs
// the committed BENCH_overload.json baseline.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/harness/overload_oracle.h"
#include "src/harness/replay.h"
#include "src/stats/table.h"

namespace camelot {
namespace {

// JSON keys must not contain '-': "2pc-unopt" -> "2pc_unopt".
std::string KeyName(std::string name) {
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

}  // namespace
}  // namespace camelot

int main(int argc, char** argv) {
  using namespace camelot;
  BenchFlags flags;
  if (!ParseBenchFlags(argc, argv, &flags)) {
    return 2;
  }
  const bool quick = flags.quick;

  std::vector<Metric> metrics;
  auto add = [&metrics](const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
    return value;
  };

  std::printf("=== Overload benchmarks (%s) ===\n\n", quick ? "quick" : "full");

  const std::vector<const char*> variants =
      quick ? std::vector<const char*>{"2pc", "nbc"}
            : std::vector<const char*>{"2pc", "2pc-unopt", "2pc-int", "nbc"};

  bool all_ok = true;
  for (const char* name : variants) {
    OverloadExplorerConfig cfg;
    cfg.variant = *ParseProtocolName(name);
    const OverloadRunResult r = OverloadExplorer(cfg).Run();
    const std::string k = KeyName(name);
    add(k + "_measured_capacity_tps", r.measured_capacity_tps, "txn/s");
    add(k + "_baseline_goodput_tps", r.baseline_goodput_tps, "txn/s");
    add(k + "_spike_goodput_tps", r.spike_goodput_tps, "txn/s");
    add(k + "_recovered_goodput_tps", r.recovered_goodput_tps, "txn/s");
    add(k + "_p99_ms", r.p99_ms, "ms");
    add(k + "_shed_total",
        static_cast<double>(r.overload_rejects + r.deadline_shed + r.prepares_shed +
                            r.background.shed + r.spike.shed),
        "events");
    add(k + "_ok", r.ok ? 1 : 0, "bool");
    if (!r.ok) {
      all_ok = false;
      std::fprintf(stderr, "variant %s failed its overload oracles:\n%s\n", name,
                   r.Explain().c_str());
    }
  }

  // The A/B arm: identical load, shedding machinery off. The bench asserts it
  // demonstrably collapses, same as the oracle test.
  {
    OverloadExplorerConfig cfg;
    cfg.shedding = false;
    const OverloadRunResult r = OverloadExplorer(cfg).Run();
    add("collapse_spike_goodput_tps", r.spike_goodput_tps, "txn/s");
    add("collapse_recovered_goodput_tps", r.recovered_goodput_tps, "txn/s");
    add("collapse_p99_ms", r.p99_ms, "ms");
    const auto held = OverloadExplorer::ExpectCollapse(r);
    add("collapse_confirmed", held.empty() ? 1 : 0, "bool");
    if (!held.empty()) {
      all_ok = false;
      for (const std::string& v : held) {
        std::fprintf(stderr, "collapse arm: %s\n", v.c_str());
      }
    }
  }

  if (!quick) {
    OverloadExplorerConfig cfg;
    const OverloadRunResult r = OverloadExplorer(cfg).RunLatencyStorm();
    add("storm_recovered_goodput_tps", r.recovered_goodput_tps, "txn/s");
    add("storm_p99_ms", r.p99_ms, "ms");
    add("storm_ok", r.ok ? 1 : 0, "bool");
    if (!r.ok) {
      all_ok = false;
      std::fprintf(stderr, "latency storm failed its oracles:\n%s\n",
                   r.Explain().c_str());
    }
  }

  Table table({"METRIC", "VALUE", "UNIT"});
  for (const Metric& m : metrics) {
    table.AddRow({m.name, Table::Num(m.value, 2), m.unit});
  }
  table.Print();

  if (!EmitJson("overload", flags, metrics)) {
    return 1;
  }
  return all_ok ? 0 : 1;
}
