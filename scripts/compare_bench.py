#!/usr/bin/env python3
"""Gate a bench run against its committed baseline.

Usage: compare_bench.py BASELINE.json CURRENT.json [--threshold=X]

Both files are single-line JSON objects written by `bench_<name> --json=PATH`
(bench/bench_json.h). The "bench" key picks the rule table below; the default
threshold is the table's own.

engine (BENCH_engine.json, host time, default threshold 0.25):
  1. Normalized throughput. Raw events/sec numbers move with the host, so each
     throughput metric is divided by that run's calibration_iters_per_sec (a
     pure-CPU xorshift spin measured in the same process) before comparing.
     A normalized drop of more than the threshold fails.
  2. Ladder-vs-heap speedup floors. The ratio of the production ladder queue
     to the preserved legacy binary heap is host-independent by construction
     (same process, same machine, same workload). The floors are set well
     below the committed trajectory so only a real engine regression — not
     bench noise — trips them.

overload (BENCH_overload.json, virtual time, default threshold 0.3): every
number is virtual-time goodput, so runs are deterministic per seed and
host-independent, and shifts mean the modeled system changed.
  1. Oracle booleans. Every `*_ok` metric in the current run must be 1 (the
     overload oracles held) and `collapse_confirmed` must be 1 (the
     shedding-disabled arm demonstrably collapsed).
  2. Goodput floors vs the baseline. Each `*_spike_goodput_tps` and
     `*_recovered_goodput_tps` present in BOTH files must not fall more than
     the threshold below the committed value. Buckets are small integers over
     short virtual windows, so the threshold absorbs one-commit quantization
     while still catching a real capacity regression.
  3. A/B separation. For every shedding variant in the current run, the
     collapse arm's p99 must exceed that variant's p99 by at least 2x —
     admission control must visibly bound latency that the collapse arm does
     not.

CI runs this in the perf-smoke job against `bench_engine --quick` and
`bench_overload --quick`. To land a change that legitimately shifts a
baseline (an engine trade-off, a workload change in the bench itself, or a
protocol cost change that moves the overload knee), apply the
`perf-baseline-reset` label to the PR — the job is skipped — and commit a
refreshed BENCH_<bench>.json from a full (non-quick) run; see EXPERIMENTS.md.
"""

import json
import sys

RULES = {
    "engine": {
        "threshold": 0.25,
        "gate": "perf gate",
        # Floors divide both runs by this metric (and print per 1e6 of it).
        "normalize": "calibration_iters_per_sec",
        "what": "normalized throughput",
        # A floor metric missing from either file fails the gate.
        "floors": lambda base: [
            "post_drain_ladder_eps",
            "timer_churn_ladder_eps",
            "pingpong_rounds_per_sec",
            "channel_storm_sends_per_sec",
            "world_commits_per_host_sec",
        ],
        "required": True,
        "must_be_one": lambda name: False,
        # (numerator, denominator, floor): machine-independent speedup gates.
        "ratios": [
            ("post_drain_ladder_eps", "post_drain_heap_eps", 4.0),
            ("timer_churn_ladder_eps", "timer_churn_heap_eps", 4.0),
        ],
        "separation": None,
    },
    "overload": {
        "threshold": 0.3,
        "gate": "overload perf gate",
        "normalize": None,
        "what": "goodput",
        # The collapse arm is SUPPOSED to crater; quick runs lack variants.
        "floors": lambda base: [
            name for name in sorted(base)
            if name.endswith(("_spike_goodput_tps", "_recovered_goodput_tps"))
            and not name.startswith("collapse_")
        ],
        "required": False,
        "must_be_one": lambda name: name.endswith("_ok") or name == "collapse_confirmed",
        "ratios": [],
        # (reference, suffix of the gated metrics, excluded prefixes, factor)
        "separation": ("collapse_p99_ms", "_p99_ms", ("collapse_", "storm_"), 2.0),
    },
}


def load(path):
    with open(path) as f:
        return json.loads(f.read())


def main(argv):
    threshold = None
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        sys.exit(__doc__)
    base, cur = load(paths[0]), load(paths[1])
    bench = base.get("bench")
    if bench not in RULES:
        sys.exit(f"{paths[0]}: unknown bench {bench!r} (known: {', '.join(sorted(RULES))})")
    if cur.get("bench") != bench:
        sys.exit(f"{paths[1]}: bench {cur.get('bench')!r} does not match baseline {bench!r}")
    rules = RULES[bench]
    if threshold is None:
        threshold = rules["threshold"]
    norm = rules["normalize"]
    if norm:
        for path, data in zip(paths, (base, cur)):
            if data.get(norm, 0.0) <= 0:
                sys.exit(f"{path}: missing or zero {norm}")

    failures = []
    for name, value in sorted(cur.items()):
        if rules["must_be_one"](name) and value != 1:
            failures.append(f"{name}: expected 1, got {value}")

    scale, suffix = (1e6, "/calib") if norm else (1.0, "")
    print(f"{'metric':<34} {'base' + suffix:>12} {'cur' + suffix:>12} {'delta':>8}")
    for name in rules["floors"](base):
        if name not in base or name not in cur:
            if rules["required"]:
                failures.append(f"{name}: missing from one of the files")
            continue
        b, c = base[name], cur[name]
        if norm:
            b, c = b / base[norm], c / cur[norm]
        if b <= 0:
            continue
        delta = (c - b) / b
        flag = ""
        if delta < -threshold:
            failures.append(
                f"{name}: {rules['what']} fell {-delta:.1%} (limit {threshold:.0%})")
            flag = "  <-- FAIL"
        print(f"{name:<34} {b * scale:>12.3f} {c * scale:>12.3f} {delta:>+7.1%}{flag}")

    for num, den, floor in rules["ratios"]:
        if num not in cur or den not in cur or cur[den] <= 0:
            failures.append(f"{num}/{den}: missing from current run")
            continue
        ratio = cur[num] / cur[den]
        flag = ""
        if ratio < floor:
            failures.append(f"{num}/{den}: speedup {ratio:.2f}x below floor {floor}x")
            flag = "  <-- FAIL"
        print(f"{num + '/' + den:<34} {'':>12} {f'{ratio:.2f}x':>12} {'>=' + str(floor):>8}{flag}")

    if rules["separation"]:
        ref, gated, excluded, factor = rules["separation"]
        ref_value = cur.get(ref, 0)
        for name in sorted(cur):
            if not name.endswith(gated) or name.startswith(excluded):
                continue
            ratio = ref_value / cur[name] if cur[name] > 0 else 0
            flag = ""
            if ratio < factor:
                failures.append(
                    f"{ref}/{name}: separation {ratio:.2f}x below {factor:g}x "
                    "(admission control no longer bounds latency the collapse arm "
                    "does not)")
                flag = "  <-- FAIL"
            print(f"{ref + '/' + name:<34} {'':>12} {f'{ratio:.2f}x':>12} "
                  f"{f'>={factor:g}x':>8}{flag}")

    if failures:
        print(f"\n{rules['gate']} FAILED:")
        for f in failures:
            print(f"  - {f}")
        print("\nIf this shift is intentional, label the PR `perf-baseline-reset`")
        print(f"and refresh BENCH_{bench}.json from a full run (see EXPERIMENTS.md).")
        return 1
    print(f"\n{rules['gate']} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
