#!/usr/bin/env python3
"""Steadiness check: two sets of runs of each workload, back to back.

    python3 perfbench/steadiness.py [--workloads ld-cdss,...]

For each workload, runs `run.py --trace 0` on seeds 1..RUNS once per set,
SETS sets, with `run_seconds` from BENCHMARK.json.  For each end-to-end
metric it prints every set's median and quartiles (statistics.quantiles,
n=4) and the spread, (q3 - q1) / median.  A set is steady when each
spread is within the metric's bound (and "tight" below a third of it);
the sets agree when the second set's median is not worse than the
first's by more than the bound.  The same figures for the raw host-second
medians (`raw_wall_median_s`, `raw_setup_median_s`) follow, ungated, to
show what the host-speed normalization does.  Values go to
_work/steadiness-*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10
SETS = 2
RAW = {"raw_wall_median_s": "wall_s", "raw_setup_median_s": "setup_s"}


def run_once(command, workload, seed, seconds):
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    values = {k: m["value"] for k, m in result["metrics"].items()}
    with open(BENCH_DIR / "_work" / f"result-{workload}-seed{seed}-trace0.json",
              encoding="utf-8") as fh:
        reported = json.load(fh)["reported"]
    values.update({k: reported[k]["value"] for k in RAW})
    return values


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def worse_by(metric, first, later):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    by_name = {m["name"]: m for m in bench["end_to_end"]}
    # The raw rows borrow the gated metric's direction and bound, for
    # comparison only: they do not count toward the verdict.
    metrics = bench["end_to_end"] + [dict(by_name[gated], name=name, raw=True)
                                     for name, gated in RAW.items()]
    raw = {}
    all_ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(SETS):
            values = []
            for seed in range(1, RUNS + 1):
                values.append(run_once(bench["command"], workload, seed, bench["run_seconds"]))
                print(f"{workload} set {s + 1} seed {seed}: "
                      + " ".join(f"{k}={v:.5g}" for k, v in values[-1].items()), flush=True)
            sets.append(values)
        raw[workload] = sets
        print(f"\n{workload}: {SETS} sets of {RUNS} runs")
        print(f"  {'metric':<18} {'set':>3} {'q1':>11} {'median':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6} {'steady':>6} {'worse':>7} {'agree':>5}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            first_median = None
            for s, values in enumerate(sets):
                q1, med, q3, sp = spread([v[name] for v in values])
                steady = sp <= bound
                tight = "tight" if sp < bound / 3 else ("yes" if steady else "NO")
                if first_median is None:
                    first_median, worse, agree = med, 0.0, True
                else:
                    worse = worse_by(metric, first_median, med)
                    agree = worse <= bound
                if not metric.get("raw"):
                    all_ok &= steady and agree
                print(f"  {name:<18} {s + 1:>3} {q1:>11.5g} {med:>11.5g} {q3:>11.5g} "
                      f"{sp:>7.3f} {bound:>6.3f} {tight:>6} {worse:>+7.3f} "
                      f"{'yes' if agree else 'NO':>5}")
        print(flush=True)

    out = BENCH_DIR / "_work"
    out.mkdir(exist_ok=True)
    path = out / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": RUNS, "sets": SETS, "values": raw}, fh, indent=1)
    print(f"{'all sets steady and in agreement' if all_ok else 'NOT steady'}; "
          f"values in {path.relative_to(ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
