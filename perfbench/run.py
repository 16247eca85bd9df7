#!/usr/bin/env python3
"""Outside-in benchmark for cdss-sim.

    python3 perfbench/run.py --workload ld-cdss --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the simulator is imported from
`src/`.  `--seed n` picks ten consecutive simulation seeds from the
reference pool (seed 1 gives 1..10).  With `--trace 0` the workload runs
untraced in a single-client closed loop (each run or campaign starts
after the previous one returns) for at least `--seconds`, and the
end-to-end metrics are printed, in seconds at reference host speed (see
`measure_untraced`).  With `--trace 1` traced and untraced
passes over the seed set alternate, and the per-layer metrics are
printed.  `--workload all` runs every workload, each in its own process.

Every run's outputs are checked against `reference.json`; a run that
raises, reports ok=False or disagrees with the reference counts as
failed.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layers
import reference as ref

ROOT = ref.ROOT
WORK = ref.WORK
SCENARIO = ROOT / ref.SCENARIO
SETUP_REPEATS = 15
# The host-speed probe's time on an undisturbed host of the kind this
# benchmark was built on; it defines one second at reference speed and
# must never change.  One probe brackets each run and each setup sample;
# CAMPAIGN_PROBES bracket each campaign.
PROBE_REF_S = 0.025
CAMPAIGN_PROBES = 8


@dataclass(frozen=True)
class Workload:
    cases: Tuple[int, ...]
    campaign: bool


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "ld-cdss": Workload((2,), False),
    "hd-tnonly": Workload((3,), False),
    "campaign": Workload((1, 2, 3, 4), True),
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import cdss_sim from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cdss_sim" / "__init__.py").is_file() or not SCENARIO.is_file():
        fail(f"no cdss_sim sources or {ref.SCENARIO} under {ROOT}; "
             "run from the root of a cdss-sim checkout")
    sys.path.insert(0, str(src))
    import cdss_sim
    import cdss_sim.engine
    import cdss_sim.scenario

    if Path(cdss_sim.__file__).resolve().parent != (src / "cdss_sim").resolve():
        fail(f"imported cdss_sim from {cdss_sim.__file__}, not from {src}")
    return cdss_sim


def machine_record() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "src_lines": src_lines,
    }


def tail_percentile(samples: List[float]) -> Tuple[float, float]:
    """(value, percentile): p90 from 100 samples up; below that the highest
    nearest-rank percentile with ten samples beyond it; the maximum when
    there are ten samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 100:
        k = math.ceil(0.9 * n)
    elif n > 10:
        k = n - 10
    else:
        k = n
    return ordered[k - 1], 100.0 * k / n


# ---------------------------------------------------------------------------
# output checks

@dataclass
class Checker:
    """Compares each run's outputs with the stored reference."""

    reference: dict
    attempted: int = 0
    failed: int = 0
    files_identical: int = 0
    files_total: int = 0
    problems: List[str] = field(default_factory=list)

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check_run(self, case_id: int, seed: int, files: Optional[Dict[str, str]],
                  error: Optional[str] = None) -> None:
        """Count one run, and count it failed unless it matches the reference."""
        self.attempted += 1
        key = ref.run_key(case_id, seed)
        want = self.reference["runs"][key]
        bad = []
        if error is not None:
            bad = [error]
        else:
            try:
                stats = ref.run_stats(files)
                bad = ref.stats_mismatches(stats, want["stats"])
            except (OSError, KeyError, ValueError) as exc:
                bad = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
            for artifact, digest in want["files"].items():
                self.files_total += 1
                path = files.get(artifact) if files else None
                if path and os.path.exists(path) and ref.sha256_file(path) == digest:
                    self.files_identical += 1
                elif artifact in ref.EXACT_FILES:
                    bad.append(f"{artifact} file differs from its reference digest")
        if bad:
            self.failed += 1
            self.note(f"run {key}: " + "; ".join(bad))

    def check_campaign(self, result, cases, seeds) -> None:
        """Check per-run outputs, then campaign_totals.csv and pooled CDFs."""
        for record in result.records:
            self.check_run(record.case_id, record.seed, record.files,
                           None if record.ok else f"ok=False: {record.error}")
        if len(result.records) != len(cases) * len(seeds):
            self.note(f"campaign returned {len(result.records)} records, "
                      f"expected {len(cases) * len(seeds)}")
        try:
            self._check_aggregates(result, cases, seeds)
        except (OSError, KeyError, ValueError) as exc:
            self.note(f"campaign aggregates unreadable: {type(exc).__name__}: {exc}")

    def _check_aggregates(self, result, cases, seeds) -> None:
        with open(result.files["campaign_totals"], encoding="utf-8", newline="") as fh:
            rows = {int(r["case"]): r for r in csv.DictReader(fh)}
        for case_id in cases:
            want = [self.reference["runs"][ref.run_key(case_id, s)]["stats"] for s in seeds]
            row = rows.get(case_id)
            expect = {
                "runs": float(len(seeds)),
                "mean_total_rx_bytes": statistics.fmean(w["total_rx_bytes"] for w in want),
                "mean_tn_share": statistics.fmean(w["tn_share"] for w in want),
                "mean_ntn_share": statistics.fmean(w["ntn_share"] for w in want),
            }
            for column, value in expect.items():
                got = float(row[column]) if row and row[column] else math.nan
                if not math.isclose(got, value, rel_tol=ref.REL_TOL, abs_tol=1e-12):
                    self.note(f"campaign_totals case {case_id} {column}: "
                              f"got {got!r}, reference {value!r}")
            with open(result.files[f"cdf_case_{case_id}"], encoding="utf-8") as fh:
                lines = fh.read().splitlines()[1:]
            if len(lines) != sum(w["ue_count"] for w in want) or \
                    float(lines[-1].split(",")[1]) != 1.0:
                self.note(f"pooled CDF of case {case_id} has the wrong sample count")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


# ---------------------------------------------------------------------------
# one iteration of a workload

def run_iteration(cdss_sim, scenario, workload: Workload, seeds, out: Path,
                  checker: Checker, jobs: int):
    """Run one pass over the seed set.

    Returns (samples, campaign result or None), one sample per run, or one
    for the whole campaign: (wall s, simulated s, start, end).  Only the
    program's calls are timed; the output checks run between them.
    """
    engine = cdss_sim.engine
    clock = time.perf_counter
    sim_s = scenario.sim.total_s
    samples = []
    if workload.campaign:
        cases = workload.cases
        start = clock()
        result = engine.run_campaign(scenario, cases, seeds, out, jobs=jobs)
        wall = clock() - start
        samples.append((wall, sim_s * len(result.records), start, start + wall))
        checker.check_campaign(result, cases, seeds)
        return samples, result
    (case_id,) = workload.cases
    for seed in seeds:
        files, error = None, None
        start = clock()
        try:
            _, paths = engine.run_and_write(engine.RunSpec(scenario, case_id, seed), out)
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            files = {k: str(p) for k, p in paths.items()}
        wall = clock() - start
        samples.append((wall, sim_s, start, start + wall))
        checker.check_run(case_id, seed, files, error)
    return samples, None


# ---------------------------------------------------------------------------
# measurement modes

SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import cdss_sim\n"
    "from cdss_sim.scenario import load_scenario, validate_scenario\n"
    f"validate_scenario(load_scenario({ref.SCENARIO!r}))\n"
)


def setup_once() -> float:
    """Cold start of a CLI invocation up to epoch 0, in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start


def probe_once() -> float:
    """Host-speed probe: fixed interpreter-bound work, independent of the
    program, taking about PROBE_REF_S on an undisturbed host."""
    start = time.perf_counter()
    acc: Dict[int, float] = {}
    for i in range(150000):
        acc[i % 997] = acc.get(i % 997, 0.0) + i * 0.5
    sorted(acc.values())
    return time.perf_counter() - start


def measure_untraced(cdss_sim, scenario, workload, seeds, seconds, out, checker, jobs):
    """Whole passes until `seconds` have passed, with the setup samples
    spread between passes so that both see the same host conditions.

    The host's speed drifts by up to 2x over minutes (see README.md), so
    every timed call is bracketed by host-speed probes and its time is
    divided by the slowdown they show: the mean probe time just before and
    just after it, over PROBE_REF_S.  The gated figures are thus seconds
    at reference host speed; raw medians and slowdowns are reported,
    ungated.
    """
    walls, raw_walls, rates, setup, raw_setup, slowdowns = [], [], [], [], [], []
    child_kb = None
    start = time.perf_counter()
    chunks = [seeds] if workload.campaign else [[seed] for seed in seeds]
    probes = CAMPAIGN_PROBES if workload.campaign else 1
    last = statistics.fmean(probe_once() for _ in range(probes))

    def slowdown_since(count: int) -> float:
        nonlocal last
        before, last = last, statistics.fmean(probe_once() for _ in range(count))
        slowdowns.append((before + last) / 2 / PROBE_REF_S)
        return slowdowns[-1]

    while True:
        for chunk in chunks:
            samples, _ = run_iteration(cdss_sim, scenario, workload, chunk, out, checker,
                                       jobs)
            slowdown = slowdown_since(probes)
            for wall, sim_s, _, _ in samples:
                raw_walls.append(wall)
                walls.append(wall / slowdown)
                rates.append(sim_s / walls[-1])
            if child_kb is None:
                # Read before any setup interpreter has run, so that for a
                # campaign every child counted is a pool worker.
                child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                setup_once()    # warms the file cache; not counted
                last = statistics.fmean(probe_once() for _ in range(probes))
        done = min(1.0, (time.perf_counter() - start) / seconds)
        while len(setup) < math.ceil(SETUP_REPEATS * done):
            raw_setup.append(setup_once())
            setup.append(raw_setup[-1] / slowdown_since(1))
        if done >= 1.0:
            break
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = jobs if workload.campaign and jobs > 1 else 0
    p_tail, pct = tail_percentile(walls)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "sim_s_per_host_s": statistics.median(rates),
        # Upper bound on the concurrent total: the parent's peak plus, for a
        # campaign, the largest worker's peak once per pool worker.
        "peak_rss_mb": (self_kb + workers * child_kb) / 1024.0,
    }
    norm = "at reference host speed"
    notes = {
        "setup_s": (f"median of {len(setup)} fresh interpreters (import cdss_sim, "
                    f"load_scenario, validate_scenario), {norm}"),
        "wall_s": f"median of {len(walls)} samples, {norm}",
        "sim_s_per_host_s": f"median of {len(rates)} samples, {norm}",
        "peak_rss_mb": (f"ru_maxrss of this process + {workers} pool workers x largest "
                        "worker ru_maxrss in the first campaign" if workers
                        else "ru_maxrss of this process"),
    }
    info = {
        "wall_p90_s": (p_tail, "s", f"p{pct:.1f} (nearest rank) of {len(walls)} samples"
                       + (", the maximum: too few samples for ten beyond" if pct == 100.0
                          else ", ten or more beyond") + f", {norm} (ungated)"),
        "raw_wall_median_s": (statistics.median(raw_walls), "s",
                              "median host seconds, not normalized (ungated)"),
        "raw_setup_median_s": (statistics.median(raw_setup), "s",
                               "median host seconds, not normalized (ungated)"),
        "host_slowdown": (statistics.median(slowdowns), "ratio",
                          f"median over {len(slowdowns)} timed calls of the bracketing "
                          f"probes' mean time / {PROBE_REF_S} s (ungated)"),
    }
    detail = {"walls": walls, "raw_walls": raw_walls, "slowdowns": slowdowns,
              "wall_p90_percentile": pct, "setup_s": setup, "raw_setup_s": raw_setup}
    return values, notes, info, detail


def measure_traced(cdss_sim, scenario, workload, seeds, seconds, out, checker, jobs):
    """Alternate traced and untraced passes over the seed set.

    Times are medians over traced passes; counts come from the first pass
    and must repeat exactly in every later one.
    """
    clock = time.perf_counter
    per_call = layers.wrapper_cost()
    passes, untraced, all_spans = [], [], []
    workers = 0     # most distinct pool worker processes seen in one campaign
    deadline = clock() + seconds
    while True:
        tracer = layers.Tracer()
        files_before = checker.files_identical
        with tracer.installed(cdss_sim):
            tracer.run = "setup"
            cdss_sim.scenario.load_scenario(SCENARIO)
            samples, result = run_iteration(cdss_sim, scenario, workload, seeds, out,
                                            checker, jobs)
        if result is not None:
            tracer.merge_records(result.records)
        traced_wall = samples[-1][3] - samples[0][2]
        metrics = layers.layer_metrics(tracer)
        layers.split_run_self(metrics, tracer, per_call)
        metrics["metrics.files_identical"] = checker.files_identical - files_before
        if workload.campaign:
            phases = layers.campaign_phases(tracer, samples[0][2], samples[0][3], jobs)
        else:
            # The campaign path is measured on a two-seed campaign of the
            # workload's case, traced apart from the pass above.
            mini = layers.Tracer()
            with mini.installed(cdss_sim):
                small, result = run_iteration(cdss_sim, scenario,
                                              Workload(workload.cases, True), seeds[:2],
                                              out, checker, jobs)
            mini.merge_records(result.records)
            phases = layers.campaign_phases(mini, small[0][2], small[0][3], jobs)
            metrics["metrics.cdf_s"] = mini.time["metrics.cdf"]
            all_spans += mini.spans
        metrics.update({
            "engine.campaign_runs_s": phases["runs_s"],
            "engine.campaign_aggregate_s": phases["aggregate_s"],
            "engine.parallel_eff": phases["parallel_eff"],
        })
        workers = max(workers, len(phases["worker_pids"]))
        accounting = layers.run_accounting_error(metrics)
        if accounting > 1e-6 * max(metrics["engine.run_s"], 1e-9):
            checker.note(f"engine.run_s differs from self + children by {accounting!r} s")
        passes.append((traced_wall, metrics))
        all_spans += tracer.spans
        samples, _ = run_iteration(cdss_sim, scenario, workload, seeds, out, checker, jobs)
        untraced.append(samples[-1][3] - samples[0][2])
        if clock() >= deadline:
            break

    counts = {k: v for k, v in passes[0][1].items() if isinstance(v, int)}
    for i, (_, metrics) in enumerate(passes[1:], start=2):
        moved = {k: (counts[k], metrics[k]) for k in counts if metrics[k] != counts[k]}
        if moved:
            checker.note(f"traced pass {i} counts differ from pass 1: {moved}")
    values = {}
    for key, first in passes[0][1].items():
        if isinstance(first, int):
            values[key] = first
        else:
            values[key] = statistics.median(m[key] for _, m in passes)
    values["engine.pool_workers"] = workers
    if workers > jobs:
        checker.note(f"a campaign used {workers} worker processes, more than jobs = {jobs}")
    traced_med = statistics.median(w for w, _ in passes)
    untraced_med = statistics.median(untraced)
    values["trace.overhead_frac"] = (traced_med - untraced_med) / untraced_med
    detail = {
        "traced_passes": len(passes),
        "traced_pass_s": [w for w, _ in passes],
        "untraced_pass_s": untraced,
        "wrapper_cost_per_call_s": per_call,
        "accounting": "engine.run_s = engine.self_s + trace.wrapper_s + child layers",
    }
    return values, detail, all_spans


# ---------------------------------------------------------------------------

def run_workload(name: str, bench_seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    cdss_sim = import_program()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    # Metric names and units come from BENCHMARK.json, so the printed set
    # is exactly the declared one.
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}.get(name, "")
    reference = ref.load_reference()
    machine = machine_record()
    seeds = ref.seed_set(bench_seed, reference["pool"])
    jobs = max(1, os.cpu_count() or 1)
    checker = Checker(reference)
    if ref.sha256_file(SCENARIO) != reference["scenario_sha256"]:
        checker.note(f"{ref.SCENARIO} differs from the one reference.json was made with")
    scenario = cdss_sim.scenario.load_scenario(SCENARIO)
    cdss_sim.scenario.validate_scenario(scenario)

    WORK.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{name}-"))
    tag = f"{name}-seed{bench_seed}-trace{int(trace)}"
    try:
        if trace:
            values, detail, spans = measure_traced(
                cdss_sim, scenario, workload, seeds, seconds, out, checker, jobs)
            notes, info = {}, {}
            with open(WORK / f"spans-{tag}.json", "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "run", "start", "end", "parent", "pid"],
                           "spans": spans}, fh)
        else:
            values, notes, info, detail = measure_untraced(
                cdss_sim, scenario, workload, seeds, seconds, out, checker, jobs)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    values = {key: values[key] for key in units}

    info["failed_frac"] = (checker.failed / max(1, checker.attempted), "ratio",
                           f"{checker.failed} of {checker.attempted} runs failed (ungated)")
    print(f"workload {name}: cases {list(workload.cases)}, seeds {seeds}, jobs {jobs}, "
          f"trace {int(trace)}")
    print(f"why: {why}")
    print(f"machine: {json.dumps(machine)}")
    for key, value in values.items():
        note = notes.get(key, "")
        print(f"  {key:<28} {value!r:>24} {units[key]:<6} {note}")
    for key, (value, unit, note) in info.items():
        print(f"  {key:<28} {value!r:>24} {unit:<6} {note}")
    print(f"  {'files_identical':<28} {checker.files_identical:>24} {'count':<6} "
          f"of {checker.files_total} output files match the reference digests")
    for problem in checker.problems:
        print(f"  problem: {problem}")
    record = {
        "workload": name, "bench_seed": bench_seed, "seeds": seeds, "jobs": jobs,
        "trace": int(trace), "machine": machine, "claim": None,
        "metrics": {k: {"value": v, "unit": units[k], "note": notes.get(k, "")}
                    for k, v in values.items()},
        "reported": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in info.items()},
        "attempted": checker.attempted,
        "failed": checker.failed, "files_identical": checker.files_identical,
        "files_total": checker.files_total, "problems": checker.problems,
        "detail": detail,
    }
    with open(WORK / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def run_all(bench_seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so each peak_rss_mb is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(bench_seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cdss-sim benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="picks ten consecutive reference-pool seeds (1: seeds 1..10)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure for at least this long, in whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
