"""Reference statistics and output digests for the benchmark's seed pool.

The measure path (run.py) only reads `reference.json`.  Rewriting it is a
separate, explicit step:

    python3 perfbench/reference.py --regenerate

which runs every (case, seed) of the pool one at a time with
`run_and_write` and records, per run, the statistics the benchmark checks
and the SHA-256 of every output file.  Regenerate only in a change that
means to alter the simulator's outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
WORK = BENCH_DIR / "_work"
SCENARIO = "scenarios/default.ini"
POOL = list(range(1, 21))
CASES = (1, 2, 3, 4)
SET_SIZE = 10
REL_TOL = 1e-9
# Output files with integer columns only: their bytes must match the
# reference digest exactly.  The other files carry floats, so their
# digests are counted (files_identical) but not required to match.
EXACT_FILES = ("final_allocation", "rb_counts")


def seed_set(bench_seed: int, pool: List[int]) -> List[int]:
    """Ten consecutive pool seeds, wrapping; benchmark seed 1 gives 1..10."""
    start = (bench_seed - 1) % len(pool)
    return sorted(pool[(start + i) % len(pool)] for i in range(SET_SIZE))


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _column_digest(path: str, columns=None, time_column: str = "time_s") -> tuple:
    """(rows, SHA-256) of a CSV's `columns` (all when None).  The time
    column is rounded to a nanosecond first; every other column digested
    must be an integer or a label, so the digest is exact for them."""
    digest = hashlib.sha256()
    rows = 0
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if time_column in row:
                row[time_column] = repr(round(float(row[time_column]), 9))
            values = row.values() if columns is None else (row[c] for c in columns)
            digest.update((",".join(values) + "\n").encode())
            rows += 1
    return rows, digest.hexdigest()


def run_stats(files: Dict[str, str]) -> dict:
    """Statistics one run's output files report, in comparable form.

    Floats (totals, shares, per-UE bytes) are compared within REL_TOL;
    everything else, including the digests of the integer columns, must
    match exactly.
    """
    with open(files["summary"], encoding="utf-8") as fh:
        summary = json.load(fh)
    timeline_rows, timeline_sha = _column_digest(files["allocation_timeline"])
    util_rows, util_sha = _column_digest(
        files["utilization"],
        ("cell_id", "period", "time_s", "used_rb_epochs", "available_rb_epochs"))
    ue_ids, ue_rx_bytes = [], []
    with open(files["throughput"], encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            ue_ids.append(f"{row['ue_id']}:{row['system']}")
            ue_rx_bytes.append(float(row["rx_bytes"]))
    return {
        "ue_count": summary["ue_count"],
        "total_rx_bytes": summary["total_rx_bytes"],
        "tn_share": summary["tn_share"],
        "ntn_share": summary["ntn_share"],
        "zero_throughput_ues": summary["zero_throughput_ues"],
        "unserved_ues": summary["unserved_ues"],
        "sms_steps": summary["sms_steps"],
        "final_allocation": summary["final_allocation"],
        "node_rb_counts": summary["node_rb_counts"],
        "timeline_rows": timeline_rows,
        "timeline_sha256": timeline_sha,
        # throughput.csv: UE ids and systems exactly, rx_bytes within REL_TOL.
        "ue_systems": ",".join(ue_ids),
        "ue_rx_bytes": ue_rx_bytes,
        # utilization.csv: the integer RB-epoch columns exactly (the
        # utilization column is their quotient).
        "utilization_rows": util_rows,
        "utilization_sha256": util_sha,
    }


def _matches(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=REL_TOL)
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_matches(g, w) for g, w in zip(got, want)))
    return got == want


def stats_mismatches(stats: dict, ref: dict) -> List[str]:
    """Fields that differ: floats beyond REL_TOL, anything else at all."""
    bad = []
    for key, want in ref.items():
        got = stats.get(key)
        if not _matches(got, want):
            shown = f"got {got!r}, reference {want!r}"
            bad.append(f"{key}: " + (shown if len(shown) < 200 else "differs"))
    return bad


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def run_key(case_id: int, seed: int) -> str:
    return f"{case_id}/{seed}"


def regenerate() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from cdss_sim.engine import RunSpec, run_and_write
    from cdss_sim.scenario import load_scenario

    scenario = load_scenario(ROOT / SCENARIO)
    runs = {}
    WORK.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=WORK, prefix="reference-"))
    try:
        for case_id in CASES:
            for seed in POOL:
                _, files = run_and_write(RunSpec(scenario, case_id, seed), out)
                files = {k: str(p) for k, p in files.items()}
                runs[run_key(case_id, seed)] = {
                    "stats": run_stats(files),
                    "files": {k: sha256_file(p) for k, p in sorted(files.items())},
                }
                print(f"case {case_id} seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    doc = {
        "scenario": SCENARIO,
        "scenario_sha256": sha256_file(ROOT / SCENARIO),
        "generated_with": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
        "rel_tol": REL_TOL,
        "pool": POOL,
        "runs": runs,
    }
    with open(REFERENCE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)} ({len(runs)} runs)", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regenerate", action="store_true",
        help="rerun every pool run and overwrite reference.json",
    )
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("pass --regenerate to rewrite reference.json")
    regenerate()
    return 0


if __name__ == "__main__":
    sys.exit(main())
