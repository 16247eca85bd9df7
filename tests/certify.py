#!/usr/bin/env python3
"""Certify the output contract with the naive engine.

    python3 tests/certify.py

Runs every (case, seed) that `perfbench/reference.json` records through
`tests/reference_engine.run_reference`, on the scenario the record names,
writes its report files with `metrics.finalize` and compares each file's
SHA-256 with the recorded one.  Prints every mismatch, then a total line
such as "80 of 80 runs, 480 files identical", and exits 1 if any file
differs or is missing.  It takes about two minutes.

The recorded digests were written by the optimized engine itself; the
naive engine shares none of its caches, grant tables or dealing loops, so
a pass is a check of the contract from code that a change to the engine
does not touch.  `run_reference` does reuse the production `ByteFactors`
and `build_topology`; their own oracles are
`tests/test_engine.py::test_byte_factors_match_naive_oracle` and
`tests/reference_placement.py`.  Run this after any change that
regenerates the digests, and paste its total line into CHANGES.md.
Pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from cdss_sim.engine import RunSpec  # noqa: E402
from cdss_sim.metrics import finalize  # noqa: E402
from cdss_sim.scenario import load_scenario  # noqa: E402
from reference_engine import run_reference  # noqa: E402

REFERENCE = ROOT / "perfbench" / "reference.json"


def main() -> int:
    reference = json.loads(REFERENCE.read_text())
    scenario = load_scenario(ROOT / reference["scenario"])
    runs = reference["runs"]
    identical_runs = identical_files = recorded_files = 0
    begin = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="certify-") as tmp:
        for key, run in runs.items():
            case_id, seed = map(int, key.split("/"))
            files = finalize(run_reference(RunSpec(scenario, case_id, seed)), Path(tmp) / key)
            got = {stem: hashlib.sha256(path.read_bytes()).hexdigest()
                   for stem, path in files.items()}
            wrong = sorted(stem for stem in set(got) | set(run["files"])
                           if got.get(stem) != run["files"].get(stem))
            for stem in wrong:
                print(f"{key}: {stem} differs from the record")
            recorded_files += len(run["files"])
            identical_files += len(run["files"]) - len(set(wrong) & set(run["files"]))
            identical_runs += not wrong
    print(f"{identical_runs} of {len(runs)} runs, {identical_files} of {recorded_files} files "
          f"identical ({time.perf_counter() - begin:.0f} s)")
    return 0 if identical_runs == len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
