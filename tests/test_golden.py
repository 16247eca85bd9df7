"""Golden output digests: every report file of two fixed grids.

The small grid is `fast_cfg` x cases 1-4 x seeds {1, 2}, written one run
at a time, plus the same grid as one campaign, run with `jobs=1` and with
`jobs=2` against the same digests.  The full-scale set is five runs of
the default scenario in the regimes where replay misses deal several
rounds to UEs that do not drain: case 3 seeds 5 and 6 (one saturated
cell each) and case 4 seeds 1, 7 and 9 (saturated beams; 7 and 9 also
oscillate).  The SHA-256 of each file is committed in
`golden/digests.json`.  The output contract, every run the benchmark's
`perfbench/reference.json` records (cases 1-4 x seeds 1-20 of the
default scenario), is checked against the digests recorded there.  A
refactor must keep them all;
a change meant to alter outputs regenerates them with

    PYTHONPATH=src python tests/test_golden.py
    python3 perfbench/reference.py --regenerate

then certifies the new record with the naive engine (`python3
tests/certify.py`, which must report every run identical) and explains
the changed bytes in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from cdss_sim.engine import RunSpec, run_and_write, run_campaign
from cdss_sim.scenario import load_scenario, serialize_scenario

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
CASES = (1, 2, 3, 4)
SEEDS = (1, 2)
FULL_SCALE = ((3, 5), (3, 6), (4, 1), (4, 7), (4, 9))   # (case, seed)


def _digests(out_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def single_run_digests(cfg, out_dir: Path, grid=None) -> dict:
    """Digests of one run per (case, seed) of `grid`, the small grid by default."""
    for case_id, seed in grid or [(c, s) for c in CASES for s in SEEDS]:
        run_and_write(RunSpec(cfg, case_id, seed), out_dir)
    return _digests(out_dir)


def campaign_digests(cfg, out_dir: Path, jobs: int = 1) -> dict:
    result = run_campaign(cfg, CASES, SEEDS, out_dir, jobs=jobs)
    assert all(r.ok for r in result.records)
    return _digests(out_dir)


def test_single_runs_match_golden(fast_cfg, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert single_run_digests(fast_cfg, tmp_path) == golden["runs"]


def test_campaign_matches_golden(fast_cfg, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    # The campaign's per-run files must equal the single runs' files.
    assert campaign_digests(fast_cfg, tmp_path) == {**golden["runs"], **golden["campaign"]}


def test_campaign_jobs_two_matches_golden(fast_cfg, tmp_path):
    # Worker processes must not change a byte: the same digests as jobs=1.
    golden = json.loads(GOLDEN.read_text())
    assert campaign_digests(fast_cfg, tmp_path, jobs=2) == {
        **golden["runs"], **golden["campaign"]}


def test_full_scale_runs_match_golden(default_cfg, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert single_run_digests(default_cfg, tmp_path, FULL_SCALE) == golden["full_scale"]


def test_full_scale_golden_agrees_with_benchmark_reference():
    # The benchmark's reference records the same runs' file digests (keyed
    # "<case>/<seed>", then by file stem); the two oracles must agree.
    golden = json.loads(GOLDEN.read_text())["full_scale"]
    runs = json.loads(BENCH_REFERENCE.read_text())["runs"]
    reference = {
        f"{case_id}_{seed}_{stem}{'.json' if stem == 'summary' else '.csv'}": digest
        for case_id, seed in FULL_SCALE
        for stem, digest in runs[f"{case_id}/{seed}"]["files"].items()
    }
    assert golden == reference


def test_every_reference_run_writes_its_recorded_files(tmp_path):
    # The output contract: every (case, seed) the benchmark's reference
    # records, run with `run_and_write` on the scenario it names, writes
    # files whose SHA-256 is the recorded one, float files included.  The
    # reference holds cases 1-4 x seeds 1-20, six files each, so a shrunken
    # reference cannot pass.
    reference = json.loads(BENCH_REFERENCE.read_text())
    scenario = load_scenario(BENCH_REFERENCE.parents[1] / reference["scenario"])
    checked = 0
    for key, run in reference["runs"].items():
        case_id, seed = map(int, key.split("/"))
        _, files = run_and_write(RunSpec(scenario, case_id, seed), tmp_path / key)
        assert {stem: hashlib.sha256(path.read_bytes()).hexdigest()
                for stem, path in files.items()} == run["files"], key
        checked += len(run["files"])
    assert (len(reference["runs"]), checked) == (80, 480)


FRESH_RUN = """
import sys
from pathlib import Path
from cdss_sim.engine import RunSpec, run_and_write
from cdss_sim.scenario import load_scenario
run_and_write(RunSpec(load_scenario(sys.argv[1]), 2, 1), Path(sys.argv[2]))
"""


def test_run_after_other_case_matches_fresh_process(fast_cfg, tmp_path):
    # No state a run leaves in the process (such as the scheduler's replay
    # memos) may reach the next run: case 2 run after case 3 must equal
    # case 2 run in a new interpreter, and the golden digests.
    scenario = tmp_path / "fast.ini"
    scenario.write_text(serialize_scenario(fast_cfg))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", FRESH_RUN, str(scenario), str(tmp_path / "fresh")],
                   env=env, check=True)
    run_and_write(RunSpec(fast_cfg, 3, 1), tmp_path / "other")
    run_and_write(RunSpec(fast_cfg, 2, 1), tmp_path / "after")
    after = _digests(tmp_path / "after")
    golden = json.loads(GOLDEN.read_text())["runs"]
    assert after == _digests(tmp_path / "fresh")
    assert after == {name: d for name, d in golden.items() if name.startswith("2_1_")}


if __name__ == "__main__":
    import tempfile

    import cdss_sim as cs
    from conftest import fast_scenario

    cfg = fast_scenario()
    with tempfile.TemporaryDirectory() as tmp:
        runs = single_run_digests(cfg, Path(tmp) / "runs")
        campaign = campaign_digests(cfg, Path(tmp) / "campaign")
        full_scale = single_run_digests(cs.default_scenario(), Path(tmp) / "full_scale",
                                        FULL_SCALE)
    extra = {name: d for name, d in campaign.items() if name not in runs}
    if {name: d for name, d in campaign.items() if name in runs} != runs:
        sys.exit("campaign per-run files differ from the single runs; not writing")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"runs": runs, "campaign": extra, "full_scale": full_scale},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs) + len(extra) + len(full_scale)} digests to {GOLDEN}")
