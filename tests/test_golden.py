"""Golden output digests: every report file of a small fixed grid.

The grid is `fast_cfg` x cases 1-4 x seeds {1, 2}, written one run at a
time, plus the same grid as one `jobs=1` campaign.  The SHA-256 of each
file is committed in `golden/digests.json`.  A refactor must keep them;
a change meant to alter outputs regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and explains the changed bytes in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

from cdss_sim.engine import RunSpec, run_and_write, run_campaign

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
CASES = (1, 2, 3, 4)
SEEDS = (1, 2)


def _digests(out_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def single_run_digests(cfg, out_dir: Path) -> dict:
    for case_id in CASES:
        for seed in SEEDS:
            run_and_write(RunSpec(cfg, case_id, seed), out_dir)
    return _digests(out_dir)


def campaign_digests(cfg, out_dir: Path) -> dict:
    result = run_campaign(cfg, CASES, SEEDS, out_dir, jobs=1)
    assert all(r.ok for r in result.records)
    return _digests(out_dir)


def test_single_runs_match_golden(fast_cfg, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert single_run_digests(fast_cfg, tmp_path) == golden["runs"]


def test_campaign_matches_golden(fast_cfg, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    # The campaign's per-run files must equal the single runs' files.
    assert campaign_digests(fast_cfg, tmp_path) == {**golden["runs"], **golden["campaign"]}


if __name__ == "__main__":
    import tempfile

    from conftest import fast_scenario

    cfg = fast_scenario()
    with tempfile.TemporaryDirectory() as tmp:
        runs = single_run_digests(cfg, Path(tmp) / "runs")
        campaign = campaign_digests(cfg, Path(tmp) / "campaign")
    extra = {name: d for name, d in campaign.items() if name not in runs}
    if {name: d for name, d in campaign.items() if name in runs} != runs:
        sys.exit("campaign per-run files differ from the single runs; not writing")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"runs": runs, "campaign": extra}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(runs) + len(extra)} digests to {GOLDEN}")
