#!/usr/bin/env python3
"""The mutant register: one-edit faults in the code and README that Tier-1 must catch.

    python3 tests/mutants.py           # each mutant against the tests it names
    python3 tests/mutants.py --full    # each mutant against all of Tier-1

Each entry replaces `old`, which occurs exactly once in `file`, with `new`
in a temporary copy of the checkout, then runs pytest there.  A mutant is
killed when a test fails; the runner lists every mutant with its outcome
and exits 1 if any survived or if pytest could not run.  The named tests
run once on the unmutated copy first, and must pass there.

A change that tries a mutant adds it here rather than describing it only
in prose.  `tests/test_mutants.py` checks that every entry still applies,
so a refactor that moves the code an entry breaks must move the entry too.
Pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "_work")

MEMO_ORACLE = "tests/test_traffic.py::test_schedule_memo_replay_matches_per_rb_reference"
ORACLE = "tests/test_traffic.py::test_schedule_matches_per_rb_reference"
GUARD_KEY = "tests/test_engine.py::test_grant_rebuilds_exactly_when_the_guard_key_changes"
TWIN_CYCLE = "tests/test_traffic.py::test_twin_cycle_matches_the_cycle_a_walk_deals"
TWIN_STEADY = "tests/test_traffic.py::test_steady_takes_a_drained_twin_as_its_cycle"
MEMOS_KEPT = "tests/test_engine.py::test_grant_and_row_changes_keep_unchanged_memos"
HELD_ONCE = "tests/test_engine.py::test_a_held_step_runs_once_per_group"
HELD_MEMO = ("tests/test_controller.py::"
             "test_sms_step_does_not_run_a_group_again_on_the_state_and_rows_it_held_on")
CONTRACT = "tests/test_golden.py::test_every_reference_run_writes_its_recorded_files"
OTHER_ROWS = "tests/test_engine.py::test_a_held_step_runs_again_on_other_rows"
CREDIT_POSITION = ("tests/test_traffic.py::"
                   "test_fast_forward_credits_its_epochs_from_their_cycle_position")
FORWARD = "tests/test_traffic.py::test_fast_forward_matches_epoch_by_epoch_scheduling"
STEADY_REFERENCE = ("tests/test_reference_engine.py::"
                    "test_engine_matches_reference_engine_in_steady_states")
ONE_ROW = "tests/test_traffic.py::test_one_row_schedule_matches_per_rb_reference"
ONE_ROW_GRANTS = "tests/test_engine.py::test_tn_only_cells_and_beams_hold_one_row_grants"


class Mutant(NamedTuple):
    file: str                   # relative to the checkout root
    old: str                    # the exact text replaced; occurs once in `file`
    new: str
    reason: str                 # the rule the mutant breaks
    tests: Tuple[str, ...]      # pytest node ids expected to kill it


MUTANTS = (
    Mutant("src/cdss_sim/traffic.py", "backlog = list(node.drained)", "backlog = node.drained",
           "a miss from a drained key deals on a fresh list: the node's `drained` "
           "arrivals are read again by its next such miss",
           (MEMO_ORACLE, "tests/test_golden.py::test_single_runs_match_golden", CONTRACT)),
    Mutant("src/cdss_sim/traffic.py", "    if not all(backlog):",
           "    if any(key) and not all(backlog):",
           "a drained key's arrivals hold a 0.0 for a UE with no demand, and that "
           "UE must leave the order before the loop offers it an RB",
           (MEMO_ORACLE, ORACLE)),
    Mutant("src/cdss_sim/traffic.py", "order = table[start:] + table[:start]",
           "order = table",
           "the rotation table lists the UEs from position 0; each epoch deals from "
           "its own rotation start",
           (MEMO_ORACLE, ORACLE, CONTRACT)),
    Mutant("src/cdss_sim/engine.py", "if last and last[0].version == state.version:",
           "if last:",
           "timeline widths are borrowed only from rows of the same state version; "
           "a boundary move changes them",
           ("tests/test_engine.py::test_cdss_run_converges_monotonically",
            "tests/test_golden.py::test_single_runs_match_golden", CONTRACT)),
    Mutant("src/cdss_sim/traffic.py", "if low < b and (len(caps) > 1 or low <= 0.0):",
           "if False:",
           "a deal is a twin only if each queued UE's capacity over the dealt rows "
           "is one positive value or never below its backlog; otherwise another "
           "start deals other takes",
           (MEMO_ORACLE, CONTRACT)),
    Mutant("src/cdss_sim/traffic.py", "        self.twin = None\n", "",
           "a twin reads the grant and the byte rows as the slots do, so it goes "
           "stale with them",
           (MEMO_ORACLE, CONTRACT)),
    Mutant("src/cdss_sim/engine.py", "for i in range(last, last + n):",
           "for i in range(last, last + 1):",
           "the node that blocked last is only polled first; every node must be "
           "steady before `_fast_forward` plans from the cycles, as a node that is "
           "not has no cycle to replay",
           ("tests/test_golden.py::test_single_runs_match_golden",
            "tests/test_reference_engine.py::test_engine_matches_reference_engine", CONTRACT)),
    Mutant("src/cdss_sim/traffic.py", "        self.clear_memo()\n", "",
           "a new grant deals other RBs, so the slots dealt over the old one go stale",
           ("tests/test_engine.py::test_settled_runs_advance_each_node_once_per_stretch",
            CONTRACT)),
    Mutant("src/cdss_sim/traffic.py", "    if granted:\n", "    if True:\n",
           "the rotation advances only on a granted epoch",
           (ORACLE,)),
    Mutant("src/cdss_sim/engine.py", "if state is not held or epoch + length > limit:",
           "if epoch + length > limit:",
           "a plan stops after a controller move: the new state changes the grants",
           (GUARD_KEY, CONTRACT)),
    Mutant("src/cdss_sim/engine.py", "guard_due if guard_due > epoch else clock.total_epochs",
           "clock.total_epochs",
           "a plan stops at the next guard expiry, which changes the grants",
           (GUARD_KEY,)),
    Mutant("src/cdss_sim/engine.py", "column = {gi: 1 + j for j, gi in enumerate(coordinated)}",
           "column = {gi: j for j, gi in enumerate(coordinated)}",
           "load column 0 holds the groups no report reads; coordinated group j is "
           "column 1 + j",
           ("tests/test_acceptance.py::test_criterion_1_low_demand_convergence", CONTRACT)),
    Mutant("src/cdss_sim/engine.py", "if not g.coordinated or any(other != btx",
           "if any(other != btx",
           "the TN UEs hear every beam of an uncoordinated group, so its activity "
           "is audible also where no other beam of the group serves a UE",
           ("tests/test_engine.py::"
            "test_byte_factors_refresh_reports_exactly_the_changed_entries",)),
    Mutant("src/cdss_sim/traffic.py", "(start + epochs - credited) % n", "start",
           "a fast-forward credits its last epochs from the cycle position of the "
           "first of them, not of the first epoch of the stretch",
           (CREDIT_POSITION, FORWARD)),
    Mutant("src/cdss_sim/traffic.py", "drained = generate_arrivals([0.0] * n, self.increments)",
           "drained = list(self.increments)",
           "the drained arrivals are `0.0 + increment`, +0.0 for a -0.0 increment, "
           "so no backlog the memo keys on is -0.0",
           ("tests/test_traffic.py::test_drained_arrivals_hold_no_negative_zero",)),
    Mutant("src/cdss_sim/traffic.py",
           "twin = not any(self.backlog) and _twin_at(self, start)",
           "twin = _twin_at(self, start)",
           "a twin's cycle starts from the drained backlogs; a node with a queued "
           "backlog repeats its slots' cycle, if any",
           (TWIN_STEADY,)),
    Mutant("src/cdss_sim/traffic.py",
           "\n                       and len({s.activity for s in self.schedules}) == 1)",
           ")",
           "a cycle repeats its epochs only if they all carry one activity; else the "
           "activity list, and the rows, would change in a fast-forward",
           ("tests/test_traffic.py::test_steady_needs_one_activity_in_every_slot",)),
    Mutant("src/cdss_sim/traffic.py", "(self.offset + skip) % len(cycle.keys)",
           "self.offset % len(cycle.keys)",
           "each planned whole period reads a cell's cycle window from the start its "
           "rotation reaches there, not from where the stretch began",
           ("tests/test_engine.py::test_planned_periods_read_each_cell_at_the_start_it_reaches",)),
    Mutant("src/cdss_sim/engine.py", "if node.load_prefix and granted == node.granted:",
           "if False:",
           "a grant rebuild keeps the memo of a node whose usable RBs are those it "
           "holds, so it need not deal its starts again before the run settles",
           (MEMOS_KEPT,)),
    Mutant("src/cdss_sim/engine.py", "if not changed.isdisjoint(node.ue_ids):",
           "if True:",
           "a row rewrite clears only the memos of the nodes whose UEs' entries "
           "changed; the others' slots still hold",
           (MEMOS_KEPT,)),
    Mutant("src/cdss_sim/traffic.py", "self.finals == self.keys[1:] + self.keys[:1]",
           "self.finals[:-1] == self.keys[1:]",
           "a cycle closes only if the last start's final is the first start's key; "
           "else a fast-forward past the cycle's end replays epochs from other keys",
           ("tests/test_traffic.py::test_steady_checks_that_the_slots_close_a_chain",)),
    Mutant("src/cdss_sim/engine.py",
           "if not g.coordinated or any(other != btx for other, _ in self._beam_ues[g.index]))]",
           "if not g.coordinated)]",
           "the UEs of a serving beam hear the other beams of its coordinated group, so "
           "their activity is audible and a change in it must refresh the rows",
           ("tests/test_engine.py::"
            "test_byte_factors_refresh_reports_exactly_the_changed_entries",
            "tests/test_reference_engine.py::test_engine_matches_reference_engine")),
    Mutant("src/cdss_sim/engine.py", "changed.update(np.flatnonzero(diff).tolist())",
           "changed.update(np.flatnonzero(diff).tolist() if g.index == 0 else ())",
           "a refresh reports the UEs whose entry changed in any group, so every node "
           "that reads a rewritten entry drops its slots",
           ("tests/test_engine.py::"
            "test_byte_factors_refresh_reports_exactly_the_changed_entries",
            "tests/test_golden.py::test_single_runs_match_golden", CONTRACT)),
    Mutant("src/cdss_sim/traffic.py", "if previous is not None and not any(previous[0]):",
           "if previous is not None:",
           "a twin is verified only from a slot dealt from a drained key; a slot "
           "that drained queued backlogs served other amounts than every drained "
           "epoch does",
           (MEMO_ORACLE,)),
    Mutant("src/cdss_sim/traffic.py", "self.offset = (self.offset + epochs) % self.rotation",
           "self.offset = (self.offset + epochs) % n",
           "a fast-forward advances the rotation start modulo the rotation; a twin's "
           "cycle has one slot, and the start it leaves decides the next deal",
           ("tests/test_traffic.py::test_fast_forward_matches_epoch_by_epoch_scheduling",)),
    Mutant("src/cdss_sim/traffic.py", "key = start, count", "key = start",
           "a cycle's load window is its start and its epoch count; windows of other "
           "lengths from one start sum other epochs",
           ("tests/test_traffic.py::test_period_load_of_runs_equals_expanded_epochs",)),
    Mutant("src/cdss_sim/controller.py", "self._held.get(gi) == (state, rows)",
           "self._held.get(gi, (None,))[0] == state",
           "a group that held runs again on other load rows, which may move its boundary",
           (HELD_MEMO, OTHER_ROWS)),
    Mutant("src/cdss_sim/controller.py", "self._held.get(gi) == (state, rows)",
           "self._held.get(gi, (None, None))[1] == rows",
           "a group that held runs again on another state, whose allocation may let "
           "it move",
           (HELD_MEMO,)),
    Mutant("src/cdss_sim/controller.py", "self._held.get(gi)",
           "next(iter(self._held.values()), None)",
           "a step is kept for the group that held on it; another group may move on "
           "the same state and rows",
           (HELD_MEMO, HELD_ONCE)),
    Mutant("src/cdss_sim/engine.py", "if last and all(map(is_, rows, last)):",
           "if last and rows[0] is last[0]:",
           "a period end reuses the previous rows only if every cell's row is the very "
           "list read there; a later cell's window may move on while the first repeats",
           (OTHER_ROWS,)),
    Mutant("src/cdss_sim/engine.py",
           "if rows is last and epoch - 2 * clock.period_epochs >= clock.warmup_epochs:",
           "if rows is last:",
           "repeated rows lend the sums of the previous period end's samples only if "
           "that period end took samples; the first after the warmup sums its own",
           ("tests/test_golden.py::test_single_runs_match_golden", CONTRACT)),
    Mutant("src/cdss_sim/metrics.py", "key = row[3:]", "key = row[3]",
           "a report line's suffix is a function of every field after the time; samples "
           "of one used count and another available one have other utilizations",
           ("tests/test_metrics.py::test_report_lines_match_plain_per_row_formatting",
            CONTRACT)),
    Mutant("src/cdss_sim/scenario.py",
           "\n                or abs(dx * c2 + dy * s2) > apothem)", ")",
           "a point lies in the hexagon only inside all three pairs of its edges; "
           "without the 150-degree pair, the loop accepts points past two of its edges",
           ("tests/test_block_draws.py::test_block_draws_match_scalar_draws",)),
    Mutant("src/cdss_sim/sums.py",
           "np.concatenate(\n        (cycle[:, first % n:], cycle[:, :first % n]), axis=1)",
           "cycle",
           "a fold tiles the cycle from position `first`; a cycle tiled from position "
           "0 credits the columns in another order and with other ones at the end",
           ("tests/test_sums.py::test_fold_cycle_equals_fold_sum", CREDIT_POSITION)),
    Mutant("src/cdss_sim/traffic.py", "first, credited).tolist()",
           "first, credited + 1).tolist()",
           "a fast-forward credits exactly its `credited` epochs; one more adds an "
           "epoch's bytes that no epoch served",
           (CREDIT_POSITION, FORWARD, CONTRACT)),
    Mutant("src/cdss_sim/traffic.py", "first, credited).tolist()",
           "(first + 1) % n, credited).tolist()",
           "the fold starts at the first credited epoch's cycle position, "
           "(start + epochs - credited) % n, not the one after it",
           (CREDIT_POSITION, FORWARD)),
    Mutant("src/cdss_sim/traffic.py", "self.opening = cycle.keys[first]",
           "self.opening = cycle.keys[start]",
           "where the warmup ends inside a stretch, a UE's accounting starts from the "
           "key of the first credited epoch, not of the stretch's first",
           (STEADY_REFERENCE,)),
    Mutant("src/cdss_sim/engine.py", "import os\nfrom dataclasses",
           "import os\nfrom concurrent.futures import ProcessPoolExecutor as pool_class\n"
           "from dataclasses",
           "a single run never uses the process pool, so it must not pay a cold start "
           "for the pool's modules; only a campaign with jobs > 1 imports them",
           ("tests/test_imports.py::test_a_single_run_loads_no_process_pool",)),
    Mutant("src/cdss_sim/metrics.py", "if row[2] is not time_s:", "if row[2] != time_s:",
           "a report line reuses the previous time's repr only for the very same float; "
           "an equal one may print otherwise, as -0.0 and 0.0 do",
           ("tests/test_metrics.py::test_report_lines_match_plain_per_row_formatting",)),
    Mutant("src/cdss_sim/scenario.py",
           "        if not text.strip():\n            return ()\n", "",
           "an empty list value, such as the beams of a scenario with none, parses as "
           "(), so every config the serializer writes loads again",
           ("tests/test_scenario.py::test_round_trip_identity_with_overrides",)),
    Mutant("src/cdss_sim/scenario.py",
           "        if any(len(row) != len(item) for row in rows):\n"
           '            raise ValueError(f"each item needs {len(item)} values")\n', "",
           "a beam centre is exactly two numbers; without the check a third one would "
           "be dropped without a word",
           ("tests/test_scenario.py::test_unknown_key_rejected_with_path",)),
    Mutant("src/cdss_sim/radio.py", "a = (bearing[site_of] - azimuth",
           "a = (bearing[site_of[::-1]] - azimuth",
           "each cell gathers the bearings of its own site's row; the sectors of "
           "another site see their UEs at other bearings",
           ("tests/test_block_draws.py::test_block_draws_match_scalar_draws",)),
    Mutant("src/cdss_sim/engine.py", "[[0.0] * len(serving) if self._beam_tx[g.index] else shared",
           "[[0.0] * len(serving) if g.index else shared",
           "only the groups that have no beam share one byte row; a group with a beam "
           "has values of its own for its beams' UEs and, uncoordinated, for the TN's",
           ("tests/test_engine.py::test_byte_factors_match_naive_oracle",)),
    Mutant("src/cdss_sim/engine.py", "column = 1 + coordinated.index(gi)",
           "column = 1 + (coordinated.index(gi) + 1) % len(coordinated)",
           "a step reads the reports of the group it selects, built from that group's "
           "load column; the next group's loads would drive its boundary",
           ("tests/test_engine.py::test_a_step_is_given_the_reports_of_the_group_it_selects",
            CONTRACT)),
    Mutant("src/cdss_sim/traffic.py", "live, rounds = live[:n_rb - k], 1",
           "live, rounds = live[k - n_rb:], 1",
           "a one-row deal that runs out within a round gives its last RBs to the first "
           "live UEs in rotation order, as the per-RB loop does, not to the last",
           (ONE_ROW, CONTRACT)),
    Mutant("src/cdss_sim/traffic.py", "                    s += cap\n",
           "                    s = served[p] + (rounds - n + 1) * cap\n",
           "a UE's served bytes fold its takes one by one, in the per-RB loop's order; "
           "a product of the take count and the capacity rounds otherwise",
           (ONE_ROW, CONTRACT)),
    Mutant("src/cdss_sim/traffic.py", "None if [r for r in rows if r is not row] else row",
           "row if rows and row is rows[-1] else None",
           "a grant is dealt per UE only if every granted RB carries the one byte row; "
           "a TN grant that interleaves three groups' rows may begin and end in one",
           (ORACLE, ONE_ROW_GRANTS, CONTRACT)),
    Mutant("README.md", "`Cycle.window`", "`Cycle.windows`",
           "every name of the package that README cites exists, so a rename or a "
           "deletion cannot leave the map stale",
           ("tests/test_imports.py::test_every_name_the_readme_cites_resolves",)),
    Mutant("README.md", "`test_engine.py::test_a_held_step_runs_once_per_group`",
           "`test_engine.py::test_a_held_step_runs_twice_per_group`",
           "every test README cites exists, so a renamed test cannot leave the map "
           "pointing at nothing",
           ("tests/test_imports.py::test_every_test_the_readme_cites_exists",)),
)


def pytest(copy: Path, args) -> int:
    """pytest's exit status for `args`, run in `copy` on its own sources."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *args],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="run all of Tier-1 against each mutant, not only its named tests")
    args = parser.parse_args()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        named = sorted({test for m in MUTANTS for test in m.tests})
        code = pytest(copy, [] if args.full else named)
        if code != 0:
            print(f"the tests fail without a mutant (pytest exit {code})")
            return 1
        for i, m in enumerate(MUTANTS):
            path = copy / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{i:2d} error: the old text occurs {text.count(m.old)} times in {m.file}")
                failed += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            begin = time.perf_counter()
            code = pytest(copy, [] if args.full else m.tests)
            path.write_text(text)
            outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
            failed += code != 1
            print(f"{i:2d} {outcome:8s} {time.perf_counter() - begin:6.1f} s  "
                  f"{m.file}: {m.old.strip()!r} -> {m.new.strip()!r}")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
