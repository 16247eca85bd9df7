import json
import random

import pytest

from cdss_sim.engine import RunSpec, run_and_write
from cdss_sim.errors import InvariantError
from cdss_sim.metrics import (
    MetricsStore,
    TimelineRow,
    UtilizationSample,
    compute_cdf,
    finalize,
    write_table,
)
from cdss_sim.sums import fold_sum
from cdss_sim.traffic import Node


def test_compute_cdf_simple():
    cdf = compute_cdf([3, 1, 2])
    assert cdf.values == (1, 2, 3)
    assert cdf.probabilities == pytest.approx((1 / 3, 2 / 3, 1.0))
    # the P = 2/3 point sits at value 2
    assert cdf.values[cdf.probabilities.index(pytest.approx(2 / 3))] == 2


def test_compute_cdf_degenerate_single_step():
    cdf = compute_cdf([5.0, 5.0, 5.0])
    assert cdf.values == (5.0, 5.0, 5.0)
    assert cdf.probabilities[-1] == 1.0


def test_compute_cdf_zero_mass_visible():
    cdf = compute_cdf([0.0] * 15 + [1.0] * 85)
    at_zero = [p for v, p in zip(cdf.values, cdf.probabilities) if v <= 0.0]
    assert at_zero[-1] == pytest.approx(0.15)


def test_compute_cdf_empty_rejected():
    with pytest.raises(ValueError):
        compute_cdf([])


def test_compute_cdf_probability_monotone_property():
    rng = random.Random(2)
    for _ in range(30):
        samples = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 60))]
        cdf = compute_cdf(samples)
        assert list(cdf.values) == sorted(samples)
        probs = list(cdf.probabilities)
        assert probs == sorted(probs)
        assert probs[-1] == pytest.approx(1.0)


def make_store():
    store = MetricsStore(case_id=2, seed=1, total_s=10.0, warmup_s=5.0)
    store.ue_bytes = {0: 1000.0, 1: 0.0}
    store.ue_system = {0: "TN", 1: "none"}
    store.unserved_ues = [1]
    store.node_rb_counts = {"tn-0": 77}
    store.timeline = [
        TimelineRow(0, 0, 0.0, 0, 53, True, 25, 3, 25, 0),
        TimelineRow(1, 25, 0.25, 0, 53, True, 21, 3, 29, 1),
    ]
    store.final_allocation = [TimelineRow(1, 25, 0.25, 0, 53, True, 21, 3, 29, 1)]
    store.utilization = [UtilizationSample(0, 21, 5.25, 50, 100)]
    store.tn_share = 0.48
    store.ntn_share = 0.72
    store.sms_steps = 1
    return store


def test_finalize_writes_all_artifacts(tmp_path):
    files = finalize(make_store(), tmp_path)
    expected = {
        "allocation_timeline",
        "final_allocation",
        "rb_counts",
        "throughput",
        "utilization",
        "summary",
    }
    assert set(files) == expected
    for path in files.values():
        assert path.exists() and path.stat().st_size > 0
    summary = json.loads(files["summary"].read_text())
    assert summary["case"] == 2 and summary["seed"] == 1
    assert summary["zero_throughput_ues"] == 1
    assert summary["total_rx_bytes"] == 1000.0
    tput_lines = files["throughput"].read_text().splitlines()
    assert tput_lines[0] == "ue_id,system,rx_bytes,throughput_bps"
    # post-warmup horizon is 5 s: 1000 bytes -> 1600 bps
    assert tput_lines[1] == "0,TN,1000.0,1600.0"


def plain_report_files(store):
    """The allocation timeline and utilization files of `store`, one plain
    f-string per row."""
    timeline = "".join(
        f"{r.step},{r.epoch},{r.time_s!r},{r.group_index},{r.group_size},"
        f"{int(r.coordinated)},{r.tn_rbs},{r.guard_rbs},{r.ntn_rbs},{r.version}\n"
        for r in store.timeline)
    utilization = "".join(
        f"{s.cell_id},{s.period_index},{s.time_s!r},"
        f"{s.used_rb_epochs},{s.available_rb_epochs},{s.utilization!r}\n"
        for s in store.utilization)
    return (("step,epoch,time_s,group,group_size,coordinated,tn_rbs,guard_rbs,ntn_rbs,version\n"
             + timeline).encode(),
            ("cell_id,period,time_s,used_rb_epochs,available_rb_epochs,utilization\n"
             + utilization).encode())


def test_report_lines_match_plain_per_row_formatting(tmp_path):
    # `finalize` formats the fields after the time once for each distinct
    # tuple of them.  Its files must be byte for byte those a plain
    # f-string per row writes: with a suffix that recurs on other cells and
    # periods, samples that share their used count but not their available
    # one and the reverse, an empty period, a state's widths (25, 3, 25)
    # that come back under a later, non-adjacent version, rows that share
    # one time object, and adjacent times that are equal but print
    # otherwise (0.0 and -0.0).  Empty tables still write their header line.
    rng = random.Random(73)
    store = make_store()
    widths = [(25, 3, 25, 0), (21, 3, 29, 1), (21, 3, 29, 1), (17, 3, 33, 2), (25, 3, 25, 3),
              (25, 3, 25, 3), (29, 3, 21, 4)]
    store.timeline = [
        TimelineRow(step, 25 * step, 0.25 * step, g, 53 + (g == 2), g < 2,
                    *((tn, guard, ntn) if g < 2 else (54, 0, 0)), version)
        for step, (tn, guard, ntn, version) in enumerate(widths) for g in range(3)]
    pairs = [(50, 100), (50, 80), (40, 100), (0, 0), (100, 100), (33, 97)]
    store.utilization = [UtilizationSample(cell, period, 0.25 * period, *rng.choice(pairs))
                         for period in range(20, 40) for cell in range(9)]
    store.utilization[:4] = [UtilizationSample(cell, 20, 5.0, *pair)
                             for cell, pair in enumerate(pairs[:4])]
    store.utilization[4:6] = [UtilizationSample(4, 20, 0.0, *pairs[0]),
                              UtilizationSample(5, 20, -0.0, *pairs[0])]
    files = finalize(store, tmp_path)
    assert (files["allocation_timeline"].read_bytes(),
            files["utilization"].read_bytes()) == plain_report_files(store)
    assert len({s[3:] for s in store.utilization}) == len(pairs)
    store.timeline, store.utilization = [], []
    files = finalize(store, tmp_path)
    assert (files["allocation_timeline"].read_bytes(),
            files["utilization"].read_bytes()) == plain_report_files(store)
    assert files["utilization"].read_text().count("\n") == 1


def test_finalize_rejects_unbalanced_accounting(fast_cfg, tmp_path, monkeypatch):
    # A run checks each UE's credited bytes against its backlogs: those
    # before the first credited epoch, plus the arrivals since, minus the
    # final ones.  One amount credited twice, once in the whole run, fails
    # the run before any report is written; the same run is clean without.
    record, doubled = Node.record, []

    def doubling(node, sched, credit):
        record(node, sched, credit)
        if credit and sched.served_bytes and not doubled:
            p, amount = sched.served_bytes[0]
            node.books[p] += amount
            doubled.append(node.ue_ids[p])

    spec = RunSpec(fast_cfg, 2, 1)
    run_and_write(spec, tmp_path / "clean")
    monkeypatch.setattr(Node, "record", doubling)
    with pytest.raises(InvariantError, match="accounting"):
        run_and_write(spec, tmp_path / "doubled")
    assert doubled and not list((tmp_path / "doubled").iterdir())


def test_finalize_rejects_timeline_conservation_break(tmp_path):
    store = make_store()
    store.timeline.append(TimelineRow(2, 50, 0.5, 0, 53, True, 30, 3, 25, 2))
    with pytest.raises(InvariantError, match="conserve"):
        finalize(store, tmp_path)


def test_throughputs_include_zero_ues():
    store = make_store()
    tputs = store.throughputs_bps()
    assert tputs[1] == 0.0
    assert tputs[0] == pytest.approx(1600.0)


def test_utilization_sample_ratio():
    s = UtilizationSample(0, 1, 0.25, 25, 100)
    assert s.utilization == 0.25
    assert UtilizationSample(0, 1, 0.25, 0, 0).utilization == 0.0


def test_float_totals_add_left_to_right():
    # A compensated sum (Python 3.12's sum() of floats) gives 1.0 here; the
    # report files print the sequential fold, 0.0, in every version.
    values = [1e16, 1.0, -1e16]
    assert fold_sum(values) == 0.0
    assert fold_sum(values[1:], 1e16) == 0.0
    assert fold_sum([]) == 0 and isinstance(fold_sum([]), int)   # as sum([]) is
    store = MetricsStore(case_id=1, seed=1, total_s=1.0, warmup_s=0.0)
    store.ue_bytes = dict(enumerate(values))
    assert store.total_rx_bytes() == 0.0


def test_write_table_replaces_an_existing_report(tmp_path):
    # A report is unlinked and written anew: a longer earlier file leaves
    # nothing behind, and a symlinked report becomes a plain file.
    path = tmp_path / "table.csv"
    write_table(path, "a,b", ["1,2", "3,4", "5,6"])
    assert write_table(path, "a", ["7"]) == path
    assert path.read_bytes() == b"a\n7\n"
    target = tmp_path / "target.csv"
    target.write_text("kept\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    write_table(link, "b", [])
    assert not link.is_symlink() and link.read_text() == "b\n"
    assert target.read_text() == "kept\n"


def test_write_table_failure_is_an_invariant_error(tmp_path):
    (tmp_path / "table.csv").mkdir()
    with pytest.raises(InvariantError, match="failed to write report"):
        write_table(tmp_path / "table.csv", "a", ["1"])
    with pytest.raises(InvariantError):
        write_table(tmp_path / "missing" / "table.csv", "a", ["1"])
