import json
import random

import pytest

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
    store.node_bytes = {"tn-0": 1000.0}
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


def test_finalize_rejects_unbalanced_accounting(tmp_path):
    store = make_store()
    store.node_bytes["tn-0"] = 900.0
    with pytest.raises(InvariantError, match="accounting"):
        finalize(store, tmp_path)


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
