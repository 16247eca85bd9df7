"""Acceptance suite: every criterion prints one PASS line when it holds.

The campaign fixture runs the full 4-case x 10-seed grid once and is shared
by the ordering, fairness, and performance criteria.  Tolerances are fixed
here, not configurable.
"""

import itertools
import math
import random
import time

import pytest

from cdss_sim.band import build_band_plan, initial_allocation, validate_allocation
from cdss_sim.controller import CdssConfig, LoadReport, SpectrumManager
from cdss_sim.engine import RunSpec, run_and_write, run_campaign, run_simulation
from cdss_sim.scenario import default_scenario

from reference_controller import ReferenceController
from store_rows import timeline

SEEDS = list(range(1, 11))
CASES_ALL = [1, 2, 3, 4]


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    started = time.perf_counter()
    result = run_campaign(default_scenario(), CASES_ALL, SEEDS, out, jobs=1)
    elapsed = time.perf_counter() - started
    assert all(r.ok for r in result.records), [r.error for r in result.records if not r.ok]
    return result, elapsed


def _records(campaign_result, case_id):
    return sorted(
        (r for r in campaign_result.records if r.case_id == case_id),
        key=lambda r: r.seed,
    )


def test_criterion_1_low_demand_convergence():
    started = time.perf_counter()
    store = run_simulation(RunSpec(default_scenario(), 2, 1))
    runtime = time.perf_counter() - started

    per_group = {}
    for row in timeline(store):
        if row.coordinated:
            per_group.setdefault(row.group_index, []).append(row)
    assert sorted(per_group) == [0, 1]
    for gi, rows in per_group.items():
        tn = [r.tn_rbs for r in rows]
        assert all(a >= b for a, b in zip(tn, tn[1:])), f"group {gi} not monotone: {tn}"
        hit = [r for r in rows if r.tn_rbs == 12]
        assert hit, f"group {gi} never reached tn_min"
        assert hit[0].time_s < 5.0, f"group {gi} reached tn_min at {hit[0].time_s}s"
        assert tn[-1] == 12

    assert abs(store.tn_share - 0.47) <= 0.05, store.tn_share
    assert runtime < 5.0, f"run took {runtime:.2f}s"
    print(
        f"PASS criterion 1: TN monotone to 12 RBs before t=5s, final share "
        f"{store.tn_share:.3f} (47% +/- 5pp), runtime {runtime:.2f}s"
    )


def test_criterion_2_share_ordering(campaign):
    result, _ = campaign
    tn_ld = [r.tn_share for r in _records(result, 2)]
    tn_hd = [r.tn_share for r in _records(result, 4)]
    ntn_ld = [r.ntn_share for r in _records(result, 2)]
    ntn_hd = [r.ntn_share for r in _records(result, 4)]
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(tn_hd) > mean(tn_ld), (mean(tn_hd), mean(tn_ld))
    assert mean(ntn_ld) > mean(ntn_hd), (mean(ntn_ld), mean(ntn_hd))
    print(
        f"PASS criterion 2: TN share HD {mean(tn_hd):.3f} > LD {mean(tn_ld):.3f}; "
        f"NTN share LD {mean(ntn_ld):.3f} > HD {mean(ntn_hd):.3f}"
    )


def _paired_margin(a_records, b_records):
    """Mean and standard error of per-seed differences a - b."""
    diffs = [
        a.total_rx_bytes - b.total_rx_bytes for a, b in zip(a_records, b_records)
    ]
    n = len(diffs)
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    return mean, math.sqrt(var / n)


def test_criterion_3_total_data_ordering(campaign):
    result, _ = campaign
    ld_margin, ld_se = _paired_margin(_records(result, 2), _records(result, 1))
    hd_margin, hd_se = _paired_margin(_records(result, 3), _records(result, 4))
    assert ld_margin > ld_se, f"LD margin {ld_margin:.0f} vs se {ld_se:.0f}"
    assert hd_margin > hd_se, f"HD margin {hd_margin:.0f} vs se {hd_se:.0f}"
    print(
        f"PASS criterion 3: coordinated sharing gains {ld_margin / 1e6:.2f} MB "
        f"(se {ld_se / 1e6:.2f}) under LD; TN-only gains {hd_margin / 1e6:.2f} MB "
        f"(se {hd_se / 1e6:.2f}) under HD"
    )


def test_criterion_4_fairness_zero_throughput(campaign):
    result, _ = campaign
    for case in (1, 3):
        recs = _records(result, case)
        pooled = [t for r in recs for t in r.throughputs_bps]
        frac = sum(1 for t in pooled if t == 0.0) / len(pooled)
        assert 0.05 <= frac <= 0.30, f"case {case}: zero fraction {frac:.3f}"
    for case in (2, 4):
        for r in _records(result, case):
            assert r.zero_throughput_fraction == 0.0, (
                f"case {case} seed {r.seed}: {r.zero_throughput_fraction}"
            )
    fr1 = result.aggregates[1]["zero_throughput_fraction"]
    fr3 = result.aggregates[3]["zero_throughput_fraction"]
    print(
        f"PASS criterion 4: zero-throughput fraction TN-only {fr1:.3f}/{fr3:.3f} "
        f"within [0.05, 0.30]; coordinated cases all-served"
    )


def test_criterion_5_randomized_invariant_suite():
    rng = random.Random(1220)
    sequences = 10_000
    steps_per_sequence = 5
    checked = 0
    for _ in range(sequences):
        groups = rng.randint(1, 4)
        flags = [rng.random() < 0.75 for _ in range(groups)]
        if not any(flags):
            flags[rng.randrange(groups)] = True
        cfg = CdssConfig(
            step_rbs=rng.randint(1, 6),
            tn_min=rng.randint(1, 6),
            ntn_min=rng.randint(1, 6),
            guard_rbs=rng.randint(0, 4),
            guard_time_epochs=rng.randint(0, 3),
        )
        per_group = cfg.tn_min + cfg.ntn_min + cfg.guard_rbs
        total = groups * (per_group + rng.randint(0, 24)) + rng.randint(0, groups - 1)
        plan = build_band_plan(total, groups, flags)
        state = initial_allocation(plan, cfg)
        manager = SpectrumManager(plan, cfg)
        for step in range(1, steps_per_sequence + 1):
            load = rng.choice([0.0, 0.2, 0.5999, 0.7, 0.8001, 1.0])
            used = int(load * 1_000_000)
            reports = [
                LoadReport(0, gi, used, 1_000_000, step)
                for gi in plan.coordinated_indices()
            ]
            state, _ = manager.sms_step(state, reports, step)
            violations = validate_allocation(state, plan, cfg)
            assert violations == [], violations
            checked += 1
    assert checked == sequences * steps_per_sequence
    print(
        f"PASS criterion 5: {sequences} randomized controller sequences "
        f"({checked} steps), zero invariant violations"
    )


def _layout(plan):
    return [(g.index, g.rb_start, g.size, g.coordinated) for g in plan.groups]


def _plan_catalog():
    """Every band plan with <= 2 groups of size <= 16 for the oracle sweep."""
    cfg = CdssConfig(
        step_rbs=1, tn_min=2, ntn_min=1, guard_rbs=1, guard_time_epochs=1
    )
    needed = cfg.tn_min + cfg.ntn_min + cfg.guard_rbs
    catalog = []
    for total in range(needed, 17):
        catalog.append((build_band_plan(total, 1, [True]), cfg))
    for total in range(2, 33):
        for flags in ((True, True), (True, False), (False, True)):
            plan = build_band_plan(total, 2, flags)
            sizes_ok = all(
                g.size >= needed for g in plan.groups if g.coordinated
            ) and all(g.size <= 16 for g in plan.groups)
            if sizes_ok and any(flags):
                catalog.append((plan, cfg))
    return catalog


def test_criterion_6_controller_oracle_equivalence():
    started = time.perf_counter()
    loads = (0.0, 0.7, 1.0)
    catalog = _plan_catalog()
    compared = 0
    for plan, cfg in catalog:
        # length-6 sequences cover every shorter prefix by determinism
        for sequence in itertools.product(loads, repeat=6):
            manager = SpectrumManager(plan, cfg)
            state = initial_allocation(plan, cfg)
            ref = ReferenceController(
                _layout(plan),
                cfg.lower_threshold,
                cfg.upper_threshold,
                cfg.step_rbs,
                cfg.tn_min,
                cfg.ntn_min,
                cfg.guard_rbs,
                cfg.guard_time_epochs,
            )
            for step, load in enumerate(sequence, start=1):
                used = int(load * 1000)
                reports = [
                    LoadReport(0, gi, used, 1000, step)
                    for gi in plan.coordinated_indices()
                ]
                state, _ = manager.sms_step(state, reports, step)
                ref.step_once(load, step)
                got = {
                    gi: (a.tn_rbs, a.guard_rbs, a.ntn_rbs)
                    for gi, a in state.allocations.items()
                }
                assert got == ref.allocations(), (plan, sequence, step)
                assert state.version == ref.version, (plan, sequence, step)
                assert state.guard_timed == ref.guard_timed, (plan, sequence, step)
                compared += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    print(
        f"PASS criterion 6: {len(catalog)} plans x 729 load sequences "
        f"({compared} steps) match the brute-force reference in {elapsed:.1f}s"
    )


def test_criterion_7_determinism(tmp_path):
    spec_dirs = (tmp_path / "r1", tmp_path / "r2")
    outputs = []
    for d in spec_dirs:
        _, files = run_and_write(RunSpec(default_scenario(), 2, 3), d)
        outputs.append({name: path.read_bytes() for name, path in files.items()})
    assert outputs[0] == outputs[1]

    camp_dirs = (tmp_path / "c_seq", tmp_path / "c_par")
    for d, jobs in zip(camp_dirs, (1, 2)):
        run_campaign(default_scenario(), [2], [3, 4], d, jobs=jobs)
    seq_files = sorted(p.name for p in camp_dirs[0].iterdir())
    par_files = sorted(p.name for p in camp_dirs[1].iterdir())
    assert seq_files == par_files
    for name in seq_files:
        assert (camp_dirs[0] / name).read_bytes() == (camp_dirs[1] / name).read_bytes()
    print(
        "PASS criterion 7: repeated runs and parallel-vs-sequential campaigns "
        "produce byte-identical outputs"
    )


def test_criterion_8_campaign_performance(campaign):
    result, elapsed = campaign
    assert len(result.records) == 40
    assert elapsed < 300.0, f"campaign took {elapsed:.1f}s"
    print(f"PASS criterion 8: 4x10 campaign finished in {elapsed:.1f}s (< 300s)")
