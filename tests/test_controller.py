import math
import random

import pytest

import cdss_sim.controller as controller_mod
from cdss_sim.band import GroupAllocation, build_band_plan, initial_allocation, rb_ranges
from cdss_sim.controller import (
    CdssConfig,
    LoadReport,
    SpectrumManager,
    aggregate_load,
    apply_adjustment,
    decide_adjustment,
)
from cdss_sim.errors import ConfigurationError, InvariantError, MissingDataError


def report(cell, group, used, avail, epoch=25):
    return LoadReport(cell, group, used, avail, epoch)


# ---------------------------------------------------------------------------
# aggregate_load

def test_aggregate_load_mean():
    reports = [report(0, 0, 50, 100), report(1, 0, 70, 100), report(2, 0, 90, 100)]
    assert aggregate_load(reports, 0) == pytest.approx(0.7)


def test_aggregate_load_single_report_identity():
    assert aggregate_load([report(0, 1, 42, 100)], 1) == pytest.approx(0.42)


def test_aggregate_load_ignores_other_groups():
    reports = [report(0, 0, 100, 100), report(0, 1, 0, 100)]
    assert aggregate_load(reports, 1) == 0.0


def test_aggregate_load_excludes_degenerate_and_errors_when_empty():
    with pytest.raises(MissingDataError):
        aggregate_load([report(0, 0, 0, 0)], 0)
    with pytest.raises(MissingDataError):
        aggregate_load([report(0, 1, 10, 20)], 0)


# ---------------------------------------------------------------------------
# decide_adjustment

CFG = CdssConfig()


def test_decide_above_upper_grows_tn():
    alloc = GroupAllocation(25, 3, 25)
    assert decide_adjustment(0.90, alloc, CFG) == 4


def test_decide_inside_band_no_update():
    alloc = GroupAllocation(25, 3, 25)
    assert decide_adjustment(0.70, alloc, CFG) == 0


def test_decide_below_lower_clamped_at_tn_min():
    alloc = GroupAllocation(12, 3, 38)
    assert decide_adjustment(0.10, alloc, CFG) == 0


def test_decide_partial_steps_near_minimums():
    assert decide_adjustment(0.10, GroupAllocation(14, 3, 36), CFG) == -2
    assert decide_adjustment(0.95, GroupAllocation(42, 3, 8), CFG) == 2


def test_decide_monotone_in_load():
    rng = random.Random(11)
    for _ in range(100):
        tn = rng.randint(CFG.tn_min, 40)
        ntn = rng.randint(CFG.ntn_min, 40)
        alloc = GroupAllocation(tn, 3, ntn)
        loads = sorted(rng.uniform(0, 1) for _ in range(6))
        deltas = [decide_adjustment(l, alloc, CFG) for l in loads]
        assert deltas == sorted(deltas)


# ---------------------------------------------------------------------------
# apply_adjustment

def brute_force_roles(group, alloc):
    """Role map straight from the layout definition, for oracle diffs."""
    roles = {}
    for rb in group.rb_range:
        local = rb - group.rb_start
        if local < alloc.tn_rbs:
            roles[rb] = "tn"
        elif local < alloc.tn_rbs + alloc.guard_rbs:
            roles[rb] = "guard"
        else:
            roles[rb] = "ntn"
    return roles


def test_rb_ranges_match_role_map_for_every_split():
    for total, flags in ((9, [True]), (17, [True, True]), (19, [False, True, True])):
        plan = build_band_plan(total, len(flags), flags)
        for group in plan.groups:
            if not group.coordinated:
                continue
            for tn in range(group.size + 1):
                for guard in range(group.size - tn + 1):
                    alloc = GroupAllocation(tn, guard, group.size - tn - guard)
                    ranges = rb_ranges(group, alloc)
                    roles = {rb: role for role, rbs in zip(("tn", "guard", "ntn"), ranges)
                             for rb in rbs}
                    assert sum(map(len, ranges)) == group.size
                    assert roles == brute_force_roles(group, alloc)


def test_rb_ranges_uncoordinated_group_goes_whole_to_both_systems():
    plan = build_band_plan(160, 3, [True, True, False])
    group = plan.group(2)
    assert rb_ranges(group, None) == (range(107, 160), range(0), range(107, 160))


def test_apply_positive_delta_roles_and_guard_timing():
    cfg = CdssConfig()
    plan = build_band_plan(53, 1, [True])
    state = initial_allocation(plan, cfg)
    new = apply_adjustment(state, plan, 0, 4, now=25, cfg=cfg)
    alloc = new.allocations[0]
    assert (alloc.tn_rbs, alloc.guard_rbs, alloc.ntn_rbs) == (29, 3, 21)
    before = brute_force_roles(plan.group(0), state.allocations[0])
    after = brute_force_roles(plan.group(0), alloc)
    changed = {rb for rb in before if before[rb] != after[rb]}
    assert changed == set(range(25, 32))
    assert set(new.guard_timed) == changed
    assert all(expiry == 25 + cfg.guard_time_epochs for expiry in new.guard_timed.values())
    assert new.version == state.version + 1


def test_apply_negative_delta_mirror():
    cfg = CdssConfig()
    plan = build_band_plan(53, 1, [True])
    state = initial_allocation(plan, cfg)
    new = apply_adjustment(state, plan, 0, -4, now=25, cfg=cfg)
    alloc = new.allocations[0]
    assert (alloc.tn_rbs, alloc.guard_rbs, alloc.ntn_rbs) == (21, 3, 29)
    before = brute_force_roles(plan.group(0), state.allocations[0])
    after = brute_force_roles(plan.group(0), alloc)
    changed = {rb for rb in before if before[rb] != after[rb]}
    assert changed == set(range(21, 28))
    assert set(new.guard_timed) == changed


def test_apply_zero_delta_identity():
    cfg = CdssConfig()
    plan = build_band_plan(53, 1, [True])
    state = initial_allocation(plan, cfg)
    new = apply_adjustment(state, plan, 0, 0, now=25, cfg=cfg)
    assert new is state


def test_apply_invalid_delta_aborts():
    cfg = CdssConfig()
    plan = build_band_plan(53, 1, [True])
    state = initial_allocation(plan, cfg)
    with pytest.raises(InvariantError):
        apply_adjustment(state, plan, 0, -20, now=25, cfg=cfg)


# ---------------------------------------------------------------------------
# sms_step

def saturating_reports(plan, load):
    out = []
    for g in plan.groups:
        if g.coordinated:
            out.append(report(0, g.index, int(load * 1000), 1000))
    return out


def test_sms_step_round_robin_order():
    cfg = CdssConfig()
    plan = build_band_plan(160, 3, [True, True, False])
    manager = SpectrumManager(plan, cfg)
    state = initial_allocation(plan, cfg)
    reports = saturating_reports(plan, 0.0)
    trail = []
    for now in (25, 50, 75):
        before = dict(state.allocations)
        state, _ = manager.sms_step(state, reports, now)
        touched = [gi for gi in state.allocations if state.allocations[gi] != before[gi]]
        trail.append(touched)
    assert trail == [[0], [1], [0]]


def test_sms_step_fixed_point_inside_band():
    cfg = CdssConfig()
    plan = build_band_plan(160, 3, [True, True, False])
    manager = SpectrumManager(plan, cfg)
    state = initial_allocation(plan, cfg)
    reports = saturating_reports(plan, 0.7)
    for now in range(25, 400, 25):
        state, delta = manager.sms_step(state, reports, now)
        assert delta == 0
    assert state.version == 0
    assert state.allocations == initial_allocation(plan, cfg).allocations


def test_sms_step_zero_load_converges_in_closed_form_visits():
    cfg = CdssConfig()
    plan = build_band_plan(160, 3, [True, True, False])
    manager = SpectrumManager(plan, cfg)
    state = initial_allocation(plan, cfg)
    reports = saturating_reports(plan, 0.0)
    expected_visits = {
        gi: math.ceil((state.allocations[gi].tn_rbs - cfg.tn_min) / cfg.step_rbs)
        for gi in state.allocations
    }
    visits = {gi: 0 for gi in state.allocations}
    converged_at = {}
    for i, now in enumerate(range(25, 1000, 25)):
        coordinated = plan.coordinated_indices()
        gi = coordinated[i % len(coordinated)]
        before = state.allocations[gi].tn_rbs
        state, _ = manager.sms_step(state, reports, now)
        if before > cfg.tn_min:
            visits[gi] += 1
        if state.allocations[gi].tn_rbs == cfg.tn_min and gi not in converged_at:
            converged_at[gi] = visits[gi]
        if len(converged_at) == len(visits):
            break
    assert converged_at == expected_visits


def test_sms_step_missing_data_skips_but_advances():
    cfg = CdssConfig()
    plan = build_band_plan(160, 3, [True, True, False])
    manager = SpectrumManager(plan, cfg)
    state = initial_allocation(plan, cfg)
    state2, delta = manager.sms_step(state, [], 25)
    assert state2 is state and delta == 0
    # group 0 was skipped; the next call must touch group 1
    reports = saturating_reports(plan, 0.0)
    state3, _ = manager.sms_step(state2, reports, 50)
    assert state3.allocations[1].tn_rbs < state.allocations[1].tn_rbs
    assert state3.allocations[0] == state.allocations[0]


def test_sms_step_grants_disjoint_with_exact_guard_gap():
    cfg = CdssConfig()
    plan = build_band_plan(160, 3, [True, True, False])
    manager = SpectrumManager(plan, cfg)
    state = initial_allocation(plan, cfg)
    before = state
    state, delta = manager.sms_step(state, saturating_reports(plan, 1.0), 25)
    assert delta == cfg.step_rbs and state.version == before.version + 1
    assert state.allocations[0].tn_rbs == before.allocations[0].tn_rbs + delta
    tn, _, ntn = rb_ranges(plan.group(0), state.allocations[0])
    assert set(tn).isdisjoint(ntn)
    assert ntn.start - tn.stop == cfg.guard_rbs


def test_sms_step_no_coordinated_groups_is_a_noop():
    cfg = CdssConfig()
    plan = build_band_plan(160, 3, [False, False, False])
    manager = SpectrumManager(plan, cfg)
    state = initial_allocation(plan, cfg)
    new, delta = manager.sms_step(state, [], 25)
    assert new is state and delta == 0


def test_sms_step_does_not_run_a_group_again_on_the_state_and_rows_it_held_on(monkeypatch):
    # A step reads only the state, the selected group's reports and the
    # cursor, so a group that held on a state and load rows equal to this
    # step's holds at once, its reports unread (None here).  Another group,
    # another state (after group 1 moves) or other rows run the step; a
    # step given no rows always runs.
    cfg = CdssConfig()
    plan = build_band_plan(160, 3, [True, True, False])
    manager = SpectrumManager(plan, cfg)
    state = initial_allocation(plan, cfg)
    held, high, runs = saturating_reports(plan, 0.7), saturating_reports(plan, 1.0), []
    aggregate = controller_mod.aggregate_load
    monkeypatch.setattr(controller_mod, "aggregate_load",
                        lambda reports, gi: runs.append(gi) or aggregate(reports, gi))
    rows = [[0, 7, 7]]
    assert manager.sms_step(state, held, 25, rows) == (state, 0)            # group 0 runs
    assert manager.sms_step(state, held, 50, rows) == (state, 0)            # group 1 runs
    assert manager.sms_step(state, None, 75, [[0, 7, 7]]) == (state, 0)     # group 0 held
    moved, delta = manager.sms_step(state, high, 100, [[0, 10, 10]])        # group 1 runs
    assert delta == cfg.step_rbs and runs == [0, 1, 1]
    for now in (125, 150):                       # groups 0 and 1 run on the new state
        assert manager.sms_step(moved, held, now, rows) == (moved, 0)
    for now in (175, 200):
        assert manager.sms_step(moved, None, now, rows) == (moved, 0)
    assert manager.sms_step(moved, held, 225) == (moved, 0)
    assert runs == [0, 1, 1, 0, 1, 0]


def test_cdss_config_validation():
    with pytest.raises(ConfigurationError):
        CdssConfig(lower_threshold=0.9, upper_threshold=0.8)
    with pytest.raises(ConfigurationError):
        CdssConfig(step_rbs=0)
    with pytest.raises(ConfigurationError):
        CdssConfig(period_s=0.0)


def test_load_report_rejects_bad_counts():
    with pytest.raises(ValueError):
        LoadReport(0, 0, 11, 10, 25)
