import itertools
import random

import pytest

from cdss_sim.band import (
    AllocationState,
    GroupAllocation,
    active_guard_rbs,
    build_band_plan,
    initial_allocation,
    validate_allocation,
)
from cdss_sim.controller import CdssConfig, apply_adjustment, decide_adjustment
from cdss_sim.errors import ConfigurationError


def test_build_band_plan_reference_layout():
    plan = build_band_plan(160, 3, [True, True, False])
    assert [g.size for g in plan.groups] == [54, 53, 53]
    assert [g.coordinated for g in plan.groups] == [True, True, False]
    # contiguous ascending, exactly covering [0, 160)
    assert plan.groups[0].rb_start == 0
    for prev, nxt in zip(plan.groups, plan.groups[1:]):
        assert prev.rb_stop == nxt.rb_start
    assert plan.groups[-1].rb_stop == 160


def test_build_band_plan_single_group():
    plan = build_band_plan(10, 1, [True])
    assert len(plan.groups) == 1
    assert plan.groups[0].rb_range == range(0, 10)


def test_build_band_plan_remainder_to_low_groups():
    plan = build_band_plan(7, 3, [True, True, True])
    assert [g.size for g in plan.groups] == [3, 2, 2]


@pytest.mark.parametrize(
    "total,groups,flags",
    [(10, 0, []), (0, 1, [True]), (2, 3, [True, True, True]), (10, 2, [True])],
)
def test_build_band_plan_rejects_bad_configs(total, groups, flags):
    with pytest.raises(ConfigurationError):
        build_band_plan(total, groups, flags)


def test_initial_allocation_equal_split():
    cfg = CdssConfig()
    plan = build_band_plan(53, 1, [True])
    alloc = initial_allocation(plan, cfg).allocations[0]
    assert (alloc.tn_rbs, alloc.guard_rbs, alloc.ntn_rbs) == (25, 3, 25)


def test_initial_allocation_odd_remainder_to_ntn():
    cfg = CdssConfig()
    plan = build_band_plan(54, 1, [True])
    alloc = initial_allocation(plan, cfg).allocations[0]
    assert (alloc.tn_rbs, alloc.guard_rbs, alloc.ntn_rbs) == (25, 3, 26)


def test_initial_allocation_infeasible_minimums():
    cfg = CdssConfig()  # 12 + 6 + 3 = 21 > 20
    plan = build_band_plan(20, 1, [True])
    with pytest.raises(ConfigurationError, match="group 0"):
        initial_allocation(plan, cfg)


def test_initial_allocation_skips_uncoordinated():
    cfg = CdssConfig()
    plan = build_band_plan(100, 2, [False, True])
    state = initial_allocation(plan, cfg)
    assert sorted(state.allocations) == [1]
    assert state.version == 0 and state.guard_timed == {}


def test_validate_allocation_clean_state():
    cfg = CdssConfig()
    plan = build_band_plan(160, 3, [True, True, False])
    state = initial_allocation(plan, cfg)
    assert validate_allocation(state, plan, cfg) == []


def test_validate_allocation_flags_conservation_break():
    cfg = CdssConfig()
    plan = build_band_plan(53, 1, [True])
    state = AllocationState({0: GroupAllocation(53, 3, 0)}, {}, 0)
    report = validate_allocation(state, plan, cfg)
    assert any("conservation" in v for v in report)


def test_validate_allocation_flags_minimum_break():
    cfg = CdssConfig()
    plan = build_band_plan(53, 1, [True])
    state = AllocationState({0: GroupAllocation(46, 3, 4)}, {}, 0)
    report = validate_allocation(state, plan, cfg)
    assert any("ntn_min" in v for v in report)


def test_validate_allocation_flags_guard_change():
    cfg = CdssConfig()
    plan = build_band_plan(53, 1, [True])
    state = AllocationState({0: GroupAllocation(25, 4, 24)}, {}, 0)
    report = validate_allocation(state, plan, cfg)
    assert any("guard" in v for v in report)


def set_built_validate(state, plan, cfg):
    """`validate_allocation` as it was when it built sets to check the tiling."""
    violations = []
    coordinated = set(plan.coordinated_indices())
    for gi in sorted(state.allocations):
        if gi not in coordinated:
            violations.append(f"group {gi}: allocation present for uncoordinated group")
    for gi in sorted(coordinated):
        alloc = state.allocations.get(gi)
        if alloc is None:
            violations.append(f"group {gi}: coordinated group has no allocation")
            continue
        group = plan.group(gi)
        if min(alloc.tn_rbs, alloc.guard_rbs, alloc.ntn_rbs) < 0:
            violations.append(f"group {gi}: negative range width in {alloc}")
            continue
        if alloc.size != group.size:
            violations.append(
                f"group {gi}: conservation broken, "
                f"{alloc.tn_rbs}+{alloc.guard_rbs}+{alloc.ntn_rbs} != {group.size}"
            )
        if alloc.tn_rbs < cfg.tn_min:
            violations.append(f"group {gi}: tn_rbs {alloc.tn_rbs} < tn_min {cfg.tn_min}")
        if alloc.ntn_rbs < cfg.ntn_min:
            violations.append(
                f"group {gi}: ntn_rbs {alloc.ntn_rbs} < ntn_min {cfg.ntn_min}"
            )
        if alloc.guard_rbs != cfg.guard_rbs:
            violations.append(
                f"group {gi}: guard width {alloc.guard_rbs} != configured {cfg.guard_rbs}"
            )
        lo = group.rb_start
        tn = range(lo, lo + alloc.tn_rbs)
        guard = range(tn.stop, tn.stop + alloc.guard_rbs)
        ntn = range(guard.stop, group.rb_stop)
        covered = set(tn) | set(guard) | set(ntn)
        disjoint = len(covered) == len(tn) + len(guard) + len(ntn)
        if not disjoint or covered != set(group.rb_range):
            violations.append(f"group {gi}: TN/guard/NTN ranges do not tile the group")
    return violations


def test_validate_allocation_matches_set_built_oracle():
    cfg = CdssConfig(tn_min=2, ntn_min=1, guard_rbs=1)
    widths = range(-1, 14)
    every = [GroupAllocation(t, g, n) for t in widths for g in widths for n in widths]
    sample = random.Random(12).sample(every, 24)
    kinds = ("uncoordinated", "no allocation", "negative", "conservation", "tn_min",
             "ntn_min", "guard width", "do not tile")
    seen = dict.fromkeys(kinds, 0)
    together = 0
    compared = 0
    for total in range(1, 13):
        layouts = [(1, [True]), (1, [False])]
        if total >= 2:
            layouts += [(2, flags) for flags in ([True, True], [True, False],
                                                  [False, True], [False, False])]
        for groups, flags in layouts:
            plan = build_band_plan(total, groups, flags)
            # every width triple for a lone coordinated group, else a sample
            choices = [None] + (every if flags == [True] else sample)
            for allocs in itertools.product(choices, repeat=groups):
                present = {gi: a for gi, a in enumerate(allocs) if a is not None}
                state = AllocationState(present, {}, 0)
                got = validate_allocation(state, plan, cfg)
                assert got == set_built_validate(state, plan, cfg), (plan, allocs)
                for kind in kinds:
                    seen[kind] += any(kind in v for v in got)
                together += any("conservation" in v for v in got) and any(
                    "do not tile" in v for v in got)
                compared += 1
    assert all(seen.values()), seen
    assert together > 0
    assert compared > 50_000


def test_active_guard_rbs_expiry_window():
    state = AllocationState({}, {10: 5, 11: 7}, 1)
    assert active_guard_rbs(state, 4) == {10, 11}
    assert active_guard_rbs(state, 5) == {11}
    assert active_guard_rbs(state, 7) == set()


def test_build_sizes_balanced_property():
    rng = random.Random(7)
    for _ in range(200):
        groups = rng.randint(1, 6)
        total = rng.randint(groups, 400)
        plan = build_band_plan(total, groups, [rng.random() < 0.5 for _ in range(groups)])
        sizes = [g.size for g in plan.groups]
        assert sum(sizes) == total
        assert max(sizes) - min(sizes) <= 1


def test_randomized_adjustment_sequences_keep_invariants():
    """Random walks through the controller never break band invariants."""
    rng = random.Random(20240805)
    for _ in range(300):
        groups = rng.randint(1, 4)
        flags = [rng.random() < 0.8 for _ in range(groups)]
        if not any(flags):
            flags[rng.randrange(groups)] = True
        cfg = CdssConfig(
            step_rbs=rng.randint(1, 6),
            tn_min=rng.randint(1, 5),
            ntn_min=rng.randint(1, 5),
            guard_rbs=rng.randint(0, 3),
        )
        per_group = cfg.tn_min + cfg.ntn_min + cfg.guard_rbs + rng.randint(0, 20)
        total = per_group * groups + rng.randint(0, groups - 1 if groups > 1 else 0)
        plan = build_band_plan(total, groups, flags)
        state = initial_allocation(plan, cfg)
        coordinated = plan.coordinated_indices()
        for step in range(12):
            gi = rng.choice(coordinated)
            load = rng.choice([0.0, 0.3, 0.7, 0.85, 1.0])
            delta = decide_adjustment(load, state.allocations[gi], cfg)
            state = apply_adjustment(state, plan, gi, delta, step, cfg)
            assert validate_allocation(state, plan, cfg) == []
