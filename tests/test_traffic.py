import random
from dataclasses import FrozenInstanceError

import pytest

from cdss_sim.controller import aggregate_load
from cdss_sim.errors import MissingDataError
from cdss_sim.traffic import (
    CellSchedule,
    Node,
    PeriodLoad,
    generate_arrivals,
    grant_tables,
    schedule_epoch,
)

import reference_scheduler


def backlog_for(ue_ids, backlog):
    """A backlog list indexed by ue_id: `backlog` bytes for each of `ue_ids`."""
    out = [0.0] * (max(ue_ids, default=-1) + 1)
    for uid in ue_ids:
        out[uid] = backlog
    return out


def flat_rate(rate, n_ue=8):
    """A byte row in which UEs 0..n_ue-1 all carry `rate` bytes per RB."""
    return [rate] * n_ue


def node_for(ue_order, offset=0, num_groups=1):
    """A node serving `ue_order`, starting its rotation at `offset`."""
    return Node("tn-0", 0, PeriodLoad(num_groups), list(ue_order), offset)


def deal(node, backlog, granted, row):
    """schedule_epoch over RBs of one group whose byte row is `row`; the
    new grant leaves the node's replay memo empty."""
    granted = list(granted)
    group_of_rb = [0] * (max(granted, default=-1) + 1)
    node.set_grant(granted, *grant_tables(granted, group_of_rb, [row]))
    return schedule_epoch(node, backlog)


def served(sched):
    """The schedule's served bytes as {ue_id: bytes}, in first-service order."""
    return dict(sched.served_bytes)


def rb_count(sched, uid, rate):
    """RBs a UE received, for UEs whose every RB carried a full `rate`."""
    return served(sched)[uid] / rate


def replayed(sched, returned):
    """Whether `sched` is a replay hit, that is the very object an earlier
    call returned (a miss builds a new one); then records it."""
    hit = any(sched is earlier for earlier in returned)
    returned.append(sched)
    return hit


def cbr_increment(demand_bps, epoch_s):
    """Bytes one epoch of CBR demand adds, as the engine computes them."""
    return demand_bps * epoch_s / 8.0


def test_arrivals_rate_times_time():
    backlog = [0.0]
    generate_arrivals(backlog, [cbr_increment(400e3, 0.01)])
    assert backlog[0] == pytest.approx(500.0)


def test_arrivals_zero_rate():
    backlog = [123.0]
    generate_arrivals(backlog, [cbr_increment(0.0, 0.01)])
    assert backlog[0] == 123.0


def test_arrivals_high_rate():
    backlog = [0.0]
    generate_arrivals(backlog, [cbr_increment(4e6, 0.01)])
    assert backlog[0] == pytest.approx(5000.0)


def test_schedule_even_split_two_ues():
    backlog = backlog_for([1, 2], backlog=1e9)
    sched = deal(node_for([1, 2]), backlog, range(10), flat_rate(225.0))
    assert rb_count(sched, 1, 225.0) == 5
    assert rb_count(sched, 2, 225.0) == 5
    assert sched.used_rb == 10 and sched.used_per_group == (10,)


def test_schedule_three_ues_rotation_cycles():
    backlog = backlog_for([1, 2, 3], backlog=1e9)
    node = node_for([1, 2, 3])
    counts = []
    for _ in range(3):
        sched = deal(node, backlog, range(10), flat_rate(225.0))
        counts.append({uid: rb_count(sched, uid, 225.0) for uid in served(sched)})
    assert counts[0] == {1: 4, 2: 3, 3: 3}
    assert counts[1] == {2: 4, 3: 3, 1: 3}
    assert counts[2] == {3: 4, 1: 3, 2: 3}
    totals = {uid: sum(c[uid] for c in counts) for uid in (1, 2, 3)}
    assert totals == {1: 10, 2: 10, 3: 10}


def test_schedule_no_backlog_uses_nothing():
    backlog = backlog_for([1, 2], backlog=0.0)
    sched = deal(node_for([1, 2]), backlog, range(10), flat_rate(225.0))
    assert sched.used_rb == 0 and served(sched) == {}
    assert sched.used_per_group == (0,)


def test_schedule_satisfied_ue_leaves_rotation():
    backlog = [0.0, 100.0, 1e9]
    sched = deal(node_for([1, 2]), backlog, range(10), flat_rate(225.0))
    assert sched.used_rb - rb_count(sched, 2, 225.0) == 1    # UE 1's single RB
    assert served(sched)[1] == pytest.approx(100.0)
    assert rb_count(sched, 2, 225.0) == 9
    assert backlog[1] == 0.0


def test_schedule_zero_rate_ue_skipped():
    backlog = [0.0, 1e9, 1e9]
    rate = [0.0, 0.0, 225.0]    # UE 1 carries nothing, UE 2 225 bytes
    sched = deal(node_for([1, 2]), backlog, range(10), rate)
    assert 1 not in served(sched)
    assert rb_count(sched, 2, 225.0) == 10


def test_schedule_work_conservation():
    rng = random.Random(9)
    for _ in range(50):
        n_ue = rng.randint(1, 6)
        backlog = [rng.uniform(10, 5e4) for _ in range(n_ue)]
        granted = list(range(rng.randint(1, 40)))
        sched = deal(node_for(range(n_ue)), backlog, granted, flat_rate(225.0))
        if any(b > 0 for b in backlog):
            assert sched.used_rb == len(granted)
        assert sched.used_rb <= len(granted)


def test_schedule_served_never_exceeds_start_backlog():
    backlog = backlog_for([1], backlog=500.0)
    sched = deal(node_for([1]), backlog, range(50), flat_rate(225.0))
    assert served(sched)[1] == pytest.approx(500.0)
    assert 500.0 - backlog[1] == pytest.approx(500.0)


def test_long_run_throughput_never_exceeds_demand():
    backlog = backlog_for([7], backlog=0.0)
    increments = backlog_for([7], backlog=cbr_increment(1.2e6, 0.01))
    node = node_for([7])
    epochs = 200
    received = 0.0
    for _ in range(epochs):
        generate_arrivals(backlog, increments)
        sched = deal(node, backlog, range(40), flat_rate(450.0))
        received += served(sched).get(7, 0.0)
    assert received <= 1.2e6 * epochs * 0.01 / 8.0 + 1e-9


def test_schedule_fairness_equal_se_saturated():
    backlog = backlog_for(list(range(5)), backlog=1e12)
    node = node_for(range(5))
    totals = {u: 0 for u in range(5)}
    for _ in range(10):
        sched = deal(node, backlog, range(17), flat_rate(1.0))
        for uid in served(sched):
            totals[uid] += rb_count(sched, uid, 1.0)
        counts = [rb_count(sched, uid, 1.0) for uid in served(sched)]
        assert max(counts) - min(counts) <= 1
    assert max(totals.values()) - min(totals.values()) <= 1


def test_schedule_matches_per_rb_reference():
    # Round dealing must reproduce the per-RB deque exactly: the same
    # bytes in the same order, the same skips of zero-capacity UEs and
    # unused RBs, and the same rotation pointer.
    rng = random.Random(31)
    n_ids = 16
    unused_seen = drained_seen = 0
    for _ in range(400):
        n_groups = rng.randint(1, 3)
        group_of_rb = sorted(rng.randrange(n_groups) for _ in range(200))
        rows = [[rng.choice([0.0, 0.0, 37.5, 225.0, rng.uniform(1.0, 500.0)])
                 for _ in range(n_ids)] for _ in range(n_groups)]
        ue_order = rng.sample(range(n_ids), rng.randint(0, 12))
        granted = rng.sample(range(200), rng.randint(0, 200))
        granted_rows, prefix = grant_tables(granted, group_of_rb, rows)
        backlog = [0.0] * n_ids
        ref_backlog = {uid: reference_scheduler.Backlog() for uid in ue_order}
        start = rng.randrange(20)
        node = node_for(ue_order, start, n_groups)
        node.set_grant(granted, granted_rows, prefix)
        ref_rotation = reference_scheduler.Rotation(start)
        for epoch in range(3):
            for uid in ue_order:
                extra = rng.choice([0.0, 225.0 * rng.randint(1, 6),
                                    rng.uniform(1.0, 3000.0), 1e12])
                backlog[uid] += extra
                ref_backlog[uid].backlog_bytes += extra
            got = schedule_epoch(node, backlog)
            want = reference_scheduler.schedule_epoch(
                "tn-0", epoch, ue_order, ref_backlog, granted,
                lambda uid, rb: rows[group_of_rb[rb]][uid], ref_rotation,
            )
            assert list(got.served_bytes) == list(want.served_bytes.items())
            assert {u: backlog[u] for u in ue_order} == {
                u: f.backlog_bytes for u, f in ref_backlog.items()}
            assert got.used_rb == want.used_rb
            assert list(got.used_per_group) == reference_scheduler.used_per_group(
                want, group_of_rb, n_groups)
            assert node.offset == ref_rotation.offset
            dealt = [rb for rbs in want.assignments.values() for rb in rbs]
            last = max((granted.index(rb) for rb in dealt), default=-1)
            unused_seen += last + 1 - len(dealt)
            drained_seen += sum(1 for f in ref_backlog.values() if f.backlog_bytes == 0.0)
    # the inputs exercise the skip rule's unused RBs and drained UEs
    assert unused_seen > 0 and drained_seen > 0


def test_schedule_memo_replay_matches_per_rb_reference():
    # CBR nodes repeat their starting backlogs, so the memo replays most
    # epochs.  In-place row rewrites (followed by the memo clear the engine
    # makes after a rewriting ByteFactors.refresh) and grant rebuilds
    # (set_grant, as engine._grant_rbs does) are interleaved; every epoch
    # must still equal the per-RB reference exactly.
    rng = random.Random(47)
    n_ids, n_rbs, epoch_s, n_nodes, n_epochs = 12, 90, 0.01, 60, 50
    hits = rewrites = rebuilds = 0
    for _ in range(n_nodes):
        n_groups = rng.randint(1, 3)
        group_of_rb = sorted(rng.randrange(n_groups) for _ in range(n_rbs))
        levels = [0.0, 37.5, 225.0, rng.uniform(1.0, 500.0)]

        def new_row():
            return [rng.choice(levels) for _ in range(n_ids)]

        def new_grant():
            granted = rng.sample(range(n_rbs), rng.randint(1, 60))
            node.set_grant(granted, *grant_tables(granted, group_of_rb, rows))

        rows = [new_row() for _ in range(n_groups)]
        ue_order = rng.sample(range(n_ids), rng.randint(1, 10))
        # bytes per epoch: idle, whole RBs, arbitrary, saturating
        demand = {uid: 800.0 * rng.choice([0.0, 225.0 * rng.randint(1, 4),
                                           rng.uniform(1.0, 2000.0), 1e5])
                  for uid in ue_order}
        increments = [0.0] * n_ids
        for uid in ue_order:
            increments[uid] = cbr_increment(demand[uid], epoch_s)
        backlog = [0.0] * n_ids
        ref_backlog = {uid: reference_scheduler.Backlog() for uid in ue_order}
        start = rng.randrange(20)
        node = node_for(ue_order, start, n_groups)
        ref_rotation = reference_scheduler.Rotation(start)
        returned = []
        new_grant()
        for epoch in range(n_epochs):
            if rng.random() < 0.1:
                rows[rng.randrange(n_groups)][:] = new_row()
                node.slots.clear()
                rewrites += 1
            if rng.random() < 0.1:
                new_grant()
                rebuilds += 1
            generate_arrivals(backlog, increments)
            for uid, held in ref_backlog.items():
                held.backlog_bytes += increments[uid]
            got = schedule_epoch(node, backlog)
            want = reference_scheduler.schedule_epoch(
                "tn-0", epoch, ue_order, ref_backlog, node.granted,
                lambda uid, rb: rows[group_of_rb[rb]][uid], ref_rotation,
            )
            assert list(got.served_bytes) == list(want.served_bytes.items())
            assert {u: backlog[u] for u in ue_order} == {
                u: f.backlog_bytes for u, f in ref_backlog.items()}
            assert got.used_rb == want.used_rb
            assert list(got.used_per_group) == reference_scheduler.used_per_group(
                want, group_of_rb, n_groups)
            assert node.offset == ref_rotation.offset
            hits += replayed(got, returned)
    assert rewrites > 0 and rebuilds > 0
    assert 0 < hits < n_nodes * n_epochs


def test_schedule_memo_replays_fresh_copies():
    # A hit returns the stored schedule itself, so no caller may change
    # it: every assignment raises, and later hits replay the same values.
    granted = list(range(10))
    node = node_for([1, 2])
    node.set_grant(granted, *grant_tables(granted, [0] * 10, [flat_rate(225.0)]))
    backlog = backlog_for([1, 2], backlog=0.0)
    returned, hits = [], 0
    for epoch in range(6):
        backlog[1] = backlog[2] = 450.0
        sched = schedule_epoch(node, backlog)
        hits += replayed(sched, returned)
        first, second = (1, 2) if epoch % 2 == 0 else (2, 1)
        assert list(sched.served_bytes) == [(first, 450.0), (second, 450.0)]
        assert sched.node_bytes == 900.0
        assert sched.used_rb == 4 and sched.used_per_group == (4,)
        assert backlog[1] == backlog[2] == 0.0
        with pytest.raises(TypeError):
            sched.served_bytes[0] = (first, -1.0)
        with pytest.raises(TypeError):
            sched.used_per_group[0] = -1
        with pytest.raises(FrozenInstanceError):
            sched.used_rb = -1
    assert hits == 4


def make_sched(granted, used_per_group):
    return CellSchedule(tuple(granted), ((0, 0.0),), 0.0, sum(used_per_group),
                        tuple(used_per_group))


def test_cell_load_ratio():
    load = PeriodLoad(1)
    for _ in range(5):
        load.add(make_sched(range(20), [15]), [20])
    (rep,) = load.reports(0, [0], 25)
    assert rep.used_rb_epochs == 75
    assert rep.available_rb_epochs == 100
    assert rep.used_rb_epochs / rep.available_rb_epochs == pytest.approx(0.75)
    assert (load.used_total, load.avail_total) == (75, 100)


def test_cell_load_idle_period():
    load = PeriodLoad(1)
    for _ in range(5):
        load.add(make_sched(range(20), [0]), [20])
    (rep,) = load.reports(0, [0], 25)
    assert rep.used_rb_epochs == 0
    assert PeriodLoad(1).reports(0, [0], 50) == []


def test_cell_load_counts_only_group_span():
    load = PeriodLoad(3)
    load.add(make_sched(range(0, 30), [10, 10, 10]), [10, 10, 10])
    (rep,) = load.reports(0, [1], 25)
    assert rep.group_index == 1
    assert rep.used_rb_epochs == 10
    assert rep.available_rb_epochs == 10


def test_cell_load_errors():
    # A group with no granted RBs yields no report, so the controller
    # finds no usable report and skips the group.
    load = PeriodLoad(1)
    load.add(make_sched([], [0]), [0])
    reports = load.reports(0, [0], 25)
    assert reports == []
    with pytest.raises(MissingDataError):
        aggregate_load(reports, 0)
