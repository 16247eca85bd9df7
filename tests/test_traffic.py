import copy
import math
import random
import pytest
from hypothesis import given, settings, strategies as st

from cdss_sim.controller import LoadReport, aggregate_load
from cdss_sim.engine import _load_reports
from cdss_sim.errors import MissingDataError
from cdss_sim.metrics import TimelineRow, UtilizationSample
from cdss_sim.sums import fold_sum
from cdss_sim.traffic import (
    CellSchedule,
    Cycle,
    Node,
    generate_arrivals,
    grant_tables,
    period_load,
    schedule_epoch,
)

import reference_scheduler


def flat_rate(rate, n_ue=8):
    """A byte row in which UEs 0..n_ue-1 all carry `rate` bytes per RB."""
    return [rate] * n_ue


def node_for(ue_order, offset=0, backlog=0.0, increments=None):
    """A node serving `ue_order`, starting its rotation at `offset`, with
    `backlog` bytes queued per UE (a number, or a list in `ue_order` order)
    and per-epoch arrivals `increments` (none by default)."""
    n = len(ue_order)
    if not isinstance(backlog, list):
        backlog = [backlog] * n
    return Node("tn-0", 0, list(ue_order), offset, backlog,
                [0.0] * n if increments is None else increments)


def deal(node, granted, row):
    """schedule_epoch over RBs of one load column whose byte row is `row`;
    the new grant leaves the node's replay memo empty."""
    granted = list(granted)
    n_rbs = max(granted, default=-1) + 1
    node.set_grant(granted, *grant_tables(granted, [row] * n_rbs, [0] * n_rbs))
    return schedule_epoch(node)


def backlogs(node):
    """The node's backlogs as {ue_id: bytes}."""
    return dict(zip(node.ue_ids, node.backlog))


def by_uid(node, sched):
    """The schedule's served bytes, kept by UE position, as (ue_id, bytes)
    pairs in position order."""
    return [(node.ue_ids[p], amount) for p, amount in sched.served_bytes]


def by_position(node, want):
    """The per-RB reference's served bytes as (ue_id, bytes) pairs in the
    order of the node's UEs, that is by UE position."""
    return [(uid, want.served_bytes[uid]) for uid in node.ue_ids if uid in want.served_bytes]


def positions_ascend(sched):
    """Whether the schedule lists each served UE position once, in
    ascending order."""
    positions = [p for p, _ in sched.served_bytes]
    return all(a < b for a, b in zip(positions, positions[1:]))


def served(node, sched):
    """The schedule's served bytes as {ue_id: bytes}, in position order."""
    return dict(by_uid(node, sched))


def rb_count(node, sched, uid, rate):
    """RBs a UE received, for UEs whose every RB carried a full `rate`."""
    return served(node, sched)[uid] / rate


def replayed(sched, returned):
    """Whether `sched` is a replay hit, that is the very object an earlier
    call returned (a miss builds a new one); then records it."""
    hit = any(sched is earlier for earlier in returned)
    returned.append(sched)
    return hit


def miss_from(node):
    """What the node's next `schedule_epoch` deals from: None for a replay
    hit, else "drained" for a key of all-zero backlogs, which copies the
    node's `drained` arrivals, or "queued" for any other key."""
    slot = node.slots.get(node.offset % node.rotation)
    if slot is not None and slot[0] == node.backlog:
        return None
    return "queued" if any(node.backlog) else "drained"


def drained_twin(node, start):
    """Whether the slot of the rotation start before `start` was dealt from
    a drained key, used RBs and drained every UE: all of the twin rule but
    the capacity test."""
    slot = node.slots.get((start - 1) % node.rotation)
    return slot is not None and not any(slot[0]) and not any(slot[1]) and slot[2].used_rb > 0


def twin_hit(node, sched):
    """The node's twin schedule if its last epoch, which returned `sched`,
    replayed the twin slot, else None: a twin hit returns the twin's own
    schedule and its final backlog list."""
    twin = node.twin
    return twin[2] if twin and sched is twin[2] and node.backlog is twin[1] else None


def cbr_increment(demand_bps, epoch_s):
    """Bytes one epoch of CBR demand adds, as the engine computes them."""
    return demand_bps * epoch_s / 8.0


def arrive(backlog, increment):
    """One epoch of a UE's node with no granted RB: only its arrivals."""
    node = node_for([0], backlog=backlog, increments=[increment])
    deal(node, [], flat_rate(225.0))
    return node.backlog


def test_arrivals_rate_times_time():
    backlog = arrive(0.0, cbr_increment(400e3, 0.01))
    assert backlog[0] == pytest.approx(500.0)


def test_arrivals_zero_rate():
    backlog = arrive(123.0, cbr_increment(0.0, 0.01))
    assert backlog[0] == 123.0


def test_arrivals_high_rate():
    backlog = arrive(0.0, cbr_increment(4e6, 0.01))
    assert backlog[0] == pytest.approx(5000.0)


def test_arrivals_return_a_new_list():
    # the memo keeps backlog lists, so arrivals never write into one
    backlog = [1.0, 2.0]
    assert generate_arrivals(backlog, [0.5, 0.0]) == [1.5, 2.0]
    assert backlog == [1.0, 2.0]


def test_schedule_even_split_two_ues():
    node = node_for([1, 2], backlog=1e9)
    sched = deal(node, range(10), flat_rate(225.0))
    assert rb_count(node, sched, 1, 225.0) == 5
    assert rb_count(node, sched, 2, 225.0) == 5
    assert sched.used_rb == 10 and sched.load == (10, 10)


def test_schedule_three_ues_rotation_cycles():
    node = node_for([1, 2, 3], backlog=1e9)
    counts = []
    for _ in range(3):
        sched = deal(node, range(10), flat_rate(225.0))
        counts.append({uid: rb_count(node, sched, uid, 225.0) for uid in served(node, sched)})
    assert counts[0] == {1: 4, 2: 3, 3: 3}
    assert counts[1] == {2: 4, 3: 3, 1: 3}
    assert counts[2] == {3: 4, 1: 3, 2: 3}
    totals = {uid: sum(c[uid] for c in counts) for uid in (1, 2, 3)}
    assert totals == {1: 10, 2: 10, 3: 10}


def test_schedule_no_backlog_uses_nothing():
    node = node_for([1, 2], backlog=0.0)
    sched = deal(node, range(10), flat_rate(225.0))
    assert sched.used_rb == 0 and served(node, sched) == {}
    assert sched.load == (0, 10)


def test_schedule_satisfied_ue_leaves_rotation():
    node = node_for([1, 2], backlog=[100.0, 1e9])
    sched = deal(node, range(10), flat_rate(225.0))
    assert sched.used_rb - rb_count(node, sched, 2, 225.0) == 1    # UE 1's single RB
    assert served(node, sched)[1] == pytest.approx(100.0)
    assert rb_count(node, sched, 2, 225.0) == 9
    assert backlogs(node)[1] == 0.0


def test_schedule_zero_rate_ue_skipped():
    rate = [0.0, 0.0, 225.0]    # UE 1 carries nothing, UE 2 225 bytes
    node = node_for([1, 2], backlog=1e9)
    sched = deal(node, range(10), rate)
    assert 1 not in served(node, sched)
    assert rb_count(node, sched, 2, 225.0) == 10


def test_schedule_work_conservation():
    rng = random.Random(9)
    for _ in range(50):
        n_ue = rng.randint(1, 6)
        node = node_for(range(n_ue), backlog=[rng.uniform(10, 5e4) for _ in range(n_ue)])
        granted = list(range(rng.randint(1, 40)))
        sched = deal(node, granted, flat_rate(225.0))
        if any(b > 0 for b in node.backlog):
            assert sched.used_rb == len(granted)
        assert sched.used_rb <= len(granted)


def test_schedule_served_never_exceeds_start_backlog():
    node = node_for([1], backlog=500.0)
    sched = deal(node, range(50), flat_rate(225.0))
    assert served(node, sched)[1] == pytest.approx(500.0)
    assert 500.0 - node.backlog[0] == pytest.approx(500.0)


def test_long_run_throughput_never_exceeds_demand():
    node = node_for([7], increments=[cbr_increment(1.2e6, 0.01)])
    epochs = 200
    received = 0.0
    for _ in range(epochs):
        sched = deal(node, range(40), flat_rate(450.0))
        received += served(node, sched).get(7, 0.0)
    assert received <= 1.2e6 * epochs * 0.01 / 8.0 + 1e-9


def test_schedule_fairness_equal_se_saturated():
    node = node_for(range(5), backlog=1e12)
    totals = {u: 0 for u in range(5)}
    for _ in range(10):
        sched = deal(node, range(17), flat_rate(1.0))
        for uid in served(node, sched):
            totals[uid] += rb_count(node, sched, uid, 1.0)
        counts = [rb_count(node, sched, uid, 1.0) for uid in served(node, sched)]
        assert max(counts) - min(counts) <= 1
    assert max(totals.values()) - min(totals.values()) <= 1


def test_schedule_matches_per_rb_reference():
    # Round dealing must reproduce the per-RB deque exactly: the same
    # bytes to each UE, listed by UE position and summed in that order,
    # the same skips of zero-capacity UEs and unused RBs, and the same
    # rotation pointer.
    rng = random.Random(31)
    n_ids = 16
    unused_seen = drained_seen = 0
    misses = {"drained": 0, "queued": 0}
    forms = [0, 0]      # nodes dealt per RB, and over one byte row
    for _ in range(400):
        n_groups = rng.randint(1, 3)
        group_of_rb = sorted(rng.randrange(n_groups) for _ in range(200))
        rows = [[rng.choice([0.0, 0.0, 37.5, 225.0, rng.uniform(1.0, 500.0)])
                 for _ in range(n_ids)] for _ in range(n_groups)]
        ue_order = rng.sample(range(n_ids), rng.randint(0, 12))
        granted = rng.sample(range(200), rng.randint(0, 200))
        # each group its own load column
        tables = grant_tables(granted, [rows[g] for g in group_of_rb], group_of_rb)
        forms[tables[2] is not None] += bool(granted and ue_order)
        ref_backlog = {uid: reference_scheduler.Backlog() for uid in ue_order}
        start = rng.randrange(20)
        node = node_for(ue_order, start)
        node.set_grant(granted, *tables)
        ref_rotation = reference_scheduler.Rotation(start)
        for epoch in range(3):
            # varying arrivals: rebind the backlogs (never mutate them in
            # place) and leave the node's own increments at zero
            extras = [rng.choice([0.0, 225.0 * rng.randint(1, 6),
                                  rng.uniform(1.0, 3000.0), 1e12]) for _ in ue_order]
            node.backlog = [b + extra for b, extra in zip(node.backlog, extras)]
            for uid, extra in zip(ue_order, extras):
                ref_backlog[uid].backlog_bytes += extra
            kind = miss_from(node)
            if kind and ue_order:
                misses[kind] += 1
            got = schedule_epoch(node)
            want = reference_scheduler.schedule_epoch(
                "tn-0", epoch, ue_order, ref_backlog, granted,
                lambda uid, rb: rows[group_of_rb[rb]][uid], ref_rotation,
            )
            assert positions_ascend(got)
            assert by_uid(node, got) == by_position(node, want)
            assert backlogs(node) == {u: f.backlog_bytes for u, f in ref_backlog.items()}
            assert got.used_rb == want.used_rb
            assert got.activity == (want.used_rb / len(granted) if granted else 0.0)
            assert list(got.load) == reference_scheduler.load_row(
                want, granted, group_of_rb, n_groups)
            assert node.offset == ref_rotation.offset % node.rotation
            dealt = [rb for rbs in want.assignments.values() for rb in rbs]
            last = max((granted.index(rb) for rb in dealt), default=-1)
            unused_seen += last + 1 - len(dealt)
            drained_seen += sum(1 for f in ref_backlog.values() if f.backlog_bytes == 0.0)
    # the inputs exercise the skip rule's unused RBs and drained UEs, and
    # misses from both kinds of key (the increments are all 0.0, so a
    # drained key's arrivals are all 0.0 and every UE is filtered out)
    assert unused_seen > 0 and drained_seen > 0
    # 12 and 1,096 in these draws
    assert misses["drained"] >= 6 and misses["queued"] >= 500, misses
    # both forms of the dealing loop: several rows, and one row (248 and
    # 119 nodes with UEs and RBs in these draws)
    assert min(forms) >= 100, forms


def takes_needed(backlog, cap):
    """The RBs of capacity `cap` that a UE with `backlog` bytes takes to
    drain, counted by the scheduler's own fold: 0 when it declines or has
    no backlog."""
    if cap <= 0.0 or backlog <= 0.0:
        return 0
    n = 1
    while backlog > cap:
        backlog -= cap
        n += 1
    return n


def ends_in_a_partial_round(needs, n_rb):
    """Whether a round-robin deal of `n_rb` RBs to UEs that each need
    `needs` RBs runs out of RBs with fewer left than UEs still taking."""
    live = [n for n in needs if n]
    while live and n_rb:
        if n_rb < len(live):
            return True
        n_rb -= len(live)
        live = [n - 1 for n in live if n > 1]
    return False


# A UE of a one-row deal: its capacity (0.0 among them, and sevenths, whose
# sums round), where its backlog lies (0.0, the capacity, one ulp either
# side of it, or in a range of up to eight capacities) and the fraction of
# that range.
ONE_ROW_UES = st.lists(st.tuples(st.sampled_from([0.0, 37.5, 225.0]) | st.floats(1.0, 500.0)
                                 | st.integers(7, 3500).map(lambda i: i / 7.0),
                                 st.sampled_from(["zero", "cap", "below", "above", "range"]),
                                 st.floats(0.0, 1.0)), max_size=12)


def one_row_backlog(cap, edge, fraction):
    """A UE's backlog of the kind `edge` names, for capacity `cap`."""
    if edge == "range":
        return 1.0 + fraction * 8.0 * max(cap, 1.0)
    return {"zero": 0.0, "cap": cap, "below": max(math.nextafter(cap, -math.inf), 0.0),
            "above": math.nextafter(cap, math.inf)}[edge]


def test_one_row_schedule_matches_per_rb_reference():
    # A grant whose RBs all carry one byte row is dealt per UE in whole
    # rounds (see `schedule_epoch`).  From every rotation start it must
    # equal the per-RB reference: the same bytes to each UE, backlogs,
    # used RBs, activity and load row.  The grant's size is drawn at, one
    # below and one above the RBs the UEs need in total, so that deals end
    # in a partial round, in which only the first UEs take an RB, or leave
    # RBs unused; in some draws every UE declines.
    reached = {"partial round": 0, "every UE declines": 0, "unused RBs": 0}

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(ONE_ROW_UES, st.sampled_from([-1, 0, 1]), st.sampled_from([False] * 4 + [True]),
           st.randoms(use_true_random=False))
    def deal_from_every_start(ues, off_by, declining, rng):
        caps = [0.0 if declining else cap for cap, _, _ in ues]
        backlog = [one_row_backlog(*ue) for ue in ues]
        ue_ids = rng.sample(range(len(ues)), len(ues))
        row = [0.0] * len(ues)
        for uid, cap in zip(ue_ids, caps):
            row[uid] = cap
        needs = [takes_needed(b, cap) for cap, b in zip(caps, backlog)]
        n_rb = sum(needs) + off_by
        if not 0 <= n_rb <= 40:
            n_rb = rng.randint(0, 40)
        granted = rng.sample(range(n_rb), n_rb)
        # two load columns; the last RB of the map is never granted
        column_of_rb = [rng.randrange(2) for _ in range(n_rb)] + [1]
        tables = grant_tables(granted, [row] * (n_rb + 1), column_of_rb)
        assert tables[2] is (row if granted else None)
        reached["partial round"] += ends_in_a_partial_round(needs, n_rb)
        reached["every UE declines"] += bool(ues and n_rb and not any(row))
        reached["unused RBs"] += 0 < sum(needs) < n_rb
        for start in range(max(len(ues), 1)):
            node = node_for(ue_ids, start, backlog)
            node.set_grant(granted, *tables)
            ref_backlog = {uid: reference_scheduler.Backlog(b) for uid, b in zip(ue_ids, backlog)}
            ref_rotation = reference_scheduler.Rotation(start)
            got = schedule_epoch(node)
            want = reference_scheduler.schedule_epoch(
                "tn-0", 0, ue_ids, ref_backlog, granted, lambda uid, rb: row[uid], ref_rotation)
            assert by_uid(node, got) == by_position(node, want)
            assert backlogs(node) == {u: f.backlog_bytes for u, f in ref_backlog.items()}
            assert got.used_rb == want.used_rb
            assert got.activity == (want.used_rb / n_rb if n_rb else 0.0)
            assert list(got.load) == reference_scheduler.load_row(want, granted, column_of_rb, 2)
            assert node.offset == ref_rotation.offset % node.rotation

    deal_from_every_start()
    # 21, 25 and 31 of the 200 examples
    assert reached["partial round"] >= 15 and reached["every UE declines"] >= 20, reached
    assert reached["unused RBs"] >= 25, reached


class CountedRow(list):
    """A byte row that counts the entries read from it."""

    reads = 0

    def __getitem__(self, uid):
        self.reads += 1
        return super().__getitem__(uid)


def test_one_row_deal_in_which_every_ue_declines_checks_each_ue_once():
    # A one-row grant that every UE declines costs one check per UE, not
    # one per (UE, RB): at 2,000 UEs and 2,000 RBs such an epoch took
    # 0.235 s when each RB was offered to every queued UE.  It reads the
    # row once per UE, deals nothing, leaves every backlog as it was and
    # reports activity 0.0, as the per-RB reference does at a small size.
    for n in (2000, 5):
        backlog = [float(1 + p) for p in range(n)]
        node = node_for(range(n), 3, list(backlog))
        row = CountedRow([0.0] * n)
        sched = deal(node, range(n), row)
        assert node.row is row and row.reads == n
        assert (sched.served_bytes, sched.used_rb, sched.activity) == ((), 0, 0.0)
        assert sched.load == (0, n) and node.backlog == backlog
    ref_backlog = {uid: reference_scheduler.Backlog(b) for uid, b in enumerate(backlog)}
    want = reference_scheduler.schedule_epoch("tn-0", 0, range(n), ref_backlog, range(n),
                                              lambda uid, rb: 0.0, reference_scheduler.Rotation(3))
    assert (want.served_bytes, want.used_rb) == ({}, 0)
    assert [f.backlog_bytes for f in ref_backlog.values()] == backlog


def test_schedule_memo_replay_matches_per_rb_reference():
    # CBR nodes repeat their starting backlogs, so the memo replays most
    # epochs.  In-place rewrites of some entries of a row and grant
    # rebuilds (set_grant, as engine._grant_rbs does) are interleaved.  As
    # in the engine after a ByteFactors.refresh, a rewrite clears the memo
    # only if it changed an entry of one of the node's UEs, and otherwise
    # the memo keeps its slots; every epoch must still equal the per-RB
    # reference exactly.
    # A drained key with no slot of its own replays a verified twin slot
    # instead of dealing (see `traffic._twin`); every field of that twin
    # hit must equal the reference's deal from its own start.  The nodes
    # after the first 60 decline no RB and saturate no UE, as in the
    # default scenario, so their drained epochs can hit twins.
    rng = random.Random(47)
    n_ids, n_rbs, epoch_s, n_nodes, n_epochs = 12, 90, 0.01, 120, 50
    hits = rewrites = kept = rebuilds = 0
    misses = {"drained": 0, "queued": 0, "drained with an idle UE": 0, "drained twice": 0}
    twin_hits = {"multi-round": 0, "single-take": 0, "capacity fails": 0}
    for node_index in range(n_nodes):
        plain = node_index >= 60
        n_groups = rng.randint(1, 3)
        group_of_rb = sorted(rng.randrange(n_groups) for _ in range(n_rbs))
        levels = [rng.uniform(1.0, 500.0) if plain else 0.0, 37.5, 225.0,
                  rng.uniform(1.0, 500.0)]

        def new_row():
            return [rng.choice(levels) for _ in range(n_ids)]

        def new_grant():
            granted = rng.sample(range(n_rbs), rng.randint(1, 60))
            # each group its own load column
            node.set_grant(granted, *grant_tables(granted, [rows[g] for g in group_of_rb],
                                                  group_of_rb))

        rows = [new_row() for _ in range(n_groups)]
        ue_order = rng.sample(range(n_ids), rng.randint(1, 10))
        # bytes per epoch: idle, whole RBs, arbitrary, saturating (in a
        # plain node, under one RB)
        demand = {uid: 800.0 * rng.choice([0.0, 225.0 * rng.randint(1, 4),
                                           rng.uniform(1.0, 2000.0),
                                           rng.uniform(1.0, 40.0) if plain else 1e5])
                  for uid in ue_order}
        increments = [cbr_increment(demand[uid], epoch_s) for uid in ue_order]
        ref_backlog = {uid: reference_scheduler.Backlog() for uid in ue_order}
        start = rng.randrange(20)
        node = node_for(ue_order, start, increments=increments)
        ref_rotation = reference_scheduler.Rotation(start)
        returned = []
        previous = None
        new_grant()
        for epoch in range(n_epochs):
            if rng.random() < 0.1:
                row = rows[rng.randrange(n_groups)]
                old = list(row)
                for uid in rng.sample(range(n_ids), rng.randint(1, n_ids)):
                    row[uid] = rng.choice(levels)
                if any(row[uid] != old[uid] for uid in ue_order):
                    node.clear_memo()
                else:
                    kept += bool(node.slots)
                rewrites += 1
            if rng.random() < 0.1:
                new_grant()
                rebuilds += 1
            for uid, inc in zip(ue_order, increments):
                ref_backlog[uid].backlog_bytes += inc
            kind = miss_from(node)
            if kind:
                misses[kind] += 1
            if kind == "drained":
                misses["drained with an idle UE"] += 0.0 in increments
                misses["drained twice"] += previous == "drained"
            previous = kind
            near_twin = kind == "drained" and drained_twin(node, node.offset % len(ue_order))
            got = schedule_epoch(node)
            want = reference_scheduler.schedule_epoch(
                "tn-0", epoch, ue_order, ref_backlog, node.granted,
                lambda uid, rb: rows[group_of_rb[rb]][uid], ref_rotation,
            )
            twin = twin_hit(node, got) if kind else None
            if twin is not None:
                twin_hits["multi-round" if twin.used_rb > len(twin.served_bytes)
                          else "single-take"] += 1
            else:
                twin_hits["capacity fails"] += near_twin
            assert tuple(got.granted) == want.granted
            assert positions_ascend(got)
            assert by_uid(node, got) == by_position(node, want)
            assert backlogs(node) == {u: f.backlog_bytes for u, f in ref_backlog.items()}
            assert got.used_rb == want.used_rb
            assert got.activity == want.used_rb / len(node.granted)   # a hit's too
            assert list(got.load) == reference_scheduler.load_row(
                want, node.granted, group_of_rb, n_groups)
            assert node.offset == ref_rotation.offset
            hits += replayed(got, returned)
    # the memo outlives 107 of the 650 rewrites with slots held (43 of the
    # first 60 nodes' 321)
    assert rewrites > 0 and kept >= 50 and rebuilds > 0, (rewrites, kept, rebuilds)
    assert 0 < hits < n_nodes * n_epochs
    # misses from both kinds of key; drained keys whose arrivals hold a
    # 0.0, so the zero-backlog filter runs; and a drained miss right after
    # another on one node, which deals from `drained` again: 1,542, 3,710,
    # 1,311 and 1,112 (203, 2,690, 178 and 117 in the first 60 nodes)
    assert misses["drained"] >= 600 and misses["queued"] >= 1800, misses
    assert misses["drained with an idle UE"] >= 500 and misses["drained twice"] >= 450, misses
    # twin hits in which some UE takes several RBs of one capacity and in
    # which each UE takes one RB, and deals from a drained key that only
    # the capacity test kept from a twin hit: 420, 60 and 520
    assert twin_hits["multi-round"] >= 120 and twin_hits["single-take"] >= 12, twin_hits
    assert twin_hits["capacity fails"] >= 250, twin_hits


def test_schedule_memo_replays_fresh_copies():
    # A hit returns the stored schedule itself, so no caller may change
    # it: every assignment raises, and later hits replay the same values.
    # The other records built on the epoch path are immutable too.
    granted = list(range(10))
    node = node_for([1, 2])
    node.set_grant(granted, *grant_tables(granted, [flat_rate(225.0)] * 10, [0] * 10))
    returned, hits = [], 0
    for epoch in range(6):
        node.backlog = [450.0, 450.0]
        sched = schedule_epoch(node)
        hits += replayed(sched, returned)
        # both starts list the amounts by position
        assert by_uid(node, sched) == [(1, 450.0), (2, 450.0)]
        assert [p for p, _ in sched.served_bytes] == [0, 1]
        assert sched.used_rb == 4 and sched.load == (4, 10)
        assert node.backlog == [0.0, 0.0]
        with pytest.raises(TypeError):
            sched.served_bytes[0] = (0, -1.0)
        with pytest.raises(TypeError):
            sched.load[0] = -1
        with pytest.raises(AttributeError):
            sched.used_rb = -1
    assert hits == 4
    records = [(LoadReport(0, 0, 4, 10, 25), "used_rb_epochs"),
               (TimelineRow(0, 0, 0.0, 0, 53, True, 25, 3, 25, 0), "tn_rbs"),
               (UtilizationSample(0, 1, 0.25, 4, 10), "used_rb_epochs")]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, -1)
        assert getattr(record, name) != -1


def test_node_without_grant_adds_arrivals_then_resumes():
    # A node with UEs and no granted RB adds its arrivals and keeps its
    # rotation; when the grant returns, it deals as the per-RB reference
    # does from the grown backlogs.
    ue_order = [3, 1, 4]
    increments = [cbr_increment(rate, 0.01) for rate in (400e3, 4e6, 1.2e6)]
    row = [225.0, 450.0, 0.0, 225.0, 37.5]
    full = list(range(12))
    node = node_for(ue_order, 2, increments=increments)
    ref_backlog = {uid: reference_scheduler.Backlog() for uid in ue_order}
    ref_rotation = reference_scheduler.Rotation(2)
    grants = [full] * 3 + [[]] * 3 + [full] * 4 + [[]] * 2 + [full] * 3
    for epoch, granted in enumerate(grants):
        if granted != node.granted:
            node.set_grant(granted, *grant_tables(granted, [row] * 12, [0] * 12))
        for uid, inc in zip(ue_order, increments):
            ref_backlog[uid].backlog_bytes += inc
        got = schedule_epoch(node)
        want = reference_scheduler.schedule_epoch(
            "tn-0", epoch, ue_order, ref_backlog, granted, lambda uid, rb: row[uid],
            ref_rotation,
        )
        assert positions_ascend(got)
        assert by_uid(node, got) == by_position(node, want)
        assert backlogs(node) == {u: f.backlog_bytes for u, f in ref_backlog.items()}
        assert got.used_rb == want.used_rb
        assert node.offset == ref_rotation.offset
        assert got.load == (want.used_rb, len(granted))
    assert node.backlog[1] > 0.0          # UE 1's 4 Mbit/s outgrows the grant


def test_period_load_fold_matches_per_epoch_oracle():
    # The engine sums a period's load rows once, at its end.  A naive
    # oracle adds every epoch's granted and dealt RBs one by one from the
    # per-RB reference, each group in its own load column.  The grant is
    # rebuilt mid-period, and a node with no UEs still counts its granted
    # RBs.
    rng = random.Random(53)
    n_groups, n_rbs = 3, 60
    group_of_rb = sorted(rng.randrange(n_groups) for _ in range(n_rbs))
    rows = [[rng.choice([0.0, 37.5, 225.0, 450.0]) for _ in range(8)]
            for _ in range(n_groups)]
    ue_order = [5, 0, 2, 7, 3]
    increments = [cbr_increment(rng.choice([40e3, 400e3, 1.2e6]), 0.01) for _ in ue_order]
    busy, empty = node_for(ue_order, 1, increments=increments), node_for([])
    ref_backlog = {uid: reference_scheduler.Backlog() for uid in ue_order}
    ref_rotation = reference_scheduler.Rotation(1)
    used, avail = [0] * n_groups, [0] * n_groups
    for epoch in range(25):
        if epoch in (0, 12):
            granted = rng.sample(range(n_rbs), rng.randint(10, 50))
            for node in (busy, empty):
                node.set_grant(granted, *grant_tables(
                    granted, [rows[g] for g in group_of_rb], group_of_rb))
        for uid, inc in zip(ue_order, increments):
            ref_backlog[uid].backlog_bytes += inc
        want = reference_scheduler.schedule_epoch(
            "tn-0", epoch, ue_order, ref_backlog, granted,
            lambda uid, rb: rows[group_of_rb[rb]][uid], ref_rotation,
        )
        for node in (busy, empty):
            node.period.append(schedule_epoch(node).load)
        for rb in granted:
            avail[group_of_rb[rb]] += 1
        for rbs in want.assignments.values():
            for rb in rbs:
                used[group_of_rb[rb]] += 1
    assert period_load(busy.period) == used + avail
    assert period_load(empty.period) == [0] * n_groups + avail
    assert 0 < sum(used) < sum(avail)


def make_sched(granted, used_per_column, granted_per_column):
    used = sum(used_per_column)
    return CellSchedule(tuple(granted), ((0, 0.0),), used,
                        (*used_per_column, *granted_per_column),
                        used / len(granted) if granted else 0.0)


def test_period_load_of_runs_equals_expanded_epochs():
    # A cycle's window adds whole cycles and a window that may wrap past
    # the cycle's end; it must read as the epochs it stands for, added one
    # by one, for every start position and for epoch counts below, at and
    # above a multiple of the cycle, alone (a whole period fast-forwarded)
    # and between scheduled epochs.  `Cycle.window` sums that row once:
    # the same list each time it is asked for.
    rng = random.Random(61)
    checked = 0
    for n in (1, 2, 3, 7):
        n_columns = rng.randint(1, 3)
        schedules = []
        for _ in range(n):
            granted = [rng.randint(0, 12) for _ in range(n_columns)]
            used = [rng.randint(0, g) for g in granted]
            schedules.append(make_sched(range(sum(granted)), used, granted))
        cycle = Cycle([([], [], sched) for sched in schedules])
        extra = make_sched(range(5), [1] * n_columns, [2] * n_columns)
        for start in range(n):
            for count in {1, max(1, n - 1), n, n + 1, 3 * n - 1, 3 * n, 3 * n + 1}:
                epochs = [schedules[(start + j) % n] for j in range(count)]
                window = cycle.window(start, count)
                for period, expanded in (([window], epochs),
                                         ([extra.load, window, extra.load],
                                          [extra, *epochs, extra])):
                    want = [0] * (2 * n_columns)
                    for sched in expanded:
                        for c, value in enumerate(sched.load):
                            want[c] += value
                    assert period_load(period) == want, (n, start, count)
                    checked += 1
                assert cycle.window(start, count) is window
    assert checked > 100


def test_fast_forward_matches_epoch_by_epoch_scheduling():
    # A node fast-forwarded K epochs must end where its twin that schedules
    # those K epochs one at a time ends: the same rotation, backlogs and
    # period load and the same byte totals bit for bit.  Grant rebuilds and
    # row rewrites come between the fast-forwards; as in the engine, the
    # epochs from `warmup` on are credited, and the node records each
    # scheduled epoch (`Node.record`), which credits the epoch after the
    # fast-forwarded ones.  The twin's books are added up here, one epoch
    # at a time, and compared after each fast-forward and each recorded
    # epoch.  A change is likelier right after a fast-forward (in the
    # engine one ends at a period end, where the grant may change), so the
    # recorded epoch often serves other amounts than the credited ones.
    # In a total far above its amounts every addition rounds to one grid,
    # in any order; so after each check the books are redrawn across 24
    # binades around the amounts (1 to 2,000 bytes), where the order of
    # additions changes the bits.  One grant in ten is empty and one node
    # in seven has no UE: both take the same path as any other node.  The
    # last 20 nodes decline no RB and want less than any RB carries, so
    # each UE drains on one RB from any start: their drained epochs are
    # twins, steady from a slot for one start (`Node.replay_cycle`).
    rng = random.Random(53)
    n_ids, n_rbs, epoch_s = 12, 60, 0.01
    forwards = grantless_epochs = ueless_forwards = twin_forwards = slotless_forwards = 0

    def new_grant():
        return rng.sample(range(n_rbs), 0 if rng.random() < 0.1 else rng.randint(1, 40))

    for node_index in range(60):
        plain = node_index >= 40
        n_groups = rng.randint(1, 3)
        group_of_rb = sorted(rng.randrange(n_groups) for _ in range(n_rbs))
        levels = [rng.uniform(1.0, 500.0) if plain else 0.0, 37.5, 225.0,
                  rng.uniform(1.0, 500.0)]
        rows = [[rng.choice(levels) for _ in range(n_ids)] for _ in range(n_groups)]
        ue_order = rng.sample(range(n_ids), rng.randint(0, 6))
        increments = [cbr_increment(800.0 * (rng.uniform(1.0, 30.0) if plain else rng.choice(
            [225.0 * rng.randint(1, 4), rng.uniform(1.0, 2000.0)])), epoch_s)
                      for _ in ue_order]
        offset = rng.randrange(20)
        fwd, twin = (node_for(ue_order, offset, increments=list(increments)) for _ in range(2))

        def draw_books():
            # per-UE totals by position
            fwd.books = [2.0 ** rng.uniform(-10, 14) for _ in ue_order]
            twin_bytes[:] = fwd.books

        twin_bytes = []
        draw_books()

        def credit(sched):
            for p, amount in sched.served_bytes:
                twin_bytes[p] += amount

        row_of_rb = [rows[g] for g in group_of_rb]
        granted = new_grant()
        tables = grant_tables(granted, row_of_rb, group_of_rb)
        for node in (fwd, twin):
            node.set_grant(granted, *tables)
        epoch, warmup = 0, rng.randint(0, 100)
        changes = 0.06
        while epoch < 150:
            draw = rng.random()
            if draw < changes / 2:
                granted = new_grant()
                tables = grant_tables(granted, row_of_rb, group_of_rb)
                for node in (fwd, twin):
                    node.set_grant(granted, *tables)
            elif draw < changes:
                rows[rng.randrange(n_groups)][:] = [rng.choice(levels) for _ in range(n_ids)]
                for node in (fwd, twin):
                    node.clear_memo()
            if fwd.steady() and rng.random() < 0.5:
                epochs = rng.randint(1, 3 * len(ue_order) + 2)
                credited = max(0, epoch + epochs - max(epoch, warmup))
                fwd.fast_forward(epochs, credited)
                for j in range(epochs):
                    sched = schedule_epoch(twin)
                    twin.period.append(sched.load)
                    if j >= epochs - credited:
                        credit(sched)
                assert fwd.books == twin_bytes
                forwards += 1
                twin_forwards += bool(fwd.twin) and not any(fwd.backlog)
                slotless_forwards += len(fwd.slots) < fwd.rotation
                ueless_forwards += not ue_order
                epoch += epochs
                changes = 0.5
            else:
                fwd.record(schedule_epoch(fwd), epoch >= warmup)
                grantless_epochs += not granted
                sched = schedule_epoch(twin)
                twin.period.append(sched.load)
                if epoch >= warmup:
                    credit(sched)
                assert fwd.books == twin_bytes
                draw_books()
                epoch += 1
                changes = 0.06
            # the same rotation position: a node with no UE has one
            assert fwd.offset % fwd.rotation == twin.offset % twin.rotation
            assert fwd.backlog == twin.backlog
        assert fwd.books == twin_bytes
        assert period_load(fwd.period) == period_load(twin.period)
    # 929 fast-forwards, 270 of a drained node with a verified twin, 185 of
    # them with a slot missing
    assert forwards > 200, forwards
    assert twin_forwards >= 200 and slotless_forwards >= 80, (twin_forwards, slotless_forwards)
    assert grantless_epochs > 0 and ueless_forwards > 0, (grantless_epochs, ueless_forwards)


def test_fast_forward_credits_its_epochs_from_their_cycle_position():
    # Each position of this cycle serves other amounts, so the credit must
    # start at the cycle position of the first credited epoch.  One or two
    # fast-forwards (the second wholly credited, as after the warmup) from
    # every rotation start must give the epoch-by-epoch credits bit for
    # bit, each as soon as it runs.  The second replays another cycle, as
    # after a change between them, so its epochs add after the first's.
    # So do those of a scheduled epoch recorded after them (`Node.record`),
    # whether or not it is credited itself: the amounts mix 1e16 with 0.5
    # and 1.0, so the other order rounds differently (a start of 0.5 is
    # lost in 1e16, but 0.5 + 1.0 first is not).
    n = 3
    keys = [[float(j)] * n for j in range(n)]
    # UEs 4, 5 and 6 at positions 0, 1 and 2
    cycle = [CellSchedule((0,), ((0, 1e16), (2, 1.0 + j)), 1, (1, 1), 1.0) for j in range(n)]
    cycle[1] = CellSchedule((0,), ((1, 3.0),), 1, (1, 1), 1.0)
    other = [CellSchedule((0,), ((2, 0.5), (1, 1e16 + 2.0 * j)), 1, (1, 1), 1.0)
             for j in range(n)]
    last = CellSchedule((0,), ((0, 1.0),), 1, (1, 1), 1.0)

    def replaying(node, schedules):
        node.clear_memo()
        node.slots.update({j: (keys[j], keys[(j + 1) % n], schedules[j]) for j in range(n)})

    def assert_books(node, credits):
        for p in range(n):
            assert node.books[p] == fold_sum(
                (dict(s.served_bytes).get(p, 0.0) for s in credits), 0.5)

    checked = 0
    for offset in range(n):
        for epochs in range(1, 2 * n + 2):
            for credited in range(epochs + 1):
                for more in (0, n + 1):
                    for after in ("nothing", "record", "record and credit"):
                        node = node_for([4, 5, 6], offset)
                        node.granted = [0]
                        node.books = [0.5] * n
                        replaying(node, cycle)
                        node.backlog = keys[offset]
                        node.fast_forward(epochs, credited)
                        credits = [cycle[(offset + j) % n]
                                   for j in range(epochs - credited, epochs)]
                        assert_books(node, credits)
                        if more:
                            replaying(node, other)
                            node.fast_forward(more, more)
                            credits += [other[(offset + epochs + j) % n] for j in range(more)]
                            assert_books(node, credits)
                        if after != "nothing":
                            node.record(last, after == "record and credit")
                            assert node.period[-1] is last.load
                            credits += [last] if after == "record and credit" else []
                        assert_books(node, credits)
                        checked += 1
    assert checked > 300


def test_drained_arrivals_hold_no_negative_zero():
    # `[traffic] ld_tn_kbps = -0.0` lies on the closed lower edge of its
    # domain and gives -0.0 increments.  A node's arrivals onto drained
    # backlogs are `0.0 + increment`, so +0.0 for those: no backlog the
    # memo keys on is ever -0.0 (see `schedule_epoch`).
    node = node_for([3, 4], increments=[-0.0, 5.0])
    assert node.drained == [0.0, 5.0]
    assert math.copysign(1.0, node.drained[0]) == 1.0


def test_steady_needs_one_activity_in_every_slot():
    # A node's slots can outlive row rewrites that do not touch its UEs'
    # entries, so they may hold epochs of different activity.  Such a
    # node's fast-forward would repeat an activity vector that changes,
    # and with it the rows the fast-forward takes as fixed; so with full
    # slots and the current start's key it is steady only if every slot
    # carries the same activity.
    n = 3
    keys = [[float(j)] * n for j in range(n)]
    for activities, steady in (((0.5, 0.5, 0.5), True), ((0.5, 0.25, 0.5), False),
                               ((1.0, 1.0, 0.0), False), ((0.0, 0.0, 0.0), True)):
        node = node_for([4, 5, 6], offset=1)
        node.slots = {j: (keys[j], keys[(j + 1) % n],
                          CellSchedule((0,), (), 0, (0, 1), activities[j]))
                      for j in range(n)}
        node.backlog = keys[1]
        assert node.steady() is steady, activities
        node.backlog = keys[2]          # another start's key
        assert not node.steady()


def test_steady_checks_that_the_slots_close_a_chain():
    # Each UE wants 100 bytes per epoch.  The first RB carries 50 bytes and
    # the next ones 1,000, so an epoch from the drained backlogs serves the
    # first UE in the rotation 50 + 50 bytes on RBs 0 and 2 and the other
    # 100 on RB 1; two epochs fill both slots, a closed chain.  The node is
    # not a twin: its first UE takes 50 bytes of its 100 on a dealt RB and
    # 1,000 on another.  A backlog rebound from outside (500 more bytes
    # for UE 0) makes the next epoch miss, serve 600 + 100 bytes on the
    # same three RBs and drain again; its slot's final is the other
    # start's key, but the other slot's final is not its key.  So the node
    # repeats no cycle: were it steady, a fast-forward would replay the
    # 700-byte epoch once per cycle.  A node fast-forwarded wherever it is
    # steady must credit the bytes of its twin that schedules every epoch.
    granted = [0, 1, 2, 3]
    rows = [flat_rate(50.0)] + [flat_rate(1000.0)] * 3
    nodes = [node_for([0, 1], increments=[100.0, 100.0]) for _ in range(2)]
    for node in nodes:
        node.set_grant(granted, *grant_tables(granted, rows, [0] * 4))
        for _ in range(2):
            node.record(schedule_epoch(node), True)
        assert node.steady() and node.twin == ()
        node.backlog = [500.0, 0.0]
        sched = schedule_epoch(node)
        node.record(sched, True)
        assert (served(node, sched), sched.used_rb, node.backlog) == ({0: 600.0, 1: 100.0}, 3,
                                                                       [0.0, 0.0])
        assert node.slots[0][1] == node.slots[1][0] and node.slots[1][1] != node.slots[0][0]
        assert not node.steady()
    node, twin = nodes
    epoch = forwards = 0
    while epoch < 12:
        if node.steady():
            node.fast_forward(3, 3)
            for _ in range(3):
                twin.record(schedule_epoch(twin), True)
            forwards += 1
            epoch += 3
        else:
            for each in nodes:
                each.record(schedule_epoch(each), True)
            epoch += 1
        assert (node.offset, node.backlog, node.books) == (twin.offset, twin.backlog,
                                                           twin.books)
    epochs = 3 + epoch
    assert forwards > 0
    assert node.books == twin.books == [100.0 * epochs + 500.0, 100.0 * epochs]


def test_steady_takes_a_drained_twin_as_its_cycle():
    # A node whose twin is verified (its deal from the drained backlogs is
    # the same from every start) is steady while it is drained, with a slot
    # for one start only; its twin is verified when steadiness is polled.
    # Here every UE takes one RB: 0.1, 0.2 and 0.1 + 0.2 bytes.  With a
    # queued backlog it is not steady by its twin, `clear_memo` drops the
    # twin, and a fast-forward from the drained backlogs credits bit for bit
    # what a copy that schedules every epoch credits.  A drained epoch at a
    # start with no slot replays the twin slot: it returns the twin's own
    # schedule and final list and writes no slot, so the cycle built from
    # the twin stays.
    granted = list(range(6))
    increments = [0.1, 0.2, 0.1 + 0.2]
    node = node_for([0, 1, 2], increments=increments)
    node.set_grant(granted, *grant_tables(granted, [flat_rate(1000.0)] * 6, [0] * 6))
    node.record(schedule_epoch(node), True)
    assert len(node.slots) == 1 and node.twin is None
    assert node.steady() and node.twin
    drained = node.backlog
    node.backlog = [0.5, 0.0, 0.0]
    assert not node.steady()
    node.backlog = drained
    assert node.steady()
    for epochs in range(1, 8):
        for credited in range(epochs + 1):
            fwd, each = copy.deepcopy(node), copy.deepcopy(node)
            fwd.fast_forward(epochs, credited)
            for j in range(epochs):
                each.record(schedule_epoch(each), j >= epochs - credited)
            assert (fwd.offset, fwd.backlog, fwd.books) == (each.offset, each.backlog,
                                                           each.books)
            assert period_load(fwd.period) == period_load(each.period)
    assert node.offset % node.rotation not in node.slots
    slots, cycle = dict(node.slots), node.cycle
    assert cycle is not None and schedule_epoch(node) is node.twin[2]
    assert node.backlog is node.twin[1] and node.cycle is cycle
    assert node.slots.keys() == slots.keys() and all(node.slots[j] is slots[j] for j in slots)
    node.clear_memo()
    assert node.twin is None and not node.steady()
    # Two RBs of 100 bytes, then two that both UEs decline: a twin, as each
    # UE drains on one RB.  From 500 more bytes for UE 0 each epoch serves
    # 100 to both and leaves the 500 queued, a fixed point from either
    # start with the twin's activity; once both slots hold it, the node is
    # steady by its slots, though its twin is verified.
    granted = [0, 1, 2, 3]
    node = node_for([0, 1], increments=[100.0, 100.0])
    node.set_grant(granted, *grant_tables(
        granted, [flat_rate(100.0)] * 2 + [flat_rate(0.0)] * 2, [0] * 4))
    schedule_epoch(node)
    assert node.steady() and node.twin
    node.backlog = [500.0, 0.0]
    assert not node.steady()
    schedule_epoch(node)
    assert not node.steady()
    sched = schedule_epoch(node)
    assert (sched.activity, node.backlog) == (node.twin[2].activity, [500.0, 0.0])
    assert node.steady() and node.twin


def test_twin_cycle_matches_the_cycle_a_walk_deals():
    # Naive oracle: a drained node whose twin is verified is steady with
    # its twin's cycle (`Node.replay_cycle`), one slot, and that cycle must
    # stand for the one its slots would hold, position by position modulo
    # its length: a deep copy, told that it has no twin, deals every
    # rotation start with the dealing loop.  The keys and finals, the load
    # rows summed over every window of up to three rotations from every
    # start, and each start's column of the credited amounts
    # (`Cycle.amounts`, bit for bit) must be the walk's, and every start's
    # deal must be the twin's schedule.  Random nodes of 1-6 UEs over RBs of
    # 1-3 groups; each UE's demand is under one RB or up to a few.
    rng = random.Random(71)
    n_ids, n_rbs = 8, 40
    twins = multi_round = 0
    for _ in range(400):
        n_groups = rng.randint(1, 3)
        group_of_rb = sorted(rng.randrange(n_groups) for _ in range(n_rbs))
        levels = [37.5, 225.0, rng.uniform(1.0, 500.0)]
        rows = [[rng.choice(levels) for _ in range(n_ids)] for _ in range(n_groups)]
        ue_order = rng.sample(range(n_ids), rng.randint(1, 6))
        increments = [rng.uniform(1.0, rng.choice([30.0, 1000.0])) for _ in ue_order]
        granted = rng.sample(range(n_rbs), rng.randint(1, n_rbs))
        node = node_for(ue_order, rng.randrange(10), increments=increments)
        node.set_grant(granted, *grant_tables(granted, [rows[g] for g in group_of_rb],
                                              group_of_rb))
        schedule_epoch(node)
        walk = copy.deepcopy(node)
        if not (node.steady() and node.twin):
            continue
        twins += 1
        n = node.rotation
        walk.twin = ()                  # deal every start with the loop
        for _ in range(n - 1):
            schedule_epoch(walk)
        assert len(walk.slots) == n and walk.steady()
        cycle, dealt = node.replay_cycle(), walk.replay_cycle()
        assert len(cycle.keys) == 1 and len(dealt.keys) == n
        amounts, dealt_amounts = cycle.amounts(n), dealt.amounts(n)
        assert amounts.shape == (n, 1)
        for start in range(n):
            at = start % len(cycle.keys)
            assert (cycle.keys[at], cycle.finals[at]) == (dealt.keys[start], dealt.finals[start])
            assert amounts[:, at].tobytes() == dealt_amounts[:, start].tobytes()
            for count in range(1, 3 * n + 1):
                assert cycle.window(at, count) == dealt.window(start, count), (start, count)
        twin = node.twin[2]
        assert all(walk.slots[j][2] == twin for j in range(n))
        multi_round += twin.used_rb > len(twin.served_bytes)
    # 153 twins; in 88 some UE takes several RBs
    assert twins >= 120 and multi_round >= 60, (twins, multi_round)


def test_replay_cycle_follows_every_slot_change():
    # The cycle is built once and kept while the slots hold.  A slot fill
    # on a miss (here forced by a backlog the memo has not seen), a memo
    # clear and a new grant each drop it, so it always lists the slots'
    # current schedules.  The slots' cycle is built only while the backlog
    # is the current start's key, as it is when a steadiness poll can use
    # it; here the backlog is rebound there to build it.
    granted = list(range(7))
    node = node_for([1, 2, 3], increments=[300.0, 500.0, 700.0])
    node.set_grant(granted, *grant_tables(granted, [flat_rate(225.0)] * 7, [0] * 7))

    def at_current_key():
        node.backlog = node.slots[node.offset % node.rotation][0]
        return node.replay_cycle()

    for _ in range(3):
        schedule_epoch(node)
    assert node.backlog != node.slots[node.offset % 3][0] and node.replay_cycle() is None
    cycle = at_current_key()
    assert node.replay_cycle() is cycle
    assert cycle.schedules == [node.slots[j][2] for j in range(3)]
    node.backlog = [b + 1000.0 for b in node.backlog]
    schedule_epoch(node)                # a miss that refills one slot
    assert node.cycle is None
    refilled = at_current_key()
    assert refilled.schedules == [node.slots[j][2] for j in range(3)]
    assert refilled.schedules != cycle.schedules
    node.clear_memo()
    assert node.cycle is None
    for _ in range(3):
        schedule_epoch(node)
    assert at_current_key() is not None
    node.set_grant(granted, *grant_tables(granted, [flat_rate(225.0)] * 7, [0] * 7))
    assert node.cycle is None


def reports(load, coordinated, now):
    """The engine's reports of one TN cell (cell 0) from its period load,
    for each coordinated group in turn, as the steps select them."""
    return [report for gi in coordinated
            for report in _load_reports([node_for([])], [load], coordinated, gi, now)]


def test_cell_load_ratio():
    # column 0 holds the uncoordinated RBs, column 1 coordinated group 0
    load = period_load([make_sched(range(25), [3, 15], [5, 20]).load] * 5)
    assert load == [15, 75, 25, 100]
    (rep,) = reports(load, [0], 25)
    assert rep == (0, 0, 75, 100, 25)
    assert rep.used_rb_epochs / rep.available_rb_epochs == pytest.approx(0.75)


def test_cell_load_idle_period():
    load = period_load([make_sched(range(20), [0, 0], [0, 20]).load] * 5)
    (rep,) = reports(load, [0], 25)
    assert rep.used_rb_epochs == 0 and rep.available_rb_epochs == 100
    (rep,) = reports(period_load([make_sched([], [0, 0], [0, 0]).load] * 5), [0], 50)
    assert (rep.used_rb_epochs, rep.available_rb_epochs) == (0, 0)


def test_cell_load_counts_only_group_span():
    # groups 0, 2 and 3 are coordinated, in columns 1, 2 and 3; group 1's
    # RBs are in column 0, whose load no report reads
    load = period_load([make_sched(range(40), [4, 7, 8, 9], [10, 10, 10, 10]).load])
    got = reports(load, [0, 2, 3], 25)
    assert [(r.group_index, r.used_rb_epochs, r.available_rb_epochs) for r in got] == \
        [(0, 7, 10), (2, 8, 10), (3, 9, 10)]


def test_cell_load_errors():
    # A group with no granted RBs yields a report with none available,
    # which the controller cannot use, so it skips the group.
    load = period_load([make_sched([], [0, 0], [0, 0]).load])
    got = reports(load, [0], 25)
    assert [(r.used_rb_epochs, r.available_rb_epochs) for r in got] == [(0, 0)]
    with pytest.raises(MissingDataError):
        aggregate_load(got, 0)
