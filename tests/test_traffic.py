import random

import pytest

from cdss_sim.controller import aggregate_load
from cdss_sim.errors import MissingDataError
from cdss_sim.traffic import (
    CellSchedule,
    PeriodLoad,
    RoundRobinState,
    TrafficFlow,
    generate_arrivals,
    schedule_epoch,
)


def flows_for(ue_ids, backlog):
    return {uid: TrafficFlow(uid, 0.0, backlog_bytes=backlog) for uid in ue_ids}


def flat_rate(rate):
    return lambda uid, rb: rate


def test_arrivals_rate_times_time():
    flow = TrafficFlow(0, 400e3)
    assert generate_arrivals(flow, 0.01) == pytest.approx(500.0)


def test_arrivals_zero_rate():
    flow = TrafficFlow(0, 0.0, backlog_bytes=123.0)
    assert generate_arrivals(flow, 0.01) == 123.0


def test_arrivals_high_rate():
    flow = TrafficFlow(0, 4e6)
    assert generate_arrivals(flow, 0.01) == pytest.approx(5000.0)


def test_schedule_even_split_two_ues():
    flows = flows_for([1, 2], backlog=1e9)
    sched = schedule_epoch("tn-0", 0, [1, 2], flows, list(range(10)),
                           flat_rate(225.0), RoundRobinState())
    assert len(sched.assignments[1]) == 5
    assert len(sched.assignments[2]) == 5
    assert sched.used_rb == 10


def test_schedule_three_ues_rotation_cycles():
    flows = flows_for([1, 2, 3], backlog=1e9)
    rotation = RoundRobinState()
    counts = []
    for epoch in range(3):
        sched = schedule_epoch("tn-0", epoch, [1, 2, 3], flows, list(range(10)),
                               flat_rate(225.0), rotation)
        counts.append({uid: len(rbs) for uid, rbs in sched.assignments.items()})
    assert counts[0] == {1: 4, 2: 3, 3: 3}
    assert counts[1] == {2: 4, 3: 3, 1: 3}
    assert counts[2] == {3: 4, 1: 3, 2: 3}
    totals = {uid: sum(c[uid] for c in counts) for uid in (1, 2, 3)}
    assert totals == {1: 10, 2: 10, 3: 10}


def test_schedule_no_backlog_uses_nothing():
    flows = flows_for([1, 2], backlog=0.0)
    sched = schedule_epoch("tn-0", 0, [1, 2], flows, list(range(10)),
                           flat_rate(225.0), RoundRobinState())
    assert sched.used_rb == 0 and sched.assignments == {}


def test_schedule_satisfied_ue_leaves_rotation():
    flows = {1: TrafficFlow(1, 0.0, backlog_bytes=100.0),
             2: TrafficFlow(2, 0.0, backlog_bytes=1e9)}
    sched = schedule_epoch("tn-0", 0, [1, 2], flows, list(range(10)),
                           flat_rate(225.0), RoundRobinState())
    assert len(sched.assignments[1]) == 1
    assert sched.served_bytes[1] == pytest.approx(100.0)
    assert len(sched.assignments[2]) == 9
    assert flows[1].backlog_bytes == 0.0


def test_schedule_zero_rate_ue_skipped():
    flows = {1: TrafficFlow(1, 0.0, backlog_bytes=1e9),
             2: TrafficFlow(2, 0.0, backlog_bytes=1e9)}
    rate = lambda uid, rb: 0.0 if uid == 1 else 225.0
    sched = schedule_epoch("tn-0", 0, [1, 2], flows, list(range(10)), rate,
                           RoundRobinState())
    assert 1 not in sched.assignments
    assert len(sched.assignments[2]) == 10


def test_schedule_work_conservation():
    rng = random.Random(9)
    for _ in range(50):
        n_ue = rng.randint(1, 6)
        flows = {u: TrafficFlow(u, 0.0, backlog_bytes=rng.uniform(10, 5e4))
                 for u in range(n_ue)}
        granted = list(range(rng.randint(1, 40)))
        sched = schedule_epoch("tn-0", 0, list(range(n_ue)), flows, granted,
                               flat_rate(225.0), RoundRobinState())
        if any(f.backlog_bytes > 0 for f in flows.values()):
            assert sched.used_rb == len(granted)
        assert sched.used_rb <= len(granted)


def test_schedule_served_never_exceeds_start_backlog():
    flows = {1: TrafficFlow(1, 0.0, backlog_bytes=500.0)}
    sched = schedule_epoch("tn-0", 0, [1], flows, list(range(50)),
                           flat_rate(225.0), RoundRobinState())
    assert sched.served_bytes[1] == pytest.approx(500.0)
    assert flows[1].received_bytes == pytest.approx(500.0)


def test_long_run_throughput_never_exceeds_demand():
    flow = TrafficFlow(7, 1.2e6)
    flows = {7: flow}
    rotation = RoundRobinState()
    epochs = 200
    for epoch in range(epochs):
        generate_arrivals(flow, 0.01)
        schedule_epoch("ntn-0", epoch, [7], flows, list(range(40)),
                       flat_rate(450.0), rotation)
    assert flow.received_bytes <= 1.2e6 * epochs * 0.01 / 8.0 + 1e-9


def test_schedule_fairness_equal_se_saturated():
    flows = flows_for(list(range(5)), backlog=1e12)
    rotation = RoundRobinState()
    totals = {u: 0 for u in range(5)}
    for epoch in range(10):
        sched = schedule_epoch("tn-0", epoch, list(range(5)), flows,
                               list(range(17)), flat_rate(1.0), rotation)
        for uid, rbs in sched.assignments.items():
            totals[uid] += len(rbs)
        counts = [len(rbs) for rbs in sched.assignments.values()]
        assert max(counts) - min(counts) <= 1
    assert max(totals.values()) - min(totals.values()) <= 1


def make_sched(granted, assigned):
    return CellSchedule("tn-0", 0, tuple(granted),
                        {0: list(assigned)}, {0: 0.0}, len(assigned))


def test_cell_load_ratio():
    load = PeriodLoad(1)
    for _ in range(5):
        load.add(make_sched(range(20), range(15)), [0] * 20, [20])
    (rep,) = load.reports(0, [0], 25)
    assert rep.used_rb_epochs == 75
    assert rep.available_rb_epochs == 100
    assert rep.used_rb_epochs / rep.available_rb_epochs == pytest.approx(0.75)
    assert (load.used_total, load.avail_total) == (75, 100)


def test_cell_load_idle_period():
    load = PeriodLoad(1)
    for _ in range(5):
        load.add(make_sched(range(20), []), [0] * 20, [20])
    (rep,) = load.reports(0, [0], 25)
    assert rep.used_rb_epochs == 0
    assert PeriodLoad(1).reports(0, [0], 50) == []


def test_cell_load_counts_only_group_span():
    load = PeriodLoad(3)
    load.add(make_sched(range(0, 30), range(0, 30)), [0] * 10 + [1] * 10 + [2] * 10,
             [10, 10, 10])
    (rep,) = load.reports(0, [1], 25)
    assert rep.group_index == 1
    assert rep.used_rb_epochs == 10
    assert rep.available_rb_epochs == 10


def test_cell_load_errors():
    # A group with no granted RBs yields no report, so the controller
    # finds no usable report and skips the group.
    load = PeriodLoad(1)
    load.add(make_sched([], []), [0] * 20, [0])
    reports = load.reports(0, [0], 25)
    assert reports == []
    with pytest.raises(MissingDataError):
        aggregate_load(reports, 0)
