"""The engine against the naive reference engine, report file by report
file, on seeded random small scenarios.

The golden digests pin only the default layout.  These draws vary every
input that decides when the engine's caches go stale (grant rebuilds,
the byte-factor refresh skip and the scheduler's replay memo): the group
count and coordination flags, beams sharing a group, guard time, step
size, thresholds, minimums, UE counts and demands from idle to
saturating.

A second set of draws runs long enough for every node to settle, so that
the engine fast-forwards whole stretches of epochs from the replay memo:
few UEs, periods of 20-30 epochs, guard times that expire inside a
period, and warmups that end inside one.  Their plans of the period ends
ahead stop at controller moves and at guard expiries.

A third set saturates: cases 3 and 4 with 1-3 UEs per cell or beam and
high-demand rates from the defaults to far above what a grant carries,
so that in most draws some node's backlog grows every epoch; such a
node's memo never replays, and no epoch of its run is fast-forwarded.

A fourth set oscillates: cases 2 and 4 with two or more interfering cells
near capacity, each with 2-4 UEs, whose TN grant spans a group that beams
share and a group they do not.  The RBs of those groups carry different
bytes, so a cell's RB count depends on the UE its rotation starts with,
its activity cycles with its rotation, and the interference carries the
cycle to the other cells.  Each new activity vector rewrites the byte
rows and clears the memo of every node whose UEs' entries it changes, so
the cycling cells' memos replay no epoch of a cycle.

A fifth set runs long: 100-130 periods of 3-7 epochs, so that a settled
stretch is stored as one `metrics.Block`, with two coordinated groups in
cases 2 and 4, warmups that end inside such a stretch, guard expiries that
end one early, and cells whose cycle of several slots does not divide the
period, which a block must not stand for.

In cases 2 and 4, the first two sets also place an uncoordinated group
below a coordinated one, so the load column of each coordinated group
differs from its group index.  In both, a node keeps its memo through a
row rewrite that leaves its UEs' entries as they were, and through a
grant rebuild that leaves its grant equal.
"""

import random
from dataclasses import replace

from cdss_sim import engine
from cdss_sim.controller import CdssConfig
from cdss_sim.engine import RunSpec, run_simulation
from cdss_sim.metrics import Block, finalize
from cdss_sim.scenario import (
    BandParams, ScenarioConfig, SimClock, SimParams, TopologyParams, TrafficParams,
)
from cdss_sim.traffic import Node

from reference_engine import run_reference
from store_rows import timeline

DRAWS = 60
STEADY_DRAWS = 80
SATURATING_DRAWS = 16
OSCILLATING_DRAWS = 12
LONG_DRAWS = 20
RATES_KBPS = (0.0, 40.0, 400.0, 4000.0, 40000.0)   # idle to saturating
# The default high-demand rates, then per-UE rates near and above the
# about 140 Mbit/s a node carries at most (some 100 RBs of 180 kHz at the
# 7.4 bit/s/Hz SE cap).
SATURATING_KBPS = (1200.0, 4000.0, 4e4, 2e5, 1e6)


def draw_scenario(rng: random.Random) -> ScenarioConfig:
    num_groups = rng.randint(1, 4)
    cdss = CdssConfig(
        lower_threshold=rng.choice([0.0, 0.3, 0.6]),
        upper_threshold=rng.choice([0.65, 0.8, 1.0]),
        step_rbs=rng.randint(1, 6),
        tn_min=rng.randint(0, 6),
        ntn_min=rng.randint(0, 6),
        guard_rbs=rng.randint(0, 3),
        period_s=rng.randint(2, 6) / 100,
        guard_time_epochs=rng.randint(0, 3),
    )
    per_group = cdss.tn_min + cdss.ntn_min + cdss.guard_rbs + rng.randint(1, 10)
    band = BandParams(
        total_rbs=num_groups * per_group + rng.randint(0, num_groups - 1),
        num_groups=num_groups,
        coordinated=tuple(rng.random() < 0.75 for _ in range(num_groups)),
    )
    n_beams = rng.randint(1, 3)
    beam_groups = [rng.randrange(num_groups) for _ in range(n_beams)]
    if n_beams > 1 and rng.random() < 0.5:
        beam_groups[1] = beam_groups[0]           # two beams in one group
    topology = TopologyParams(
        num_sites=rng.randint(1, 3),
        sectors_per_site=rng.randint(1, 3),
        ues_per_tn_cell=rng.randint(0, 12),
        ues_per_beam=rng.randint(0, 12),
        beam_centers_m=tuple(
            rng.choice([(rng.uniform(-1000.0, 8000.0), rng.uniform(-1000.0, 7000.0)),
                        (70000.0, 0.0)])
            for _ in range(n_beams)),
        beam_groups=tuple(beam_groups),
    )
    traffic = TrafficParams(*(rng.choice(RATES_KBPS) for _ in range(4)))
    warmup = rng.randint(0, 6)
    sim = SimParams(total_s=(warmup + rng.randint(8, 24)) / 100, warmup_s=warmup / 100)
    return ScenarioConfig(band=band, cdss=cdss, topology=topology, traffic=traffic, sim=sim)


def draw_steady_scenario(rng: random.Random) -> ScenarioConfig:
    scenario = draw_scenario(rng)
    # Low thresholds grow the TN, and a TN grant that waits for guard-timed
    # RBs changes the cells' load reports when the guard time expires.  High
    # ones shrink it until its UEs no longer drain, so the amounts credited
    # right after a fast-forward differ from those fast-forwarded.
    lower, upper = rng.choice([(0.0, 0.1), (0.05, 0.2), (0.0, 0.4), (0.9, 1.0)])
    cdss = replace(scenario.cdss, lower_threshold=lower, upper_threshold=upper,
                   period_s=rng.randint(20, 30) / 100, guard_time_epochs=rng.randint(5, 24))
    topology = replace(scenario.topology, ues_per_tn_cell=rng.randint(1, 3),
                       ues_per_beam=rng.randint(1, 3))
    # rates whose per-epoch bytes are not whole numbers, so that the order
    # in which a UE's amounts are added shows in its total
    traffic = TrafficParams(*(rng.choice(RATES_KBPS + (123.456789, 1234.56789))
                              for _ in range(4)))
    warmup = rng.randint(0, 60)
    sim = SimParams(total_s=(warmup + rng.randint(40, 200)) / 100, warmup_s=warmup / 100)
    return replace(scenario, cdss=cdss, topology=topology, traffic=traffic, sim=sim)


def draw_saturating_scenario(rng: random.Random) -> ScenarioConfig:
    # long enough for the nodes that keep up to settle next to those that
    # saturate; cases 3 and 4 read the high-demand rates
    scenario = draw_steady_scenario(rng)
    traffic = replace(scenario.traffic, hd_tn_kbps=rng.choice(SATURATING_KBPS),
                      hd_ntn_kbps=rng.choice(SATURATING_KBPS))
    warmup = rng.randint(0, 30)
    sim = SimParams(total_s=(warmup + rng.randint(40, 100)) / 100, warmup_s=warmup / 100)
    return replace(scenario, traffic=traffic, sim=sim)


def draw_oscillating_scenario(rng: random.Random) -> ScenarioConfig:
    scenario = draw_scenario(rng)
    cdss = scenario.cdss
    num_groups = rng.randint(2, 4)
    shared = rng.randrange(num_groups)      # uncoordinated, and most beams are in it
    per_group = cdss.tn_min + cdss.ntn_min + cdss.guard_rbs + rng.randint(1, 10)
    band = BandParams(
        total_rbs=num_groups * per_group,
        num_groups=num_groups,
        coordinated=tuple(i != shared and rng.random() < 0.5 for i in range(num_groups)),
    )
    n_beams = rng.randint(1, 3)
    topology = replace(
        scenario.topology, num_sites=rng.randint(1, 2), sectors_per_site=3,
        ues_per_tn_cell=rng.randint(2, 4), ues_per_beam=rng.randint(1, 3),
        beam_centers_m=tuple((rng.uniform(0.0, 7000.0), rng.uniform(0.0, 6000.0))
                             for _ in range(n_beams)),
        beam_groups=tuple(shared if rng.random() < 0.7 else rng.randrange(num_groups)
                          for _ in range(n_beams)),
    )
    # about 0.3 to 5 Mbit/s per UE: near what a cell of a few UEs carries
    traffic = TrafficParams(*(10 ** rng.uniform(2.5, 3.7) for _ in range(4)))
    warmup = rng.randint(0, 10)
    sim = SimParams(total_s=(warmup + rng.randint(20, 40)) / 100, warmup_s=warmup / 100)
    return replace(scenario, band=band, topology=topology, traffic=traffic, sim=sim)


def draw_long_scenario(rng: random.Random) -> ScenarioConfig:
    scenario = draw_steady_scenario(rng)
    num_groups = rng.randint(2, 4)
    cdss = scenario.cdss
    per_group = cdss.tn_min + cdss.ntn_min + cdss.guard_rbs + rng.randint(1, 10)
    band = BandParams(total_rbs=num_groups * per_group, num_groups=num_groups,
                      coordinated=(True, True, *(rng.random() < 0.5 for _ in range(2, num_groups))))
    # thresholds that move the boundaries, then hold at a minimum, with guard
    # times of 2-20 periods
    lower, upper = rng.choice([(0.9, 1.0), (0.9, 1.0), (0.0, 0.1), (0.0, 0.4)])
    period = rng.choice([3, 4, 5, 7])
    cdss = replace(cdss, lower_threshold=lower, upper_threshold=upper, period_s=period / 100,
                   guard_time_epochs=rng.randint(10, 60))
    beams = scenario.topology.beam_groups
    topology = replace(scenario.topology, ues_per_tn_cell=rng.randint(1, 4),
                       beam_groups=tuple(rng.randrange(num_groups) for _ in beams),
                       beam_centers_m=tuple((rng.uniform(0.0, 7000.0), rng.uniform(0.0, 6000.0))
                                            for _ in beams))
    # 12.5 to 1,250 bytes per epoch, up to a few RBs
    traffic = TrafficParams(*(10 ** rng.uniform(1.0, 3.0) for _ in range(4)))
    warmup = rng.randint(0, 40 * period)
    sim = SimParams(total_s=(warmup + rng.randint(100, 130) * period) / 100,
                    warmup_s=warmup / 100)
    return replace(scenario, band=band, cdss=cdss, topology=topology, traffic=traffic, sim=sim)


def oscillating_nodes(activity) -> int:
    """The most nodes whose activity differs among the recurring vectors
    of one stretch of `activity` between grant rebuilds (marked None).  A
    vector recurs when it equals an earlier one but not the one before
    it; a stretch counts once it has four recurrences."""
    most, stretch = 0, []
    for vector in [*activity, None]:
        if vector is not None:
            stretch.append(vector)
            continue
        recurring = [v for i, v in enumerate(stretch)
                     if i and v != stretch[i - 1] and v in stretch[:i - 1]]
        if len(recurring) >= 4:
            most = max(most, sum(len(set(column)) > 1 for column in zip(*recurring)))
        stretch = []
    return most


def uncoordinated_below_coordinated(spec) -> bool:
    flags = spec.scenario.band.coordinated
    return spec.case_id in (2, 4) and any(
        not flag and any(flags[i + 1:]) for i, flag in enumerate(flags))


class KeptMemos:
    """Whether a run has a row rewrite (a refresh with a new activity), and
    a grant rebuild, through which a node with UEs keeps a filled replay
    memo: the rewrite changed only other UEs' entries, or none, and the
    rebuild left its grant equal.  `reset` before each run: the reference
    engine refreshes byte factors too."""

    def __init__(self, monkeypatch):
        grant_rbs, refresh, steady = engine._grant_rbs, engine.ByteFactors.refresh, Node.steady

        def granting(plan, state, blocked, nodes, *maps):
            self.nodes = nodes
            held = [node for node in nodes if node.ue_ids and node.slots]
            grant_rbs(plan, state, blocked, nodes, *maps)
            self.rebuild = self.rebuild or any(node.slots for node in held)

        def refreshing(factors, activity):
            if activity != self.activity:
                self.held = [node for node in self.nodes if node.ue_ids and node.slots]
                self.activity = list(activity)
            return refresh(factors, activity)

        def checking(node):
            # the run's first steadiness test after a rewrite follows its clears
            self.rewrite = self.rewrite or any(held.slots for held in self.held)
            self.held = []
            return steady(node)

        monkeypatch.setattr(engine, "_grant_rbs", granting)
        monkeypatch.setattr(engine.ByteFactors, "refresh", refreshing)
        monkeypatch.setattr(Node, "steady", checking)
        self.reset()

    def reset(self):
        self.nodes, self.held, self.activity = [], [], None
        self.rewrite = self.rebuild = False


def assert_same_run(spec, store, tmp_path, draw):
    """Every report file byte for byte, and every UE's byte total
    exactly."""
    reference = run_reference(spec)
    assert store.ue_bytes == reference.ue_bytes, (draw, spec)
    got = finalize(store, tmp_path / str(draw) / "engine")
    want = finalize(reference, tmp_path / str(draw) / "reference")
    assert set(got) == set(want)
    for name in sorted(got):
        assert got[name].read_bytes() == want[name].read_bytes(), (draw, name, spec)


def test_engine_matches_reference_engine(tmp_path, monkeypatch):
    kept = KeptMemos(monkeypatch)
    rng = random.Random(6)
    moved = shared_beam_groups = beamless = below = kept_rewrite = kept_rebuild = 0
    for draw in range(DRAWS):
        scenario = draw_scenario(rng)
        spec = RunSpec(scenario, 1 + draw % 4, rng.randint(1, 10**6))
        kept.reset()
        store = run_simulation(spec)
        kept_rewrite += kept.rewrite
        kept_rebuild += kept.rebuild
        assert_same_run(spec, store, tmp_path, draw)
        moved += timeline(store)[-1].version > 0
        groups = scenario.topology.beam_groups
        shared_beam_groups += spec.case_id in (2, 4) and len(set(groups)) < len(groups)
        beamless += spec.case_id in (2, 4) and scenario.band.num_groups - len(set(groups)) >= 2
        below += uncoordinated_below_coordinated(spec)
    # the draws move boundaries and put two beams in one group; in 12 C-DSS
    # draws two or more groups have no beam, so their byte rows are one
    # shared row, and in 12 an uncoordinated group lies below a coordinated
    # one; in 32 a node keeps its memo through a row rewrite, in 14 through
    # a grant rebuild
    assert moved >= 10 and shared_beam_groups >= 3 and beamless >= 10 and below >= 10, \
        (moved, shared_beam_groups, beamless, below)
    assert kept_rewrite >= 25 and kept_rebuild >= 10, (kept_rewrite, kept_rebuild)


def test_engine_matches_reference_engine_in_steady_states(tmp_path, monkeypatch):
    forwards = []
    crossings = []      # fast-forwards in which crediting starts at another key
    fast_forward = Node.fast_forward

    def counting(node, epochs, credited):
        forwards.append(epochs)
        if 0 < credited < epochs and node.opening is None:
            keys = node.replay_cycle().keys
            start = node.offset % len(keys)
            crossings.append(keys[start] != keys[(start + epochs - credited) % len(keys)])
        return fast_forward(node, epochs, credited)

    stops = set()       # why the run's plans stopped, where they had to
    twins = set()       # the nodes a plan found drained with a verified twin
    plan = engine._fast_forward

    def planning(store, manager, clock, nodes, state, epoch, limit):
        # the chain `Node.steady` checks: the backlog is the current start's
        # key, and each slot's final backlog the next start's key; or the
        # node is drained and its twin verified, which deals that chain
        # from every start with no slot
        for node in nodes:
            if node.twin and not any(node.backlog):
                twins.add(node.node_id)
                continue
            n, slots = node.rotation, node.slots
            assert node.backlog == slots[node.offset % n][0], node.node_id
            assert all(slots[j][1] == slots[(j + 1) % n][0] for j in range(n)), node.node_id
        moved, end = plan(store, manager, clock, nodes, state, epoch, limit)
        length = clock.period_epochs
        if moved is not state and end + length <= limit:
            stops.add("move")           # the plan could have gone on
        elif (moved is state and end % length == 0 and end + length > limit
              and limit < clock.total_epochs):
            stops.add("guard")          # the next period passes a guard expiry
        return moved, end

    monkeypatch.setattr(Node, "fast_forward", counting)
    monkeypatch.setattr(engine, "_fast_forward", planning)
    kept = KeptMemos(monkeypatch)
    rng = random.Random(9)
    forwarded = below = kept_rewrite = kept_rebuild = at_move = at_guard = with_twins = 0
    crossed = 0
    for draw in range(STEADY_DRAWS):
        scenario = draw_steady_scenario(rng)
        spec = RunSpec(scenario, rng.choice([2, 4]), rng.randint(1, 10**6))
        forwards.clear()
        crossings.clear()
        stops.clear()
        twins.clear()
        kept.reset()
        store = run_simulation(spec)
        kept_rewrite += kept.rewrite
        kept_rebuild += kept.rebuild
        assert_same_run(spec, store, tmp_path, draw)
        forwarded += bool(forwards)
        crossed += any(crossings)
        with_twins += bool(twins)
        at_move += "move" in stops
        at_guard += "guard" in stops
        below += uncoordinated_below_coordinated(spec)
    # 34 of the 80 draws settle; the rest keep a saturated or changing node.
    # 25 place an uncoordinated group below a coordinated one.  In 62 a node
    # keeps its memo through a row rewrite, in 36 through a grant rebuild.
    # In 16 a plan stops at a controller move with periods left before the
    # limit, and in 2 at a period end because the next period passes a guard
    # expiry: a guard time under the 20-30 epoch period mostly ends before
    # the run settles again.
    assert forwarded >= 30 and below >= 10, (forwarded, below)
    assert kept_rewrite >= 50 and kept_rebuild >= 25, (kept_rewrite, kept_rebuild)
    assert at_move >= 12 and at_guard >= 2, (at_move, at_guard)
    # in 33 of the 34 that settle, a plan finds a node drained with a
    # verified twin, steady with or without its slots
    assert with_twins >= 25, with_twins
    # In 3 a fast-forward in which the warmup ends replays a cycle of
    # several keys from one, and starts crediting at another: the byte
    # accounting check starts each UE there (`Node.opening`).
    assert crossed >= 2, crossed


def test_engine_matches_reference_engine_when_cells_saturate(tmp_path, monkeypatch):
    backlogs = {}                   # node id -> its total backlog after each epoch
    schedule_epoch = engine.schedule_epoch

    def watching(node):
        sched = schedule_epoch(node)
        backlogs.setdefault(node.node_id, []).append(sum(node.backlog))
        return sched

    monkeypatch.setattr(engine, "schedule_epoch", watching)
    rng = random.Random(12)
    growing = 0
    for draw in range(SATURATING_DRAWS):
        scenario = draw_saturating_scenario(rng)
        spec = RunSpec(scenario, rng.choice([3, 4]), rng.randint(1, 10**6))
        backlogs.clear()
        store = run_simulation(spec)
        assert_same_run(spec, store, tmp_path, draw)
        # some node is scheduled every epoch and ends each with more bytes
        # queued than the epoch before
        epochs = SimClock.from_config(scenario).total_epochs
        growing += any(len(totals) == epochs and all(a < b for a, b in zip(totals, totals[1:]))
                       for totals in backlogs.values())
    # 14 of the 16 draws saturate a node
    assert growing >= 10, growing


def test_engine_matches_reference_engine_when_activity_oscillates(tmp_path, monkeypatch):
    activity = []       # each scheduled epoch's activity vector, None at each grant rebuild
    schedule_nodes, grant_rbs = engine._schedule_nodes, engine._grant_rbs

    def scheduling(nodes, credit):
        result = schedule_nodes(nodes, credit)
        activity.append(tuple(result))
        return result

    def granting(*args):
        activity.append(None)
        return grant_rbs(*args)

    monkeypatch.setattr(engine, "_schedule_nodes", scheduling)
    monkeypatch.setattr(engine, "_grant_rbs", granting)
    rng = random.Random(1)
    oscillating = spread = 0
    for draw in range(OSCILLATING_DRAWS):
        scenario = draw_oscillating_scenario(rng)
        spec = RunSpec(scenario, rng.choice([2, 4]), rng.randint(1, 10**6))
        activity.clear()
        store = run_simulation(spec)
        assert_same_run(spec, store, tmp_path, draw)
        nodes = oscillating_nodes(activity)
        oscillating += nodes >= 1
        spread += nodes >= 2
    # 10 of the 12 draws oscillate, 7 of them in two or more nodes
    assert oscillating >= 8 and spread >= 5, (oscillating, spread)


def test_reference_engine_writes_the_files_of_the_hardest_default_runs(default_cfg, tmp_path):
    # The naive engine certifies the output contract: on two of the default
    # study's hardest runs it writes the engine's files byte for byte.  Case
    # 3, seed 5 saturates a cell dealt in whole rounds over one byte row (9
    # of its 1,064 deals end in a partial round); case 4, seed 9 saturates
    # beams (2,338 one-row deals), and its cells' activity oscillates.
    # `tests/certify.py` compares every recorded run the same way.
    for draw, (case_id, seed) in enumerate(((3, 5), (4, 9))):
        spec = RunSpec(default_cfg, case_id, seed)
        assert_same_run(spec, run_simulation(spec), tmp_path, draw)


def test_engine_matches_reference_engine_over_long_settled_stretches(tmp_path, monkeypatch):
    cycles = []     # the slot count of each fast-forwarded cycle
    fast_forward = Node.fast_forward

    def counting(node, epochs, credited):
        cycles.append(len(node.replay_cycle().keys))
        return fast_forward(node, epochs, credited)

    monkeypatch.setattr(Node, "fast_forward", counting)
    rng = random.Random(2)
    blocked = coordinated = crossed = at_guard = not_dividing = 0
    for draw in range(LONG_DRAWS):
        scenario = draw_long_scenario(rng)
        spec = RunSpec(scenario, rng.choice([1, 2, 2, 3, 4, 4]), rng.randint(1, 10**6))
        cycles.clear()
        store = run_simulation(spec)
        assert_same_run(spec, store, tmp_path, draw)
        clock = SimClock.from_config(scenario)
        length, first_sampled = clock.period_epochs, clock.warmup_epochs + clock.period_epochs
        blocks = [entry.epochs for entry in store.timeline_entries if type(entry) is Block]
        blocked += bool(blocks)
        coordinated += bool(blocks) and spec.case_id in (2, 4)
        crossed += any(epochs[0] < first_sampled <= epochs[-1] for epochs in blocks)
        # a block that ends before the run's last period end stops at a guard expiry
        at_guard += any(epochs[-1] + length <= clock.total_epochs for epochs in blocks)
        not_dividing += any(n > 1 and length % n for n in cycles)
    # 16 of the 20 draws store a block, 10 of them in cases 2 and 4, whose
    # two coordinated groups both held first; in 14 the warmup ends inside
    # one; in 2 a guard expiry ends one before the run's end; in 4 a
    # fast-forward replays a cycle of several slots that does not divide
    # the period
    assert blocked >= 14 and coordinated >= 8 and crossed >= 12, (blocked, coordinated, crossed)
    assert at_guard >= 2 and not_dividing >= 3, (at_guard, not_dividing)
