"""Deterministic fixed-step simulation engine and campaign orchestration.

One run (`run_simulation`, which lists its stages) is single-threaded
and fully determined by its RunSpec: placement, LOS draws and rotation
offsets come from child seeds of the master seed (`derive_seed`).

Interference coupling: a transmitter's activity fraction for SINR purposes
is its RB utilization in the previous epoch (1.0 at epoch 0), which keeps
every epoch's outputs independent of the order cells are processed in.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter, is_
from pathlib import Path
from typing import AbstractSet, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from .band import active_guard_rbs, build_band_plan, initial_allocation, rb_ranges
from .controller import LoadReport, SpectrumManager
from .errors import ConfigurationError, InvariantError
from .metrics import (
    Block, MetricsStore, TimelineRow, UtilizationSample, compute_cdf, finalize, output_dir,
    write_table,
)
from .radio import (
    distance_m,
    los_state,
    ntn_rx_power,
    offsets,
    select_serving,
    spectral_efficiency_array,
    thermal_noise_dbm,
    tn_pathloss,  # noqa: F401 - unused here; lets a tracer's getattr(engine, name) find it
    tn_rx_power,
)
from .scenario import (
    CASES,
    ScenarioConfig,
    SimClock,
    build_topology,
    demand_bps,
    derive_seed,
    parse_scenario,  # noqa: F401 - unused here; lets a tracer's getattr find it
    validate_scenario,
)
from .sums import fold_sum
from .traffic import (
    Node,
    generate_arrivals,  # noqa: F401 - unused here; lets a tracer's getattr find it
    grant_tables,
    period_load,
    schedule_epoch,
)


class _RunSpecFields(NamedTuple):
    scenario: ScenarioConfig
    case_id: int
    seed: int


class RunSpec(_RunSpecFields):
    """Everything that determines one run; equal specs give equal outputs.
    Immutable, and checked when it is built, also where a campaign's
    worker process unpickles it."""

    __slots__ = ()

    def __new__(cls, scenario: ScenarioConfig, case_id: int, seed: int) -> RunSpec:
        if case_id not in CASES:
            raise ConfigurationError(
                f"case {case_id} unknown, valid cases are {sorted(CASES)}")
        return tuple.__new__(cls, (scenario, case_id, seed))


def tn_granted_rbs(plan, state, blocked: AbstractSet[int]) -> List[int]:
    """TN-usable RBs minus guard-timed ones, in a dealing order that
    interleaves groups proportionally to their granted sizes.

    Proportional interleaving keeps per-group utilization representative of
    the cell's overall load instead of piling usage into low RB indices.
    """
    parts = [
        [rb for rb in rb_ranges(g, state.allocations.get(g.index))[0] if rb not in blocked]
        for g in plan.groups
    ]
    keyed: List[Tuple[float, int]] = []
    for part in parts:
        size = len(part)
        keyed.extend(((i + 0.5) / size, rb) for i, rb in enumerate(part))
    keyed.sort()
    return [rb for _, rb in keyed]


def ntn_granted_rbs(plan, state, group_index: int, blocked: AbstractSet[int]) -> List[int]:
    """NTN-usable RBs of one beam's group, minus guard-timed ones."""
    ntn = rb_ranges(plan.group(group_index), state.allocations.get(group_index))[2]
    return [rb for rb in ntn if rb not in blocked]


def _grant_rbs(plan, state, blocked: AbstractSet[int], nodes, row_of_rb, column_of_rb) -> None:
    """Grant rebuild: give every node its usable RBs, and the scheduler's
    byte-row and load-prefix tables over them, after an allocation or
    guard-set change.  A node whose usable RBs are those it holds keeps its
    grant, its tables (a function of the RBs and the per-run maps alone)
    and its replay memo; any other gets `Node.set_grant`, which discards
    the memo.  The cells, which come first, share one TN grant, and its
    tables are built once, if a cell needs them."""
    tn_order = tn_granted_rbs(plan, state, blocked)
    last = None         # the last grant installed, with its tables
    for node in nodes:
        granted = (tn_order if node.group_index is None
                   else ntn_granted_rbs(plan, state, node.group_index, blocked))
        if node.load_prefix and granted == node.granted:   # tables built for an equal grant
            continue
        if last is None or last[0] is not granted:
            last = (granted, *grant_tables(granted, row_of_rb, column_of_rb))
        node.set_grant(*last)


def _link_budget(cells, beams, ues, radio_p, seed: int) -> np.ndarray:
    """Per-RB received power in dBm: rows are cells then beams, one column
    per UE.  LOS is drawn once per (UE, cell) pair, UE-major, from the
    run's "los" stream, as one block of those draws.  Each radio call is
    one whole-array pass, and what the sectors of a site share is computed
    once per (site, UE) pair: cell i stands at site `site_of[i]`."""
    draws = np.random.default_rng(derive_seed(seed, "los")).uniform(
        0.0, 1.0, size=(len(ues), len(cells)))
    ue_xy = np.fromiter(chain.from_iterable(map(attrgetter("xy"), ues)), float,
                        2 * len(ues)).reshape(-1, 2)
    index: Dict[Tuple[float, float], int] = {}      # site -> row, in order of first use
    site_of = np.array([index.setdefault(cell.site_xy, len(index)) for cell in cells], dtype=int)
    dx, dy = offsets(ue_xy, list(index))
    d_m = distance_m(dx, dy)
    los = los_state(d_m, site_of, draws.T, radio_p.los_d0_m, radio_p.los_scale_m)
    rx_dbm = tn_rx_power(cells, site_of, dx, dy, d_m, los, radio_p)
    return np.vstack((rx_dbm, ntn_rx_power(ue_xy, beams, radio_p))) if beams else rx_dbm


class ByteFactors:
    """Bytes one RB carries this epoch, as `rows[group][ue_id]`.

    A TN-attached UE has a value in every group; an NTN-attached UE only in
    its beam's group, the only group its beam is granted.  The groups with
    no beam (all, in a TN-only case) hear the cells alone whatever their
    flag, so they share one row, computed once.  `refresh` rewrites the
    rows in place, so the per-grant row references that
    `traffic.grant_tables` hands the scheduler stay current, and keeps each
    row's last values as an array to tell which entries changed.  While the
    groups have several distinct rows, `low[ue_id]` is the fewest bytes any
    of them gives the UE (for `traffic.schedule_epoch`), rewritten in place
    with them; else `low` is None.
    """

    def __init__(self, plan, rx_dbm, serving, beams, radio_p, epoch_s: float):
        n_cells = rx_dbm.shape[0] - len(beams)
        serving_tx = np.array([-1 if tx is None else tx for tx in serving], dtype=int)
        self._values = [np.zeros(len(serving)) for _ in plan.groups]
        self._last_activity: Optional[List[float]] = None
        self._rx_lin = np.power(10.0, rx_dbm / 10.0)
        # Unserved UEs read row 0; their factors are never looked up.
        self._serving = np.clip(serving_tx, 0, None)
        self._signal_lin = self._rx_lin[self._serving, np.arange(len(serving))]
        self._ue_is_tn = (serving_tx >= 0) & (serving_tx < n_cells)
        self._tn_idx = np.arange(n_cells)
        # Per group: every beam's row, and (row, attached-UE mask) of the
        # beams that serve at least one UE.
        self._beam_tx: List[List[int]] = [[] for _ in plan.groups]
        self._beam_ues: List[List[Tuple[int, np.ndarray]]] = [[] for _ in plan.groups]
        for bi, beam in enumerate(beams):
            btx = n_cells + bi
            self._beam_tx[beam.group_index].append(btx)
            if (serving_tx == btx).any():
                self._beam_ues[beam.group_index].append((btx, serving_tx == btx))
        shared = [0.0] * len(serving)
        self.rows = [[0.0] * len(serving) if self._beam_tx[g.index] else shared
                     for g in plan.groups]
        # `refresh` computes the row of each group with a beam and of the first without
        beamless = [g for g in plan.groups if not self._beam_tx[g.index]]
        self._groups = [g for g in plan.groups if self._beam_tx[g.index]] + beamless[:1]
        self.low = [0.0] * len(serving) if len(self._groups) > 1 else None
        # The transmitters some entry hears: the cells, the beams of an uncoordinated
        # group, and a beam that shares a coordinated group with a serving beam.
        self._audible = [*range(n_cells), *(
            btx for g in plan.groups for btx in self._beam_tx[g.index]
            if not g.coordinated or any(other != btx for other, _ in self._beam_ues[g.index]))]
        noise_dbm = thermal_noise_dbm(plan.rb_bandwidth_hz, radio_p.noise_figure_db)
        self._noise_lin = 10.0 ** (noise_dbm / 10.0)
        self._byte_scale = plan.rb_bandwidth_hz * epoch_s / 8.0
        self._cap, self._floor = radio_p.se_cap_bps_hz, radio_p.se_min_bps_hz
        # A NaN capacity would pass the scheduler's `cap <= 0.0` test and
        # serve a UE its whole backlog, so non-finite inputs stop here.
        if not (math.isfinite(self._noise_lin) and math.isfinite(self._byte_scale)
                and np.isfinite(self._rx_lin).all()):
            raise InvariantError(
                "non-finite noise, RB byte scale or received power in the link budget"
            )
        self._alone = self._bytes(np.zeros(len(serving)))   # under no interference

    def _bytes(self, interf: np.ndarray) -> np.ndarray:
        sinr = self._signal_lin / (self._noise_lin + interf)
        return spectral_efficiency_array(sinr, self._cap, self._floor) * self._byte_scale

    def refresh(self, activity: List[float]) -> Set[int]:
        """Recompute every row from each transmitter's activity fraction.

        A TN-attached UE hears co-channel TN interference in every group,
        plus the group's beams where the group is uncoordinated.  An
        NTN-attached UE hears the other beams of its group, plus the TN
        where the group is uncoordinated.  Coordinated groups carry no
        cross-system interference by allocation disjointness.

        The rows are a function of the audible transmitters' activity, so
        an activity equal there to the last refresh's keeps them.  Returns
        the ids of the UEs whose entry changed in some group, compared with
        `!=` against the previous values, and rewrites only the groups that
        changed.  An entry equal under `==` deals the same RBs: no entry is
        NaN (see `__init__`), and the scheduler reads one only through
        `cap <= 0.0` and `b <= cap`.  `_bytes` takes whole rows only.
        """
        audible = [activity[tx] for tx in self._audible]
        if audible == self._last_activity:
            return set()
        self._last_activity = audible
        activity = np.array(activity)
        rx_lin = self._rx_lin
        act_srv = activity[self._serving] * self._signal_lin
        tn_sum = activity[self._tn_idx] @ rx_lin[self._tn_idx, :]
        base_i = np.where(self._ue_is_tn, tn_sum - act_srv, 0.0)
        base = np.where(self._ue_is_tn, self._bytes(base_i), 0.0)
        changed: Set[int] = set()
        for g in self._groups:
            vals = base
            if not g.coordinated and self._beam_tx[g.index]:
                interf = base_i
                for btx in self._beam_tx[g.index]:
                    interf = interf + activity[btx] * rx_lin[btx, :]
                vals = np.where(self._ue_is_tn, self._bytes(interf), 0.0)
            for btx, ue_mask in self._beam_ues[g.index]:
                interf = np.zeros(len(vals))
                for other in self._beam_tx[g.index]:
                    if other != btx:
                        interf += activity[other] * rx_lin[other, :]
                if not g.coordinated:
                    interf += tn_sum
                vals = np.where(ue_mask, self._bytes(interf) if interf.any() else self._alone,
                                vals)
            diff = vals != self._values[g.index]
            if diff.any():
                changed.update(np.flatnonzero(diff).tolist())
                self.rows[g.index][:] = vals.tolist()
                self._values[g.index] = vals
        if changed and self.low is not None:
            self.low[:] = np.min([self._values[g.index] for g in self._groups], axis=0).tolist()
        return changed


def _timeline_rows(plan, state, case, clock, step: int, epoch: int) -> List[TimelineRow]:
    """The allocation of every group at `epoch`, one row per group, with
    the widths of `band.rb_ranges`; a case without the NTN has no NTN RBs."""
    time_s = epoch * clock.epoch_s
    rows = []
    for g in plan.groups:
        tn, guard, ntn = map(len, rb_ranges(g, state.allocations.get(g.index)))
        rows.append(TimelineRow(step, epoch, time_s, g.index, g.size,
                                g.coordinated, tn, guard, ntn if case.ntn_enabled else 0,
                                state.version))
    return rows


def _schedule_nodes(nodes, credit: bool) -> List[float]:
    """Schedule every node for one epoch and record it on the node
    (`traffic.Node.record`), which keeps it for the period's load and,
    with `credit`, adds its bytes to the books (the first sets `opening`).

    Returns each transmitter's activity fraction (used over granted RBs),
    which sets the interference of the next epoch.
    """
    activity = []
    for node in nodes:
        if credit and node.opening is None:
            node.opening = node.backlog
        sched = schedule_epoch(node)
        node.record(sched, credit)
        activity.append(sched.activity)
    return activity


def _load_reports(tn_nodes, loads, coordinated: Sequence[int], gi, epoch) -> Iterator[LoadReport]:
    """Each TN cell's report for gi, the j-th coordinated group and the one
    the step selects and reads (`SpectrumManager.selected`), from its period
    load's column 1 + j, built as it is read: a step that holds at once, or
    has no group, reads none.  A report with no granted RB is kept, and
    `controller.aggregate_load` skips it."""
    column = 1 + coordinated.index(gi)
    for node, load in zip(tn_nodes, loads):
        yield LoadReport(node.entity_id, gi, load[column], load[len(load) // 2 + column], epoch)


def _record_final(store, final_rows, total_rbs: int, nodes) -> None:
    """Final shares and per-node RB counts from the last allocation."""
    store.final_allocation = final_rows
    coord = [row for row in final_rows if row.coordinated]
    tn_usable = sum(row.tn_rbs for row in final_rows)
    store.tn_share = tn_usable / total_rbs
    store.ntn_share = (
        sum(row.ntn_rbs for row in coord) / sum(row.group_size for row in coord)
        if coord else 0.0
    )
    for node in nodes:
        store.node_rb_counts[node.node_id] = (tn_usable if node.group_index is None
                                              else final_rows[node.group_index].ntn_rbs)


def _record(entries, rows, epochs: range, epoch_s: float) -> None:
    """Store the rows of the period ends at `epochs`: as they are for one,
    as one `metrics.Block` for several."""
    if len(epochs) == 1:
        entries.extend(rows)
    else:
        entries.append(Block(tuple(rows), epochs, epoch_s))


def _period_end(store, manager, clock, tn_nodes, state, epoch: int, loads, count: int = 1):
    """The period end at `epoch`, from each TN cell's load row, which
    `loads` yields: the samples after the warmup, the load reports, the
    controller step and the timeline rows.  Returns the state the step
    returns, the same object if it moved no boundary.  The step holds at
    once where it held on this state and these rows
    (`SpectrumManager.sms_step`).  A `count` above 1 is the block of period
    ends from `epoch` on over these rows, whose steps were all taken as
    held (`SpectrumManager.skip`): they are stored as one (`_record`)."""
    plan, coordinated, length = manager.plan, manager.coordinated, clock.period_epochs
    epochs = range(epoch, epoch + count * length, length)
    sampled = epochs[bisect_left(epochs, clock.warmup_epochs + length):]
    # Only TN loads are read: by the reports, if a group is coordinated,
    # and by the samples after the warmup.
    rows = list(loads) if coordinated or sampled else []
    if sampled:
        _record(store.utilization_entries, [UtilizationSample(
            node.entity_id, sampled[0] // length, sampled[0] * clock.epoch_s,
            sum(load[:len(load) // 2]), sum(load[len(load) // 2:]))
            for node, load in zip(tn_nodes, rows)], sampled, clock.epoch_s)
    if count == 1:
        reports = _load_reports(tn_nodes, rows, coordinated, manager.selected, epoch)
        state = manager.sms_step(state, reports, epoch, rows)[0]
    store.sms_steps += count
    _record(store.timeline_entries, _timeline_rows(
        plan, state, CASES[store.case_id], clock, epoch // length, epoch), epochs, clock.epoch_s)
    return state


def _blocker(nodes, last: int) -> int:
    """The position of a node that is not steady, or -1 when all are.
    The polls start at the one found last time, which most often still
    blocks, and go round; `steady` is pure, so the order is free."""
    n = len(nodes)
    for i in range(last, last + n):
        if not nodes[i % n].steady():
            return i % n
    return -1


def _fast_forward(store, manager, clock, nodes, state, epoch: int, limit: int):
    """Advance every node, all steady, from `epoch`; return the state and
    the epoch reached.  Before `limit` (the next guard expiry or the run
    end) only a controller move changes a grant, so the period ends run in
    turn from each cell's planned loads (`Node.ahead`): the first over its
    period and its load up to there, each later one over a whole period
    from the epoch it begins at.  Once every cell's window is the very
    list of the next one's, each repeats every period, and where every
    step would then hold (`SpectrumManager.skip`) the period ends left up
    to `limit` are one block.  The plan stops after a move, a block, or
    where a whole period would pass `limit`; then each node advances once."""
    first, length = epoch, clock.period_epochs
    tn_nodes = [node for node in nodes if node.group_index is None]
    epoch = min(epoch - epoch % length + length, limit)
    loads = map(period_load, [[*node.period, node.ahead(0, epoch - first)] for node in tn_nodes])
    while epoch % length == 0:
        held = state
        state = _period_end(store, manager, clock, tn_nodes, state, epoch, loads)
        if state is not held or epoch + length > limit:
            break
        loads = [node.ahead(epoch - first, length) for node in tn_nodes]
        epoch += length
        count = (limit - epoch) // length + 1       # the period ends left up to `limit`
        repeats = all(map(is_, loads, map(Node.ahead, tn_nodes, repeat(epoch - first),
                                          repeat(length))))
        if count > 1 and repeats and manager.skip(state, loads, count):
            _period_end(store, manager, clock, tn_nodes, state, epoch, loads, count)
            epoch += (count - 1) * length
            break
    credited = max(0, epoch - max(first, clock.warmup_epochs))
    for node in nodes:
        node.fast_forward(epoch - first, credited)
    return state, epoch


def _node(seed: int, increment: Sequence[float], node_id: str, entity_id: int,
          ue_ids: List[int], group_index: Optional[int], low: Optional[List[float]]) -> Node:
    """The scheduling node of one transmitter and its attached UEs, all
    drained, with a rotation offset drawn from the run's seed;
    `increment[uid]` is UE uid's CBR bytes per epoch."""
    return Node(node_id, entity_id, ue_ids, derive_seed(seed, f"rotation:{node_id}"),
                [0.0] * len(ue_ids), [increment[uid] for uid in ue_ids], group_index, low)


def run_simulation(spec: RunSpec) -> MetricsStore:
    """Execute one deterministic run and return its metrics store.

    Stages: link budget and attachment once, and each transmitter's node
    built from its attached UEs (`_node`); then per epoch the guard
    check and grant rebuild (only on a new allocation state or a guard
    expiry), the byte-factor refresh, and each node's arrivals and
    scheduling; at each period end the load reports, utilization samples
    and the controller step (`_period_end`).  A grant rebuild clears the
    replay memo of a node whose grant changed, and a refresh that of a node
    whose UEs' entries changed.  Scheduled epochs alone fill the memos.
    When every node is steady after the refresh (`_blocker`, through
    `traffic.Node.steady`; a drained node with a verified twin is, from
    one slot, and any other once the epochs of its rotation starts have
    closed a cycle), each repeats the one activity of its cycle, so the
    activity, the rows and the grants stay fixed up to the next controller
    move or guard expiry, and `_fast_forward` plans the period ends up to
    there from the cycles and advances every node once.
    """
    case = CASES[spec.case_id]
    scenario = spec.scenario
    validate_scenario(scenario)
    clock = SimClock.from_config(scenario)
    band = scenario.band
    radio_p = scenario.radio

    # TN-only cases disable every beam and free the whole band for the TN,
    # which is expressed by marking all groups uncoordinated.
    flags = (
        band.coordinated
        if case.ntn_enabled
        else tuple(False for _ in range(band.num_groups))
    )
    plan = build_band_plan(band.total_rbs, band.num_groups, flags, band.rb_bandwidth_hz)
    state = initial_allocation(plan, scenario.cdss)
    manager = SpectrumManager(plan, scenario.cdss)

    cells, beams, ues = build_topology(scenario, case, spec.seed)     # each in id order

    # Link budget and attachment, once (stationary UEs, quasi-Earth-fixed beams).
    rx_dbm = _link_budget(cells, beams, ues, radio_p, spec.seed)
    serving = select_serving(rx_dbm, radio_p.min_rsrp_dbm)

    store = MetricsStore(
        case_id=spec.case_id,
        seed=spec.seed,
        total_s=scenario.sim.total_s,
        warmup_s=scenario.sim.warmup_s,
    )
    attached: List[List[int]] = [[] for _ in range(len(cells) + len(beams))]
    for ue, tx in zip(ues, serving):
        if tx is None:
            store.unserved_ues.append(ue.ue_id)
            store.ue_system[ue.ue_id] = "none"
        else:
            attached[tx].append(ue.ue_id)
            store.ue_system[ue.ue_id] = "TN" if tx < len(cells) else "NTN"
    # build_topology lists UEs 0..n-1 in order, so increment[uid] is UE uid's
    increment = [demand_bps(scenario, case, ue) * clock.epoch_s / 8.0 for ue in ues]
    byte_factors = ByteFactors(plan, rx_dbm, serving, beams, radio_p, clock.epoch_s)
    low = byte_factors.low
    tn_nodes = [_node(spec.seed, increment, f"tn-{c.cell_id}", c.cell_id, ue_ids, None, low)
                for c, ue_ids in zip(cells, attached)]
    ntn_nodes = [_node(spec.seed, increment, f"ntn-{b.beam_id}", b.beam_id, ue_ids,
                       b.group_index, low) for b, ue_ids in zip(beams, attached[len(cells):])]
    nodes = tn_nodes + ntn_nodes            # position == transmitter row

    coordinated = manager.coordinated
    # Per RB: its group's byte row, and its load column, 1 + j in coordinated
    # group j and 0 in any other group, whose load no report reads.
    column = {gi: 1 + j for j, gi in enumerate(coordinated)}
    row_of_rb = [byte_factors.rows[g.index] for g in plan.groups for _ in g.rb_range]
    column_of_rb = [column.get(g.index, 0) for g in plan.groups for _ in g.rb_range]

    store.timeline_entries.extend(_timeline_rows(plan, state, case, clock, 0, 0))
    activity = [1.0] * len(nodes)
    guard_state, guard_due = None, 0        # the guard set holds until either changes
    blocker = 0             # the node polled first for steadiness
    epoch = 0
    while epoch < clock.total_epochs:
        # A new state has a new version, and an expiry drops RBs from the
        # guard-timed set, so the grants change at every guard check.
        if state is not guard_state or epoch == guard_due:
            _grant_rbs(plan, state, active_guard_rbs(state, epoch), nodes, row_of_rb,
                       column_of_rb)
            guard_state = state
            guard_due = min((e for e in state.guard_timed.values() if e > epoch), default=-1)

        changed = byte_factors.refresh(activity)
        if changed:         # a node whose UEs' entries changed has stale slots
            for node in nodes:
                if not changed.isdisjoint(node.ue_ids):
                    node.clear_memo()
        blocker = _blocker(nodes, blocker)
        if blocker < 0:
            state, epoch = _fast_forward(store, manager, clock, nodes, state, epoch, min(
                guard_due if guard_due > epoch else clock.total_epochs, clock.total_epochs))
        else:
            activity = _schedule_nodes(nodes, epoch >= clock.warmup_epochs)
            epoch += 1
            if epoch % clock.period_epochs == 0:
                state = _period_end(store, manager, clock, tn_nodes, state, epoch,
                                    map(period_load, map(attrgetter("period"), tn_nodes)))
        if epoch % clock.period_epochs == 0:
            for node in nodes:
                node.period = []

    # From the books, by UE position, to the store, by ue_id in ue_id order.
    # A UE's credits plus its final backlog are its opening backlog plus
    # its arrivals since, compared at the scale of the bytes that arrived.
    credited = clock.total_epochs - clock.warmup_epochs
    store.ue_bytes = dict.fromkeys(range(len(ues)), 0.0)
    for node in nodes:
        for uid, got, opening, inc, final in zip(node.ue_ids, node.books, node.opening,
                                                 node.increments, node.backlog):
            arrived = opening + inc * credited
            if not math.isclose(got + final, arrived, rel_tol=1e-9, abs_tol=1e-6):
                raise InvariantError(f"byte accounting mismatch: UE {uid} was credited "
                                     f"{got} bytes, its backlogs give {arrived - final}")
            store.ue_bytes[uid] = got
    _record_final(store, _timeline_rows(plan, state, case, clock, clock.total_epochs
                                        // clock.period_epochs, clock.total_epochs),
                  band.total_rbs, nodes)
    return store


# ---------------------------------------------------------------------------
# campaign layer

@dataclass
class RunRecord:
    """Outcome of one (case, seed) run inside a campaign."""

    case_id: int
    seed: int
    ok: bool
    error: Optional[str] = None     # `Type: message` of a failed run
    traceback: Optional[str] = None  # and its formatted traceback
    total_rx_bytes: float = 0.0
    tn_share: float = 0.0
    ntn_share: float = 0.0
    zero_throughput_fraction: float = 0.0
    throughputs_bps: List[float] = field(default_factory=list)
    files: Dict[str, str] = field(default_factory=dict)


class CampaignResult(NamedTuple):
    records: List[RunRecord]
    aggregates: Dict[int, Dict[str, float]]
    files: Dict[str, Path]


def run_and_write(spec: RunSpec, out_dir: Path) -> Tuple[MetricsStore, Dict[str, Path]]:
    """Run one spec and write its report files; an output directory that
    cannot be created fails before the run."""
    out_dir = output_dir(out_dir)
    store = run_simulation(spec)
    return store, finalize(store, out_dir)


def _campaign_worker(args: Tuple[RunSpec, str]) -> RunRecord:
    spec, out_dir = args
    try:
        store, files = run_and_write(spec, Path(out_dir))
    except Exception as exc:  # noqa: BLE001 - a failed run must not kill the campaign
        import traceback
        return RunRecord(spec.case_id, spec.seed, ok=False,
                         error=f"{type(exc).__name__}: {exc}",
                         traceback=traceback.format_exc())
    tputs = list(store.throughputs_bps().values())
    return RunRecord(
        spec.case_id,
        spec.seed,
        ok=True,
        total_rx_bytes=store.total_rx_bytes(),
        tn_share=store.tn_share,
        ntn_share=store.ntn_share,
        zero_throughput_fraction=store.zero_throughput_ues() / max(1, len(tputs)),
        throughputs_bps=tputs,
        files={k: str(p) for k, p in files.items()},
    )


def ProcessPoolExecutor(max_workers: int):  # noqa: N802 - stands in for the class
    """A `concurrent.futures.ProcessPoolExecutor` of `max_workers`,
    imported on first use: the pool's 30-odd modules (`multiprocessing`,
    `socket`, `subprocess` and more) would lengthen every cold start, and a
    single run never uses them.  `run_campaign` looks the pool up by this name,
    so a tracer or a test may swap it on the module."""
    from concurrent.futures import ProcessPoolExecutor as pool_class
    return pool_class(max_workers=max_workers)


def run_campaign(
    scenario: ScenarioConfig,
    case_ids: Sequence[int],
    seeds: Sequence[int],
    out_dir: Path,
    jobs: int = 1,
) -> CampaignResult:
    """Run every (case, seed) pair independently and aggregate per case.

    Runs share nothing; with jobs > 1 they execute in separate processes
    and the aggregation below is order-fixed, so results are identical for
    any parallelism degree.  Individual run failures are recorded, not
    fatal.  `jobs` must be at least 1 and is clamped to the number of runs
    and of CPUs.  The process pool is imported only when the clamped
    `jobs` exceeds 1 (`ProcessPoolExecutor`).
    """
    if not case_ids:
        raise ConfigurationError("campaign needs at least one case")
    if not seeds:
        raise ConfigurationError("campaign needs at least one seed")
    if jobs < 1:
        raise ConfigurationError(f"jobs = {jobs}: must be at least 1")
    specs = [RunSpec(scenario, cid, seed)      # a frozen spec pickles to a worker process
             for cid in sorted(set(case_ids)) for seed in sorted(set(seeds))]
    out_dir = output_dir(out_dir)
    work = [(spec, str(out_dir)) for spec in specs]
    jobs = min(jobs, len(work), os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_campaign_worker, work))
    else:
        records = [_campaign_worker(item) for item in work]

    aggregates: Dict[int, Dict[str, float]] = {}
    files: Dict[str, Path] = {}
    total_rows = []
    for cid in sorted(set(case_ids)):
        good = [r for r in records if r.case_id == cid and r.ok]
        if not good:
            aggregates[cid] = {"runs": 0.0}
            total_rows.append(f"{cid},0,,,,,,,,")
            continue
        totals = [r.total_rx_bytes for r in good]
        n = len(totals)
        mean = fold_sum(totals) / n
        var = fold_sum((t - mean) ** 2 for t in totals) / (n - 1) if n > 1 else 0.0
        std = math.sqrt(var)
        stderr = std / math.sqrt(n)
        pooled = sorted(t for r in good for t in r.throughputs_bps)
        aggregates[cid] = a = {
            "runs": float(n),
            "mean_total_rx_bytes": mean,
            "std_total_rx_bytes": std,
            "stderr_total_rx_bytes": stderr,
            "ci95_lo_total_rx_bytes": mean - 1.96 * stderr,
            "ci95_hi_total_rx_bytes": mean + 1.96 * stderr,
            "mean_tn_share": fold_sum(r.tn_share for r in good) / n,
            "mean_ntn_share": fold_sum(r.ntn_share for r in good) / n,
            "zero_throughput_fraction": (
                sum(1 for t in pooled if t == 0.0) / len(pooled) if pooled else 0.0
            ),
        }
        # the columns after `runs` are the aggregates, in their order
        total_rows.append(f"{cid},{n}," + ",".join(map(repr, [*a.values()][1:])))
        cdf_rows: List[str] = []       # runs with no UE pool nothing: the header alone
        if pooled:
            cdf = compute_cdf(pooled)
            cdf_rows = [f"{v!r},{p!r}" for v, p in zip(cdf.values, cdf.probabilities)]
        files[f"cdf_case_{cid}"] = write_table(
            out_dir / f"{cid}_pooled_throughput_cdf.csv", "throughput_bps,probability", cdf_rows
        )

    files["campaign_totals"] = write_table(
        out_dir / "campaign_totals.csv",
        "case,runs,mean_total_rx_bytes,std_total_rx_bytes,stderr_total_rx_bytes,"
        "ci95_lo,ci95_hi,mean_tn_share,mean_ntn_share,zero_throughput_fraction",
        total_rows,
    )
    return CampaignResult(records, aggregates, files)
