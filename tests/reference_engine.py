"""Naive reference engine: one run, epoch by epoch, with nothing cached.

Composes the naive oracles into a whole run so that the production
engine's caches can be checked end to end.  The UEs and their received
powers come from `reference_placement`, one scalar draw at a time, and
each UE attaches by `attach`, a loop over its column.  It reuses the
production cells and beams and byte factors (`scenario.build_topology`,
`engine.ByteFactors`, each checked against its own oracle), but builds a
fresh `ByteFactors` every epoch, so no refresh is ever skipped.
Everything after that is naive:

- grants are recomputed every epoch from the reference controller's role
  labels and guard-timed set, so a missed grant rebuild shows;
- every node is scheduled RB by RB through `reference_scheduler`, with no
  grant tables and no replay memo;
- load is counted RB by RB from the assignments;
- the label-map `reference_controller` moves the boundaries.

Bytes are credited from the per-RB scheduler's own per-epoch sums: each
UE's amount is the sum of its RBs in the order they were dealt, added once
per epoch to its total.  Adding every RB to the total separately would
regroup the float additions and change the last digits of the reports,
which are compared byte for byte.
"""

from fractions import Fraction
from typing import List, Optional

from cdss_sim.band import build_band_plan
from cdss_sim.engine import ByteFactors, RunSpec
from cdss_sim.metrics import MetricsStore, TimelineRow, UtilizationSample
from cdss_sim.scenario import CASES, SimClock, build_topology, demand_bps, derive_seed

import reference_placement
import reference_scheduler
from reference_controller import ReferenceController


def attach(rx_dbm, min_rsrp_dbm: float) -> List[Optional[int]]:
    """Each UE's serving row: walking its column top down, a row takes over
    only when strictly stronger, so ties stay with the earlier row (cells
    before beams, then the lower id).  None when that power is below
    `min_rsrp_dbm`."""
    serving = []
    for column in rx_dbm.T.tolist():
        best = 0
        for row, power in enumerate(column):
            if power > column[best]:
                best = row
        serving.append(best if column[best] >= min_rsrp_dbm else None)
    return serving


def _role(plan, ctrl, rb: int) -> str:
    """'T', 'G' or 'N' for a coordinated group's RB; '*' (both) otherwise."""
    for g in plan.groups:
        if g.rb_start <= rb < g.rb_stop:
            return ctrl.groups[g.index].labels[rb - g.rb_start] if g.coordinated else "*"
    raise ValueError(rb)


def _tn_grant(plan, ctrl, blocked) -> List[int]:
    """Every TN-usable RB not in guard time.  The groups are interleaved:
    the i-th of a group's n RBs sits at (i + 1/2) / n, ties to the lower RB."""
    keyed = []
    for g in plan.groups:
        rbs = [rb for rb in g.rb_range
               if _role(plan, ctrl, rb) in "T*" and rb not in blocked]
        keyed += [(Fraction(2 * i + 1, 2 * len(rbs)), rb) for i, rb in enumerate(rbs)]
    return [rb for _, rb in sorted(keyed)]


def _ntn_grant(plan, ctrl, group_index: int, blocked) -> List[int]:
    """The NTN-usable RBs of one group not in guard time, lowest first."""
    return [rb for rb in plan.group(group_index).rb_range
            if _role(plan, ctrl, rb) in "N*" and rb not in blocked]


def _timeline(plan, ctrl, case, clock, step: int, epoch: int) -> List[TimelineRow]:
    rows = []
    for g in plan.groups:
        if g.coordinated:
            labels = ctrl.groups[g.index].labels
            tn, guard, ntn = labels.count("T"), labels.count("G"), labels.count("N")
        else:
            tn, guard, ntn = g.size, 0, g.size if case.ntn_enabled else 0
        rows.append(TimelineRow(step, epoch, epoch * clock.epoch_s, g.index, g.size,
                                g.coordinated, tn, guard, ntn, ctrl.version))
    return rows


def run_reference(spec: RunSpec) -> MetricsStore:
    """One run of `spec`, computed the slow way; the same store as
    `engine.run_simulation` gives."""
    case, scenario = CASES[spec.case_id], spec.scenario
    band, cdss, radio = scenario.band, scenario.cdss, scenario.radio
    clock = SimClock.from_config(scenario)
    flags = band.coordinated if case.ntn_enabled else (False,) * band.num_groups
    plan = build_band_plan(band.total_rbs, band.num_groups, flags, band.rb_bandwidth_hz)
    ctrl = ReferenceController(
        [(g.index, g.rb_start, g.size, g.coordinated) for g in plan.groups],
        cdss.lower_threshold, cdss.upper_threshold, cdss.step_rbs,
        cdss.tn_min, cdss.ntn_min, cdss.guard_rbs, cdss.guard_time_epochs,
    )
    group_of = {rb: g.index for g in plan.groups for rb in g.rb_range}

    topo = build_topology(scenario, case, spec.seed)
    cells = sorted(topo.cells, key=lambda c: c.cell_id)
    beams = sorted(topo.beams, key=lambda b: b.beam_id)
    ues = reference_placement.place_ues(scenario, cells, spec.seed)
    rx_dbm = reference_placement.link_budget(cells, beams, ues, radio, spec.seed)
    serving = attach(rx_dbm, radio.min_rsrp_dbm)

    node_ids = [f"tn-{c.cell_id}" for c in cells] + [f"ntn-{b.beam_id}" for b in beams]
    members = [[ue.ue_id for ue, tx in zip(ues, serving) if tx == row]
               for row in range(len(node_ids))]
    rotations = [
        reference_scheduler.Rotation(
            derive_seed(spec.seed, f"rotation:{node_id}") % max(1, len(ue_ids)))
        for node_id, ue_ids in zip(node_ids, members)
    ]
    backlog = {ue.ue_id: reference_scheduler.Backlog() for ue in ues}
    demand = {ue.ue_id: demand_bps(scenario, case, ue) for ue in ues}

    store = MetricsStore(spec.case_id, spec.seed, scenario.sim.total_s, scenario.sim.warmup_s)
    store.ue_bytes = {ue.ue_id: 0.0 for ue in ues}
    for ue, tx in zip(ues, serving):
        if tx is None:
            store.unserved_ues.append(ue.ue_id)
        store.ue_system[ue.ue_id] = (
            "none" if tx is None else "TN" if tx < len(cells) else "NTN")
    store.timeline_entries.extend(_timeline(plan, ctrl, case, clock, 0, 0))

    def empty_counts():
        return [[0] * band.num_groups for _ in cells]

    used, avail = empty_counts(), empty_counts()
    activity = [1.0] * len(node_ids)
    period = 0
    for epoch in range(clock.total_epochs):
        blocked = {rb for rb, expiry in ctrl.guard_timed.items() if epoch < expiry}
        grants = [_tn_grant(plan, ctrl, blocked)] * len(cells)
        grants += [_ntn_grant(plan, ctrl, b.group_index, blocked) for b in beams]
        for ue_id, held in backlog.items():
            held.backlog_bytes += demand[ue_id] * clock.epoch_s / 8.0
        factors = ByteFactors(plan, rx_dbm, serving, beams, radio, clock.epoch_s)
        factors.refresh(activity)
        activity = [0.0] * len(node_ids)
        for row, node_id in enumerate(node_ids):
            sched = reference_scheduler.schedule_epoch(
                node_id, epoch, members[row], backlog, grants[row],
                lambda ue_id, rb: factors.rows[group_of[rb]][ue_id], rotations[row],
            )
            if grants[row]:
                activity[row] = sched.used_rb / len(grants[row])
            if row < len(cells):
                for rb in grants[row]:
                    avail[row][group_of[rb]] += 1
                for rbs in sched.assignments.values():
                    for rb in rbs:
                        used[row][group_of[rb]] += 1
            if epoch >= clock.warmup_epochs:
                for ue_id, amount in sched.served_bytes.items():
                    store.ue_bytes[ue_id] += amount

        if (epoch + 1) % clock.period_epochs == 0:
            now = epoch + 1
            period += 1
            load = None
            if ctrl.coordinated:
                gi = ctrl.coordinated[ctrl.cursor % len(ctrl.coordinated)]
                ratios = [used[c][gi] / avail[c][gi] for c in range(len(cells))
                          if avail[c][gi] > 0]
                total = 0               # added left to right in every Python version
                for ratio in ratios:
                    total += ratio
                load = total / len(ratios) if ratios else None
            if now - clock.period_epochs >= clock.warmup_epochs:
                store.utilization_entries.extend(
                    UtilizationSample(cell.cell_id, period, now * clock.epoch_s,
                                      sum(used[c]), sum(avail[c]))
                    for c, cell in enumerate(cells)
                )
            ctrl.step_once(load, now)
            store.sms_steps += 1
            store.timeline_entries.extend(_timeline(plan, ctrl, case, clock, period, now))
            used, avail = empty_counts(), empty_counts()

    final = _timeline(plan, ctrl, case, clock, period, clock.total_epochs)
    store.final_allocation = final
    coord = [r for r in final if r.coordinated]
    tn_usable = sum(r.tn_rbs for r in final)
    store.tn_share = tn_usable / band.total_rbs
    store.ntn_share = (sum(r.ntn_rbs for r in coord) / sum(r.group_size for r in coord)
                       if coord else 0.0)
    for cell in cells:
        store.node_rb_counts[f"tn-{cell.cell_id}"] = tn_usable
    for beam in beams:
        store.node_rb_counts[f"ntn-{beam.beam_id}"] = final[beam.group_index].ntn_rbs
    return store
