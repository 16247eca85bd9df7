"""Deterministic fixed-step simulation engine and campaign orchestration.

One run is single-threaded and fully determined by its RunSpec: topology
placement, LOS draws, and scheduler rotation offsets all come from child
seeds derived by labelled hashing of the master seed, so adding a stream
never perturbs the others.  The controller is invoked in-process once per
optimization period; the epoch pipeline is fixed as the byte-factor
refresh, arrivals and scheduling per node, metrics, then the controller
step at each period end.  Once every node's replay memo has closed into a
cycle, the engine replays all nodes up to the next period end or guard
expiry in one step (`traffic.Node.fast_forward`), with the same outputs.

Interference coupling: a transmitter's activity fraction for SINR purposes
is its RB utilization in the previous epoch (1.0 at epoch 0), which keeps
every epoch's outputs independent of the order cells are processed in.
"""

from __future__ import annotations

import math
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .band import active_guard_rbs, build_band_plan, initial_allocation, rb_ranges
from .controller import SpectrumManager
from .errors import ConfigurationError, InvariantError
from .metrics import (
    MetricsStore, TimelineRow, UtilizationSample, compute_cdf, finalize, output_dir,
    write_table,
)
from .radio import (
    los_state,
    ntn_rx_power,
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
    parse_scenario,
    serialize_scenario,
    validate_scenario,
)
from .sums import fold_sum
from .traffic import (
    Node,
    PeriodLoad,
    generate_arrivals,  # noqa: F401 - unused here; lets a tracer's getattr find it
    grant_tables,
    schedule_epoch,
)


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one run; equal specs give equal outputs."""

    scenario: ScenarioConfig
    case_id: int
    seed: int


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


def _grant_rbs(
    plan, state, blocked: AbstractSet[int], tn_nodes, ntn_nodes, beams, group_of_rb, rows
) -> None:
    """Grant rebuild: give every node its usable RBs, and the scheduler's
    byte-row and per-group prefix tables over them, after an allocation or
    guard-set change.  `Node.set_grant` discards the node's replay memo."""
    tn_order = tn_granted_rbs(plan, state, blocked)
    tn_tables = grant_tables(tn_order, group_of_rb, rows)
    for node in tn_nodes:
        node.set_grant(tn_order, *tn_tables)
    for node, beam in zip(ntn_nodes, beams):
        granted = ntn_granted_rbs(plan, state, beam.group_index, blocked)
        node.set_grant(granted, *grant_tables(granted, group_of_rb, rows))


def _link_budget(cells, beams, ues, radio_p, seed: int) -> np.ndarray:
    """Per-RB received power in dBm: rows are cells then beams, one column
    per UE.  LOS is drawn once per (UE, cell) pair, UE-major, from the
    run's "los" stream, as one block of those draws."""
    draws = np.random.default_rng(derive_seed(seed, "los")).uniform(
        0.0, 1.0, size=(len(ues), len(cells))).tolist()
    rx_dbm = np.full((len(cells) + len(beams), len(ues)), -np.inf)
    for ui, ue in enumerate(ues):
        for ti, (cell, draw) in enumerate(zip(cells, draws[ui])):
            is_los = los_state(ue, cell, draw, radio_p.los_d0_m, radio_p.los_scale_m)
            rx_dbm[ti, ui] = tn_rx_power(ue, cell, is_los, radio_p)
        for bi, beam in enumerate(beams):
            rx_dbm[len(cells) + bi, ui] = ntn_rx_power(ue, beam, radio_p)
    return rx_dbm


class ByteFactors:
    """Bytes one RB carries this epoch, as `rows[group][ue_id]`.

    A TN-attached UE has a value in every group; an NTN-attached UE only in
    its beam's group, the only group its beam is granted.  `refresh`
    rewrites the rows in place, so the per-grant row references that
    `traffic.grant_tables` hands the scheduler stay current.
    """

    def __init__(self, plan, rx_dbm, serving, beams, radio_p, epoch_s: float):
        n_cells = rx_dbm.shape[0] - len(beams)
        serving_tx = np.array([-1 if tx is None else tx for tx in serving], dtype=int)
        self.rows = [[0.0] * len(serving) for _ in plan.groups]
        self._last_activity: Optional[List[float]] = None
        self._groups = plan.groups
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

    def _bytes(self, interf: np.ndarray) -> np.ndarray:
        sinr = self._signal_lin / (self._noise_lin + interf)
        return spectral_efficiency_array(sinr, self._cap, self._floor) * self._byte_scale

    def refresh(self, activity: List[float]) -> bool:
        """Recompute every row from each transmitter's activity fraction.

        A TN-attached UE hears co-channel TN interference in every group,
        plus the group's beams where the group is uncoordinated.  An
        NTN-attached UE hears the other beams of its group, plus the TN
        where the group is uncoordinated.  Coordinated groups carry no
        cross-system interference by allocation disjointness.

        The rows are a function of `activity` alone, so an activity equal
        to the previous refresh's keeps them as they are.  Returns whether
        the rows were rewritten.
        """
        if activity == self._last_activity:
            return False
        self._last_activity = list(activity)
        activity = np.array(activity)
        rx_lin = self._rx_lin
        act_srv = activity[self._serving] * self._signal_lin
        tn_sum = activity[self._tn_idx] @ rx_lin[self._tn_idx, :]
        base_i = np.where(self._ue_is_tn, tn_sum - act_srv, 0.0)
        for g in self._groups:
            interf = base_i.copy()
            if not g.coordinated:
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
                vals = np.where(ue_mask, self._bytes(interf), vals)
            self.rows[g.index][:] = vals.tolist()
        return True


def _timeline_rows(plan, state, case, clock, step: int, epoch: int) -> List[TimelineRow]:
    """The allocation of every group at `epoch`, one row per group."""
    rows = []
    for g in plan.groups:
        if g.coordinated:
            alloc = state.allocations[g.index]
            tn, guard, ntn = alloc.tn_rbs, alloc.guard_rbs, alloc.ntn_rbs
        else:
            tn, guard = g.size, 0
            ntn = g.size if case.ntn_enabled else 0
        rows.append(
            TimelineRow(
                step, epoch, epoch * clock.epoch_s, g.index, g.size,
                g.coordinated, tn, guard, ntn, state.version,
            )
        )
    return rows


def _schedule_nodes(nodes, ue_bytes, node_bytes, post_warmup: bool) -> List[float]:
    """Schedule every node for one epoch, keep its schedule for the period's
    load and credit post-warmup bytes.  Every node that owes fast-forwarded
    bytes settles them first (`_settle`), so each total adds its epochs in
    order.

    Returns each transmitter's activity fraction (used over granted RBs),
    which sets the interference of the next epoch.
    """
    _settle(nodes, ue_bytes, node_bytes)
    activity = []
    for tx, node in enumerate(nodes):
        sched = schedule_epoch(node)
        node.period.append(sched)
        activity.append(sched.activity)
        if post_warmup and sched.served_bytes:
            for uid, amount in sched.served_bytes:
                ue_bytes[uid] += amount
            node_bytes[tx] += sched.node_bytes
    return activity


def _settle(nodes, ue_bytes, node_bytes) -> None:
    """Credit the fast-forwarded epochs each node owes (`traffic.Node.settle`)."""
    for tx, node in enumerate(nodes):
        if node.credit is not None:
            node_bytes[tx] = node.settle(ue_bytes, node_bytes[tx])


def _record_final(store, final_rows, total_rbs: int, tn_nodes, ntn_nodes, beams) -> None:
    """Final shares and per-node RB counts from the last allocation."""
    store.final_allocation = final_rows
    coord = [row for row in final_rows if row.coordinated]
    tn_usable = sum(row.tn_rbs for row in final_rows)
    store.tn_share = tn_usable / total_rbs
    store.ntn_share = (
        sum(row.ntn_rbs for row in coord) / sum(row.group_size for row in coord)
        if coord else 0.0
    )
    for node in tn_nodes:
        store.node_rb_counts[node.node_id] = tn_usable
    for node, beam in zip(ntn_nodes, beams):
        store.node_rb_counts[node.node_id] = final_rows[beam.group_index].ntn_rbs


def run_simulation(spec: RunSpec) -> MetricsStore:
    """Execute one deterministic run and return its metrics store.

    Stages: link budget and attachment once; then per epoch the guard
    check and grant rebuild (only on a new allocation state or a guard
    expiry), the byte-factor refresh, and each node's arrivals and
    scheduling; at each period end the load reports, utilization samples
    and the controller step.  When every node is steady
    (`traffic.Node.steady`) after the refresh, the refreshes since the
    slots were filled all kept the rows, so the activity, the rows and the
    grants stay fixed up to the next period end or guard expiry, and every
    node is fast-forwarded there.
    """
    if spec.case_id not in CASES:
        raise ConfigurationError(
            f"case {spec.case_id} unknown, valid cases are {sorted(CASES)}"
        )
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

    topo = build_topology(scenario, case, spec.seed)
    cells = sorted(topo.cells, key=attrgetter("cell_id"))
    beams = sorted(topo.beams, key=attrgetter("beam_id"))
    ues = sorted(topo.ues, key=attrgetter("ue_id"))

    # Link budget and attachment, once (stationary UEs, quasi-Earth-fixed beams).
    rx_dbm = _link_budget(cells, beams, ues, radio_p, spec.seed)
    serving = [select_serving(column, radio_p.min_rsrp_dbm) for column in rx_dbm.T]

    tn_nodes = [Node(f"tn-{c.cell_id}", c.cell_id) for c in cells]
    ntn_nodes = [Node(f"ntn-{b.beam_id}", b.beam_id) for b in beams]
    nodes = tn_nodes + ntn_nodes            # position == transmitter row
    store = MetricsStore(
        case_id=spec.case_id,
        seed=spec.seed,
        total_s=scenario.sim.total_s,
        warmup_s=scenario.sim.warmup_s,
    )
    for ue, tx in zip(ues, serving):
        if tx is None:
            store.unserved_ues.append(ue.ue_id)
            store.ue_system[ue.ue_id] = "none"
        else:
            nodes[tx].ue_ids.append(ue.ue_id)
            store.ue_system[ue.ue_id] = "TN" if tx < len(cells) else "NTN"
    for node in nodes:
        node.offset = (
            derive_seed(spec.seed, f"rotation:{node.node_id}") % max(1, len(node.ue_ids))
        )
        node.backlog = [0.0] * len(node.ue_ids)
        # build_topology numbers UEs 0..n-1, so ues[uid] is UE uid
        node.increments = [demand_bps(scenario, case, ues[uid]) * clock.epoch_s / 8.0
                           for uid in node.ue_ids]
    ue_bytes = [0.0] * len(ues)             # indexed by ue_id
    node_bytes = [0.0] * len(nodes)

    group_of_rb = [g.index for g in plan.groups for _ in g.rb_range]
    byte_factors = ByteFactors(plan, rx_dbm, serving, beams, radio_p, clock.epoch_s)

    store.timeline.extend(_timeline_rows(plan, state, case, clock, 0, 0))
    coordinated = plan.coordinated_indices()
    activity = [1.0] * len(nodes)
    guard_state, guard_due = None, 0        # the guard set holds until either changes
    # A node is steady at the earliest a whole rotation after a slot clear, so
    # steadiness is checked from `check_at` on: a longest rotation (at least
    # one epoch) after a row rewrite, then once per rotation while it fails.
    cycle = max([1] + [len(node.ue_ids) for node in nodes])
    check_at = 0
    epoch = 0
    while epoch < clock.total_epochs:
        # A new state has a new version, and an expiry drops RBs from the
        # guard-timed set, so the grants change at every guard check.
        if state is not guard_state or epoch == guard_due:
            _grant_rbs(plan, state, active_guard_rbs(state, epoch), tn_nodes, ntn_nodes, beams,
                       group_of_rb, byte_factors.rows)
            guard_state = state
            guard_due = min((e for e in state.guard_timed.values() if e > epoch), default=-1)

        if byte_factors.refresh(activity):      # new rows: every replay slot is stale
            for node in nodes:
                node.clear_memo()
            check_at = epoch + cycle
        if epoch >= check_at and all(node.steady() for node in nodes):
            stop = min(epoch - epoch % clock.period_epochs + clock.period_epochs,
                       guard_due if guard_due > epoch else clock.total_epochs,
                       clock.total_epochs)
            credited = max(0, stop - max(epoch, clock.warmup_epochs))
            for node in nodes:
                node.fast_forward(stop - epoch, credited)
            epoch = stop
        else:
            if epoch >= check_at:               # the check failed
                check_at = epoch + cycle
            activity = _schedule_nodes(nodes, ue_bytes, node_bytes,
                                       epoch >= clock.warmup_epochs)
            epoch += 1

        if epoch % clock.period_epochs == 0:
            step = epoch // clock.period_epochs
            loads = [PeriodLoad(node.period) for node in tn_nodes]   # NTN loads go unread
            reports = [
                report
                for node, load in zip(tn_nodes, loads)
                for report in load.reports(node.entity_id, coordinated, epoch)
            ]
            if epoch - clock.period_epochs >= clock.warmup_epochs:
                store.utilization.extend(
                    UtilizationSample(node.entity_id, step, epoch * clock.epoch_s, *load.totals())
                    for node, load in zip(tn_nodes, loads)
                )
            state = manager.sms_step(state, reports, epoch)[0]
            store.sms_steps += 1
            store.timeline.extend(_timeline_rows(plan, state, case, clock, step, epoch))
            for node in nodes:
                node.period = []

    _settle(nodes, ue_bytes, node_bytes)
    store.ue_bytes = dict(enumerate(ue_bytes))
    store.node_bytes = {node.node_id: b for node, b in zip(nodes, node_bytes)}
    final_rows = _timeline_rows(plan, state, case, clock,
                                clock.total_epochs // clock.period_epochs, clock.total_epochs)
    _record_final(store, final_rows, band.total_rbs, tn_nodes, ntn_nodes, beams)
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


@dataclass
class CampaignResult:
    records: List[RunRecord]
    aggregates: Dict[int, Dict[str, float]]
    files: Dict[str, Path]


def run_and_write(spec: RunSpec, out_dir: Path) -> Tuple[MetricsStore, Dict[str, Path]]:
    """Run one spec and write its report files; an output directory that
    cannot be created fails before the run."""
    out_dir = output_dir(out_dir)
    store = run_simulation(spec)
    return store, finalize(store, out_dir)


def _campaign_worker(args: Tuple[str, int, int, str]) -> RunRecord:
    scenario_text, case_id, seed, out_dir = args
    try:
        scenario = parse_scenario(scenario_text)
        store, files = run_and_write(RunSpec(scenario, case_id, seed), Path(out_dir))
    except Exception as exc:  # noqa: BLE001 - a failed run must not kill the campaign
        return RunRecord(case_id, seed, ok=False, error=f"{type(exc).__name__}: {exc}",
                         traceback=traceback.format_exc())
    tputs = list(store.throughputs_bps().values())
    zero = sum(1 for t in tputs if t == 0.0)
    return RunRecord(
        case_id,
        seed,
        ok=True,
        total_rx_bytes=store.total_rx_bytes(),
        tn_share=store.tn_share,
        ntn_share=store.ntn_share,
        zero_throughput_fraction=zero / max(1, len(tputs)),
        throughputs_bps=tputs,
        files={k: str(p) for k, p in files.items()},
    )


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
    and of CPUs.
    """
    if not case_ids:
        raise ConfigurationError("campaign needs at least one case")
    if not seeds:
        raise ConfigurationError("campaign needs at least one seed")
    if jobs < 1:
        raise ConfigurationError(f"jobs = {jobs}: must be at least 1")
    for cid in case_ids:
        if cid not in CASES:
            raise ConfigurationError(f"case {cid} unknown, valid cases are {sorted(CASES)}")
    out_dir = output_dir(out_dir)
    scenario_text = serialize_scenario(scenario)
    work = [
        (scenario_text, cid, seed, str(out_dir))
        for cid in sorted(set(case_ids))
        for seed in sorted(set(seeds))
    ]
    jobs = min(jobs, len(work), os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_campaign_worker, work))
    else:
        records = [_campaign_worker(item) for item in work]

    aggregates: Dict[int, Dict[str, float]] = {}
    files: Dict[str, Path] = {}
    for cid in sorted(set(case_ids)):
        good = [r for r in records if r.case_id == cid and r.ok]
        if not good:
            aggregates[cid] = {"runs": 0.0}
            continue
        totals = [r.total_rx_bytes for r in good]
        n = len(totals)
        mean = fold_sum(totals) / n
        var = fold_sum((t - mean) ** 2 for t in totals) / (n - 1) if n > 1 else 0.0
        std = math.sqrt(var)
        stderr = std / math.sqrt(n) if n else 0.0
        pooled = sorted(t for r in good for t in r.throughputs_bps)
        aggregates[cid] = {
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
        cdf_rows: List[str] = []       # runs with no UE pool nothing: the header alone
        if pooled:
            cdf = compute_cdf(pooled)
            cdf_rows = [f"{v!r},{p!r}" for v, p in zip(cdf.values, cdf.probabilities)]
        files[f"cdf_case_{cid}"] = write_table(
            out_dir / f"{cid}_pooled_throughput_cdf.csv", "throughput_bps,probability", cdf_rows
        )

    total_rows = []
    for cid in sorted(aggregates):
        a = aggregates[cid]
        if a.get("runs", 0) == 0:
            total_rows.append(f"{cid},0,,,,,,,,")
            continue
        total_rows.append(
            f"{cid},{int(a['runs'])},{a['mean_total_rx_bytes']!r},"
            f"{a['std_total_rx_bytes']!r},{a['stderr_total_rx_bytes']!r},"
            f"{a['ci95_lo_total_rx_bytes']!r},{a['ci95_hi_total_rx_bytes']!r},"
            f"{a['mean_tn_share']!r},{a['mean_ntn_share']!r},"
            f"{a['zero_throughput_fraction']!r}"
        )
    files["campaign_totals"] = write_table(
        out_dir / "campaign_totals.csv",
        "case,runs,mean_total_rx_bytes,std_total_rx_bytes,stderr_total_rx_bytes,"
        "ci95_lo,ci95_hi,mean_tn_share,mean_ntn_share,zero_throughput_fraction",
        total_rows,
    )
    return CampaignResult(records, aggregates, files)
