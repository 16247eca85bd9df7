"""CBR traffic, per-epoch round-robin RB scheduling, and load accounting."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from .controller import LoadReport


@dataclass
class TrafficFlow:
    """Downlink constant-bitrate flow toward one UE."""

    ue_id: int
    demand_bps: float
    backlog_bytes: float = 0.0
    received_bytes: float = 0.0


def generate_arrivals(flow: TrafficFlow, epoch_duration_s: float) -> float:
    """Accumulate one epoch of CBR demand; returns the new backlog."""
    flow.backlog_bytes += flow.demand_bps * epoch_duration_s / 8.0
    return flow.backlog_bytes


@dataclass
class RoundRobinState:
    """Persistent rotation pointer for one cell; advances one UE per epoch."""

    offset: int = 0


@dataclass
class CellSchedule:
    """Outcome of one epoch of scheduling in one cell or beam."""

    node_id: str
    epoch: int
    granted: Tuple[int, ...]
    assignments: Dict[int, List[int]]    # ue_id -> RB indices
    served_bytes: Dict[int, float]
    used_rb: int


def schedule_epoch(
    node_id: str,
    epoch: int,
    ue_order: Sequence[int],
    flows: Mapping[int, TrafficFlow],
    granted: Sequence[int],
    bytes_per_rb: Callable[[int, int], float],
    rotation: RoundRobinState,
) -> CellSchedule:
    """Deal granted RBs one at a time to backlogged UEs in rotating order.

    The rotation starts at the persistent pointer into `ue_order` and the
    pointer advances by one position per epoch, so saturated UEs receive
    RB counts that differ by at most one over a full rotation cycle.  A UE
    leaves the rotation once its backlog for the epoch is drained; a UE
    whose rate on the offered RB is zero is skipped for that RB.  Bytes
    carried per RB come from `bytes_per_rb(ue_id, rb)`, which folds in the
    UE's spectral efficiency and the RB bandwidth-time product.
    """
    schedule = CellSchedule(node_id, epoch, tuple(granted), {}, {}, 0)
    n = len(ue_order)
    if n == 0 or not granted:
        return schedule
    start = rotation.offset % n
    queue = deque(
        uid
        for uid in list(ue_order[start:]) + list(ue_order[:start])
        if flows[uid].backlog_bytes > 0.0
    )
    for rb in granted:
        served = False
        for _ in range(len(queue)):
            uid = queue[0]
            capacity = bytes_per_rb(uid, rb)
            if capacity <= 0.0:
                queue.rotate(-1)  # cannot use this RB; try the next UE
                continue
            flow = flows[uid]
            take = min(flow.backlog_bytes, capacity)
            flow.backlog_bytes -= take
            flow.received_bytes += take
            schedule.assignments.setdefault(uid, []).append(rb)
            schedule.served_bytes[uid] = schedule.served_bytes.get(uid, 0.0) + take
            schedule.used_rb += 1
            if flow.backlog_bytes <= 0.0:
                queue.popleft()
            else:
                queue.rotate(-1)
            served = True
            break
        if not served and not queue:
            break
    rotation.offset = (rotation.offset + 1) % n
    return schedule


class PeriodLoad:
    """One node's RB usage over one controller period: used and granted
    RB-epochs, per frequency group and in total."""

    def __init__(self, num_groups: int) -> None:
        self.used_per_group = [0] * num_groups
        self.avail_per_group = [0] * num_groups
        self.used_total = self.avail_total = 0

    def add(self, sched: CellSchedule, group_of_rb: Sequence[int],
            group_avail: Sequence[int]) -> None:
        """Fold in one epoch; `group_avail` counts its granted RBs per group."""
        used = self.used_per_group
        for rbs in sched.assignments.values():
            for rb in rbs:
                used[group_of_rb[rb]] += 1
        for gi, count in enumerate(group_avail):
            self.avail_per_group[gi] += count
        self.used_total += sched.used_rb
        self.avail_total += len(sched.granted)

    def reports(
        self, cell_id: int, group_indices: Sequence[int], now: int
    ) -> List[LoadReport]:
        """One LoadReport per listed group that had granted RBs this period."""
        return [
            LoadReport(cell_id, gi, self.used_per_group[gi], self.avail_per_group[gi], now)
            for gi in group_indices
            if self.avail_per_group[gi] > 0
        ]
