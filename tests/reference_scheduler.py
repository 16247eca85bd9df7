"""Independent per-RB reference for the round-robin scheduler.

Deals granted RBs one at a time through a deque whose head is the
rotation cursor: a UE that cannot use the offered RB is rotated past, a
served UE is rotated to the back or, once drained, popped.  Capacities
come from a `bytes_per_rb(ue_id, rb)` callable and per-RB assignments are
kept, so the production scheduler's round dealing, skip rule and
prefix-count group tallies can be checked against it.  Deliberately naive
so it cannot share bugs with the production path.
"""

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


@dataclass
class Backlog:
    """One UE's queued bytes."""

    backlog_bytes: float = 0.0


@dataclass
class Rotation:
    """Persistent rotation pointer for one node; advances one UE per epoch."""

    offset: int = 0


@dataclass
class ReferenceSchedule:
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
    flows: Mapping[int, Backlog],
    granted: Sequence[int],
    bytes_per_rb: Callable[[int, int], float],
    rotation: Rotation,
) -> ReferenceSchedule:
    """Deal granted RBs one at a time to backlogged UEs in rotating order."""
    schedule = ReferenceSchedule(node_id, epoch, tuple(granted), {}, {}, 0)
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


def load_row(schedule: ReferenceSchedule, granted: Sequence[int],
             column_of_rb: Sequence[int], columns: int) -> List[int]:
    """The used RBs per load column, tallied RB by RB from the assignments,
    then the granted RBs per column."""
    used, size = [0] * columns, [0] * columns
    for rbs in schedule.assignments.values():
        for rb in rbs:
            used[column_of_rb[rb]] += 1
    for rb in granted:
        size[column_of_rb[rb]] += 1
    return used + size
