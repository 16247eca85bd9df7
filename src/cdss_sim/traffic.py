"""Per-epoch round-robin RB scheduling, CBR arrivals, and load accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .controller import LoadReport
from .sums import fold_cycle


def generate_arrivals(backlog: Sequence[float], increments: Sequence[float]) -> List[float]:
    """The backlogs after one epoch of CBR demand: a new list with
    `increments[i]` bytes added to `backlog[i]`."""
    return [b + inc for b, inc in zip(backlog, increments)]


class Cycle:
    """The epochs a steady node repeats: the `CellSchedule` of each rotation
    start, in start order, built once while the node's slots hold.

    The integer prefix sums of their loads (for `PeriodLoad`) and the
    matrix of their credited bytes (for `Node.settle`) are built on first
    use, once per cycle.
    """

    __slots__ = ("schedules", "_prefix", "_amounts")

    def __init__(self, schedules: List[CellSchedule]) -> None:
        self.schedules = schedules
        self._prefix: Optional[List[List[int]]] = None
        self._amounts: Optional[np.ndarray] = None

    def load(self, column: int, start: int, count: int) -> Tuple[int, int]:
        """Load columns `column` and `column + 1` summed over `count` epochs
        from position `start`: whole cycles, then a window that may wrap
        past the cycle's end.  Columns 0 and 1 are the used and granted RBs,
        2 + 2g and 3 + 2g those of group g."""
        if self._prefix is None:
            cols = [[s.used_rb for s in self.schedules], [len(s.granted) for s in self.schedules]]
            for gi in range(len(self.schedules[0].used_per_group)):
                cols += [[s.used_per_group[gi] for s in self.schedules],
                         [s.granted_per_group[gi] for s in self.schedules]]
            self._prefix = [[0, *accumulate(col)] for col in cols]
        n = len(self.schedules)
        reps, rest = divmod(count, n)
        end = start + rest
        if end > n:
            reps, end = reps + 1, end - n
        used, granted = self._prefix[column], self._prefix[column + 1]
        return (reps * used[n] + used[end] - used[start],
                reps * granted[n] + granted[end] - granted[start])

    def amounts(self, ue_ids: Sequence[int]) -> np.ndarray:
        """The bytes each epoch credits: one row per UE of `ue_ids` (0.0
        where it was not served), then the node total, one column per epoch."""
        if self._amounts is None:
            row = {uid: i for i, uid in enumerate(ue_ids)}
            amounts = [[0.0] * len(self.schedules) for _ in range(len(ue_ids) + 1)]
            for j, s in enumerate(self.schedules):
                for uid, amount in s.served_bytes:
                    amounts[row[uid]][j] = amount
                amounts[-1][j] = s.node_bytes
            self._amounts = np.array(amounts)
        return self._amounts


class Run(NamedTuple):
    """`count` epochs of a node replaying `cycle` from position `start`."""

    cycle: Cycle
    start: int
    count: int


@dataclass
class Node:
    """One scheduling entity: a TN cell or an enabled NTN beam.

    Holds the node's UEs in rotation order with their backlogs and
    per-epoch CBR increments (both in `ue_ids` order), its persistent
    rotation offset, its grant (`granted` with the `grant_tables` over it),
    the epochs of the current controller period and its replay memo for
    `schedule_epoch`.

    `backlog` is rebound, never mutated in place, because the memo keeps
    backlog lists by reference.  It has one slot per rotation start: the
    backlogs before the epoch's arrivals (the key), the backlogs the
    dealing loop left and the `CellSchedule` it returned.  A slot is valid
    for one grant and one content of the byte rows: `set_grant` clears the
    slots, and whoever rewrites the rows must call `clear_memo` too.  At
    most one slot per UE, so the memory is bounded by the UE count.

    Once the node is `steady`, `fast_forward` replays the memo's cycle for
    many epochs at once.  The cycle is built once while the slots hold
    (`replay_cycle`), and every slot change drops it.  A scheduled epoch
    adds its `CellSchedule` to `period`, a fast-forward one `Run` record
    (the cycle, the start position and the epoch count), so its cost does
    not grow with the epochs it covers.  The bytes of its post-warmup
    epochs are owed, as one more `Run` in `credit`, until `settle` folds
    them in blocks of columns (`sums.fold_cycle`).
    """

    node_id: str
    entity_id: int                  # cell_id or beam_id
    ue_ids: List[int] = field(default_factory=list)
    offset: int = 0                 # rotation start, advanced once per epoch
    backlog: List[float] = field(default_factory=list)
    increments: List[float] = field(default_factory=list)
    granted: List[int] = field(default_factory=list)
    granted_rows: List[List[float]] = field(default_factory=list)
    group_prefix: List[Tuple[int, ...]] = field(default_factory=list)
    period: List[Union[CellSchedule, Run]] = field(default_factory=list)
    slots: Dict[int, tuple] = field(default_factory=dict)
    cycle: Optional[Cycle] = None   # the slots' cycle, while they hold
    credit: Optional[Run] = None    # the owed epochs `settle` must credit

    def set_grant(self, granted: List[int], granted_rows: List[List[float]],
                  group_prefix: List[Tuple[int, ...]]) -> None:
        """Install a new grant and its tables; the memo's slots go stale."""
        self.granted, self.granted_rows, self.group_prefix = granted, granted_rows, group_prefix
        self.clear_memo()

    def clear_memo(self) -> None:
        """Drop every slot, and the cycle built from them."""
        self.slots.clear()
        self.cycle = None

    def idle_schedule(self) -> CellSchedule:
        """The epoch of a node that deals nothing: no UE, or no granted RB."""
        return CellSchedule(self.granted, (), 0.0, 0, self.group_prefix[0],
                            self.group_prefix[-1], 0.0)

    def steady(self) -> bool:
        """Whether the node has no UEs, or a grant, a slot for each of its n
        rotation starts (its last n epochs) and the backlogs those began
        from; then it repeats them while the grant and the rows hold."""
        n = len(self.ue_ids)
        return n == 0 or (bool(self.granted) and len(self.slots) == n
                          and self.backlog == self.slots[self.offset % n][0])

    def replay_cycle(self) -> Cycle:
        """The cycle a steady node repeats, one idle epoch with no UEs."""
        if self.cycle is None:
            n = len(self.ue_ids)
            # A list: CPython keeps freed tuples on one free list per length,
            # and tuples of every rotation length filled them, which raised
            # the peak memory of a process that runs many simulations.
            self.cycle = Cycle([self.slots[j][2] for j in range(n)] if n
                               else [self.idle_schedule()])
        return self.cycle

    def fast_forward(self, epochs: int, credited: int) -> None:
        """Advance a steady node `epochs` epochs as `schedule_epoch` would;
        the last `credited` of them are owed.  The node is settled before
        its next scheduled epoch, so owed epochs are always one run of a cycle."""
        n = len(self.ue_ids)
        cycle = self.replay_cycle()
        if n == 0:
            self.period.append(Run(cycle, 0, epochs))
            return
        start = self.offset % n
        self.period.append(Run(cycle, start, epochs))
        self.offset = (start + epochs) % n
        self.backlog = self.slots[(start + epochs - 1) % n][1]
        if not credited:
            return
        if self.credit is None:
            self.credit = Run(cycle, (start + epochs - credited) % n, credited)
        else:
            self.credit = Run(cycle, self.credit.start, self.credit.count + credited)

    def settle(self, ue_bytes: List[float], node_bytes: float) -> float:
        """Fold the owed epochs' bytes into `ue_bytes` and the returned
        `node_bytes`, epoch by epoch as `schedule_epoch` results are
        credited; an unserved UE adds 0.0, a no-op as no total is -0.0."""
        if self.credit is None:
            return node_bytes
        cycle, first, owed = self.credit
        start = np.array([ue_bytes[uid] for uid in self.ue_ids] + [node_bytes])
        totals = fold_cycle(start, cycle.amounts(self.ue_ids), first, owed).tolist()
        for uid, total in zip(self.ue_ids, totals):
            ue_bytes[uid] = total
        self.credit = None
        return totals[-1]


@dataclass(frozen=True)        # a replay hit returns the stored instance itself
class CellSchedule:
    """Outcome of one epoch of scheduling in one cell or beam."""

    granted: Sequence[int]
    served_bytes: Tuple[Tuple[int, float], ...]   # (ue_id, bytes), in order of first service
    node_bytes: float                   # 0.0 + the served bytes, in that order
    used_rb: int
    used_per_group: Tuple[int, ...]
    granted_per_group: Tuple[int, ...]  # the grant's size per group
    activity: float                     # used_rb over the granted RBs, 0.0 with none


def grant_tables(
    granted: Sequence[int], group_of_rb: Sequence[int], rows: Sequence[List[float]]
) -> Tuple[List[List[float]], List[Tuple[int, ...]]]:
    """Per-grant lookups for `schedule_epoch`, built once per grant.

    Returns each granted RB's byte row (`rows[group][ue_id]`, by reference,
    so a refresh that rewrites the rows in place keeps them current) and
    the per-group RB counts of every prefix of `granted`:
    `prefix[i][g]` counts the RBs of group g among `granted[:i]`, so
    `prefix[-1]` is the grant's per-group size.
    """
    counts = [0] * len(rows)
    prefix = [tuple(counts)]
    for rb in granted:
        counts[group_of_rb[rb]] += 1
        prefix.append(tuple(counts))
    return [rows[group_of_rb[rb]] for rb in granted], prefix


def schedule_epoch(node: Node) -> CellSchedule:
    """Add one epoch of arrivals to the node's backlogs, then deal granted
    RBs round robin to the backlogged UEs, a round at a time.

    `node.backlog` is rebound to the backlogs after the epoch.  The
    rotation starts at `node.offset` into `node.ue_ids` and the offset
    advances by one position per granted epoch, so saturated UEs receive
    RB counts that differ by at most one over a full rotation cycle.  Each
    pass walks the backlogged UEs in rotation order and each UE takes the
    next granted RB, carrying `granted_rows[i][ue_id]` bytes; a UE leaves
    once its backlog for the epoch is drained.  A node with no granted RB
    only adds its arrivals.

    Replay: the increments are fixed for the run, so the outcome depends
    only on the rotation start, the backlogs before arrivals, the grant
    and the byte rows, and the node's memo (see `Node`) is keyed on the
    pre-arrival backlog list itself.  A hit rebinds `node.backlog` to the
    stored final list and returns the stored schedule; a miss adds the
    arrivals, runs the loop below on a fresh list and fills the slot.
    Backlogs equal under `==` hold the same bits, because none is ever
    -0.0: it starts at 0.0, drains to `b - b` (+0.0) and grows by
    non-negative increments.  Neither list is mutated after it is stored.

    Skip rule: the walk is a cyclic cursor over the UEs still queued.  A
    UE whose capacity on the offered RB is zero only moves the cursor on;
    once every queued UE has declined an RB, that RB goes unused and the
    next RB is offered from the same cursor.  `group_prefix` (see
    `grant_tables`) turns the dealt prefix of `granted` into per-group
    used counts.
    """
    ue_order, granted = node.ue_ids, node.granted
    n = len(ue_order)
    if n == 0 or not granted:
        node.backlog = generate_arrivals(node.backlog, node.increments)
        return node.idle_schedule()
    start = node.offset % n
    node.offset = (start + 1) % n
    key = node.backlog
    slot = node.slots.get(start)
    if slot is not None and slot[0] == key:
        node.backlog = slot[1]
        return slot[2]
    granted_rows, group_prefix = node.granted_rows, node.group_prefix
    n_rb = len(granted)
    backlog = generate_arrivals(key, node.increments)
    order = [(p, ue_order[p]) for p in [*range(start, n), *range(start)]
             if backlog[p] > 0.0]
    served: Dict[int, float] = {}
    unused: List[int] = []       # granted positions every queued UE declined
    live = len(order)            # UEs still queued
    declined = 0                 # consecutive declines of RB `k`
    k = 0                        # next granted position to deal
    while live and k < n_rb:
        left = False
        for p, uid in order:
            cap = granted_rows[k][uid]
            if cap <= 0.0:
                declined += 1
                if declined == live:
                    unused.append(k)
                    declined = 0
                    k += 1
                    if k == n_rb:
                        break
                continue
            declined = 0
            b = backlog[p]
            if b <= cap:            # drains to exactly 0.0 (b - b)
                take = b
                left = True
                live -= 1
            else:
                take = cap
            backlog[p] = b - take
            served[uid] = served.get(uid, 0.0) + take
            k += 1
            if k == n_rb:
                break
        if left:
            order = [(p, uid) for p, uid in order if backlog[p] > 0.0]
    used_per_group = list(group_prefix[k])
    for i in unused:
        for gi, (hi, lo) in enumerate(zip(group_prefix[i + 1], group_prefix[i])):
            used_per_group[gi] -= hi - lo
    node_bytes = 0.0
    for amount in served.values():
        node_bytes += amount
    used_rb = k - len(unused)
    sched = CellSchedule(granted, tuple(served.items()), node_bytes, used_rb,
                         tuple(used_per_group), group_prefix[-1], used_rb / n_rb)
    node.backlog = backlog
    node.slots[start] = (key, backlog, sched)
    node.cycle = None
    return sched


class PeriodLoad:
    """One node's RB usage over one controller period, summed from the
    period's epochs (at least one) only when read: per group for the
    groups that are reported, in total for the periods that are sampled.

    A scheduled epoch's `CellSchedule` is added as it is; a fast-forward's
    `Run` adds whole cycles and a wrapped window from its cycle's prefix
    sums, at a cost that does not grow with its epoch count.
    """

    def __init__(self, period: Sequence[Union[CellSchedule, Run]]) -> None:
        self.period = period

    def group(self, gi: int) -> Tuple[int, int]:
        """Used and granted RB-epochs of group `gi`."""
        used = granted = 0
        for s in self.period:
            if s.__class__ is Run:
                u, g = s.cycle.load(2 + 2 * gi, s.start, s.count)
            else:
                u, g = s.used_per_group[gi], s.granted_per_group[gi]
            used, granted = used + u, granted + g
        return used, granted

    def totals(self) -> Tuple[int, int]:
        """Used and granted RB-epochs over all groups; every used or granted
        RB lies in exactly one group, so these are the per-group sums."""
        used = granted = 0
        for s in self.period:
            if s.__class__ is Run:
                u, g = s.cycle.load(0, s.start, s.count)
            else:
                u, g = s.used_rb, len(s.granted)
            used, granted = used + u, granted + g
        return used, granted

    def reports(
        self, cell_id: int, group_indices: Sequence[int], now: int
    ) -> List[LoadReport]:
        """One LoadReport per listed group that had granted RBs this period."""
        reports = []
        for gi in group_indices:
            used, avail = self.group(gi)
            if avail > 0:
                reports.append(LoadReport(cell_id, gi, used, avail, now))
        return reports
