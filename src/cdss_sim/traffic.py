"""Per-epoch round-robin RB scheduling, CBR arrivals, and load accounting."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .sums import fold_cycle


def generate_arrivals(backlog: Sequence[float], increments: Sequence[float]) -> List[float]:
    """The backlogs after one epoch of CBR demand: a new list with
    `increments[i]` bytes added to `backlog[i]`."""
    return [b + inc for b, inc in zip(backlog, increments)]


class Cycle:
    """The distinct epochs a node repeats, in start order: the keys, finals
    and `CellSchedule`s of its slots, one per rotation start, or its twin
    slot alone (see `Node.replay_cycle`).  Every position into a cycle is
    taken modulo its own length.

    `closed` says whether they chain: each final backlog is the next
    start's key, the last one the first's, and every epoch has the same
    activity, which slots kept through rewrites of other UEs' entries
    need not have (a cell whose RB count cycles with its rotation).  The
    prefix sums of their load rows (for `window` over several slots) and
    the matrix of their credited bytes (for `Node.fast_forward`) are built
    on first use, once per cycle, and each `window` once.
    """

    __slots__ = ("keys", "finals", "schedules", "closed", "_prefix", "_amounts", "_windows")

    def __init__(self, slots: List[tuple]) -> None:
        self.keys = [key for key, _, _ in slots]
        self.finals = [final for _, final, _ in slots]
        self.schedules = [sched for _, _, sched in slots]
        self.closed = self.finals == self.keys if len(slots) == 1 else (
            self.finals == self.keys[1:] + self.keys[:1]
            and len({s.activity for s in self.schedules}) == 1)
        self._prefix: Optional[List[Tuple[int, ...]]] = None
        self._amounts: Optional[np.ndarray] = None
        self._windows: Dict[tuple, List[int]] = {}

    def window(self, start: int, count: int) -> List[int]:
        """The load row summed over `count` epochs from position `start`:
        whole cycles, then a window that may wrap past the cycle's end (one
        slot's row times `count`), summed once: a repeated window is the same
        list, which none mutates."""
        key = start, count
        row = self._windows.get(key)
        if row is None and len(self.schedules) == 1:
            row = self._windows[key] = [count * x for x in self.schedules[0].load]
        elif row is None:
            if self._prefix is None:
                rows = [s.load for s in self.schedules]
                self._prefix = list(zip(*[accumulate(column, initial=0) for column in zip(*rows)]))
            n = len(self.schedules)
            reps, rest = divmod(count, n)
            end = start + rest
            if end > n:
                reps, end = reps + 1, end - n
            row = self._windows[key] = [reps * whole + hi - lo for whole, hi, lo in zip(
                self._prefix[n], self._prefix[end], self._prefix[start])]
        return row

    def amounts(self, n_ues: int) -> np.ndarray:
        """The bytes each epoch credits, in the row layout of `Node.books`:
        one row per UE position (0.0 where it was not served), one column
        per epoch of the cycle."""
        if self._amounts is None:
            self._amounts = np.zeros((n_ues, len(self.schedules)))
            for j, s in enumerate(self.schedules):
                for p, amount in s.served_bytes:
                    self._amounts[p, j] = amount
        return self._amounts


# Slots, not a dict: CPython 3.11 shrinks a class's shared key table with each
# instance made, so a field first set once a dozen nodes exist gives each a dict.
@dataclass(slots=True)
class Node:
    """One scheduling entity: a TN cell or an enabled NTN beam, the only
    owner of its per-run state.

    Built whole from its ids, its UEs in rotation order with their
    starting backlogs and per-epoch CBR increments (both in `ue_ids`
    order), its rotation offset (kept modulo the rotation length), for a
    beam its group, and the run's `ByteFactors.low` (see `schedule_epoch`).
    It derives the rest of its setup once: the `rotation` length (a node
    with no UE has one start), the post-warmup byte `books` (one total per
    UE), the rotation `table` of `(position, ue_id)` pairs and the
    `drained` arrivals onto all-zero backlogs (see `schedule_epoch`),
    lists never mutated.  The other fields are run
    state: the grant with its `grant_tables`, the current period's epochs,
    the replay memo and the backlogs before the first credit (`opening`).

    `backlog` is rebound, never mutated in place, because the memo keeps
    backlog lists by reference.  It has one slot per rotation start (the
    key of a node with no UE is the empty list): the backlogs before the
    epoch's arrivals (the key), the backlogs the dealing loop left and the
    `CellSchedule` it returned.  A slot reads only the grant and the
    byte-row entries of the node's own UEs, so it is valid while both
    hold: `set_grant` clears the slots, and whoever changes one of those
    entries must call `clear_memo` too; a grant rebuild that leaves the
    grant equal, or a rewrite of other UEs' entries, keeps them.  At most
    one slot per rotation start, so the memory is bounded by the UE count.

    When the node is `steady`, `fast_forward` replays its cycle for many
    epochs at once.  Each slot holds the epoch `schedule_epoch` last dealt
    at its start, from whatever key the node held then, so the chain of a
    cycle is checked (`Cycle.closed`), not trusted.  A scheduled epoch
    adds its load row to `period`, a fast-forward one row for its whole
    stretch (`Cycle.window`), and `ahead` plans rows to come.  Both credit
    their post-warmup epochs to the books as they run, so every total
    adds its epochs in order.  `twin` is the verified twin slot (see
    `schedule_epoch`), () if there is none, None until `_twin_at` asks.
    """

    node_id: str
    entity_id: int                  # cell_id or beam_id
    ue_ids: List[int] = field(default_factory=list)
    offset: int = 0                 # rotation start, advanced once per granted epoch
    backlog: List[float] = field(default_factory=list)
    increments: List[float] = field(default_factory=list)
    group_index: Optional[int] = None   # a beam's group; None for a TN cell
    low: Optional[List[float]] = None   # by ue_id: the fewest bytes any group's row gives
    rotation: int = field(init=False)
    books: List[float] = field(init=False)
    table: List[Tuple[int, int]] = field(init=False)    # (position, ue_id)
    drained: List[float] = field(init=False)    # arrivals onto zero backlogs
    granted: List[int] = field(init=False, default_factory=list)
    granted_rows: List[List[float]] = field(init=False, default_factory=list)
    row: Optional[List[float]] = field(init=False, default=None)    # the grant's one row or None
    load_prefix: List[Tuple[int, ...]] = field(init=False, default_factory=list)
    period: List[Sequence[int]] = field(init=False, default_factory=list)    # load rows
    slots: Dict[int, tuple] = field(init=False, default_factory=dict)
    cycle: Optional[Cycle] = field(init=False, default=None)   # the slots', while they hold
    twin: Optional[tuple] = field(init=False, default=None)    # a slot, () or None
    live: Optional[List[Tuple[int, float]]] = field(init=False, default=None)  # see schedule_epoch
    opening: Optional[List[float]] = field(init=False, default=None)

    def __post_init__(self) -> None:
        n = len(self.ue_ids)
        self.rotation = n or 1
        self.offset %= self.rotation
        self.books = [0.0] * n
        self.table = list(enumerate(self.ue_ids))
        self.drained = generate_arrivals([0.0] * n, self.increments)

    def set_grant(self, granted: List[int], granted_rows: List[List[float]],
                  load_prefix: List[Tuple[int, ...]], row: Optional[List[float]]) -> None:
        """Install a new grant and its tables; the memo's slots go stale."""
        self.granted, self.granted_rows, self.load_prefix = granted, granted_rows, load_prefix
        self.row = row
        self.clear_memo()

    def clear_memo(self) -> None:
        """Drop every slot, the cycle built from them and the twin."""
        self.slots.clear()
        self.cycle = None
        self.twin = None
        self.live = None

    def steady(self) -> bool:
        """Whether the node has a closed cycle (`replay_cycle`) whose
        current start's key is its backlog.  Then it repeats that cycle
        while the grant and its UEs' entries hold, and its activity, the
        one the last epoch gave, stays the same, so nodes that are all
        steady keep the rows as they are."""
        cycle = self.replay_cycle()
        return (cycle is not None and self.backlog == cycle.keys[self.offset % len(cycle.keys)]
                and cycle.closed)

    def replay_cycle(self) -> Optional[Cycle]:
        """The cycle the node repeats from its backlog, built once and kept
        until a slot changes: its twin slot alone, the epoch of every start,
        if the backlog is drained and its twin verified (`_twin_at`), else
        its slots' if it has one for each rotation start and the backlog is
        the current start's key, else None."""
        if self.cycle is None:
            n = self.rotation
            start = self.offset % n
            twin = not any(self.backlog) and _twin_at(self, start)
            if twin:
                self.cycle = Cycle([twin])
            elif len(self.slots) == n and self.slots[start][0] == self.backlog:
                # A list: CPython keeps freed tuples on one free list per length,
                # and tuples of every rotation length filled them, which raised
                # the peak memory of a process that runs many simulations.
                self.cycle = Cycle([self.slots[j] for j in range(n)])
        return self.cycle

    def ahead(self, skip: int, count: int) -> List[int]:
        """The `Cycle.window` of `count` epochs of the steady node's cycle
        from `skip` epochs past its position; a repeated one is the very list."""
        cycle = self.replay_cycle()
        return cycle.window((self.offset + skip) % len(cycle.keys), count)

    def fast_forward(self, epochs: int, credited: int) -> None:
        """Advance a steady node `epochs` epochs as `schedule_epoch` would,
        as one load row in `period`, to the final backlog its cycle gives;
        the engine has run from `ahead` any period end they pass.
        The `offset` advances modulo the rotation.  The last `credited`
        epochs are credited at once: `sums.fold_cycle` adds them to the
        books from the cycle position of the first, in the order and with
        the rounding of `record`'s epoch-by-epoch credits; an unserved UE
        adds 0.0, a no-op as no total is -0.0.  The run's first credit sets
        `opening` to that position's key."""
        cycle = self.replay_cycle()
        n = len(cycle.keys)
        start = self.offset % n
        self.period.append(cycle.window(start, epochs))
        self.offset = (self.offset + epochs) % self.rotation
        self.backlog = cycle.finals[(start + epochs - 1) % n]
        if credited:
            first = (start + epochs - credited) % n
            if self.opening is None:
                self.opening = cycle.keys[first]
            self.books[:] = fold_cycle(np.array(self.books), cycle.amounts(len(self.ue_ids)),
                                       first, credited).tolist()

    def record(self, sched: CellSchedule, credit: bool) -> None:
        """Add a scheduled epoch's load row to the period; with `credit`,
        add its bytes to the books."""
        self.period.append(sched.load)
        if credit:
            for p, amount in sched.served_bytes:
                self.books[p] += amount


class CellSchedule(NamedTuple):
    """Outcome of one epoch of scheduling in one cell or beam; immutable,
    as a replay hit returns the stored instance itself."""

    granted: Sequence[int]
    served_bytes: Tuple[Tuple[int, float], ...]   # (UE position, bytes), by position
    used_rb: int
    load: Tuple[int, ...]               # used RBs per load column, then the grant's size per column
    activity: float                     # used_rb over the granted RBs, 0.0 with none


def grant_tables(
    granted: Sequence[int], row_of_rb: Sequence[List[float]], column_of_rb: Sequence[int]
) -> Tuple[List[List[float]], List[Tuple[int, ...]], Optional[List[float]]]:
    """Per-grant lookups for `schedule_epoch`, built once per grant from
    two per-run maps: each RB's byte row (`row_of_rb[rb][ue_id]`) and its
    load column.

    Returns each granted RB's byte row (by reference, so a refresh that
    rewrites the rows in place keeps them current) and the load row of
    every prefix of `granted`: `prefix[i]` counts the RBs of each column
    among `granted[:i]`, then among all of `granted`, so it is the load of
    an epoch that deals `granted[:i]`.  Last, the grant's one byte row when
    every granted RB has that very list, else None (see `schedule_epoch`).
    """
    counts = [0] * (max(column_of_rb, default=-1) + 1)
    used = [tuple(counts)]
    for rb in granted:
        counts[column_of_rb[rb]] += 1
        used.append(tuple(counts))
    rows = [row_of_rb[rb] for rb in granted]
    row = rows[0] if rows else None
    return rows, [u + used[-1] for u in used], None if [r for r in rows if r is not row] else row


def schedule_epoch(node: Node) -> CellSchedule:
    """Add one epoch of arrivals to the node's backlogs, then deal granted
    RBs round robin to the backlogged UEs, a round at a time.

    `node.backlog` is rebound to the backlogs after the epoch.  The
    rotation starts at `node.offset` into `node.ue_ids` and the offset
    advances by one position per granted epoch, so saturated UEs receive
    RB counts that differ by at most one over a full rotation cycle.  Each
    pass walks the backlogged UEs in rotation order and each UE takes the
    next granted RB, carrying `granted_rows[i][ue_id]` bytes; a UE leaves
    once its backlog for the epoch is drained.  Every node takes this one
    path: a node with no UE has a rotation of length one and an empty
    backlog list, and a node with no granted RB deals none, so both only
    add their arrivals and report an activity of 0.0.

    Replay: the increments are fixed for the run, so the outcome depends
    only on the rotation start, the backlogs before arrivals, the grant
    and the byte rows, and the node's memo (see `Node`) is keyed on the
    pre-arrival backlog list itself.  A hit rebinds `node.backlog` to the
    stored final list and returns the stored schedule; a miss adds the
    arrivals, runs the loop below on a fresh list and fills the slot.
    Backlogs equal under `==` hold the same bits, because none is ever
    -0.0: it starts at 0.0, drains to `b - b` (+0.0) and grows by
    non-negative increments.  Neither list is mutated after it is stored.

    A miss from a drained key (every backlog 0.0, as in each epoch of a
    node whose UEs all drain) takes a fresh list of `node.drained`, the
    same `0.0 + increment` sums `generate_arrivals` would add; any other
    key adds them.  The rotation order is the node's `table` rotated to
    the start.  The UEs with no backlog leave it only when some backlog is
    0.0: no backlog is negative or NaN, so otherwise every UE is queued.
    So a miss deals from the same list in the same order as one that
    builds both UE by UE.

    Twin: a drained slot that used RBs, drained every UE, and over whose
    dealt rows each queued UE's capacity is positive and one value or
    never below its backlog.  Then no UE declines a dealt RB and its takes
    are `cap, cap, ..., rest` or its whole backlog, from any start, so
    every start deals each UE the same amount on the same RBs.  A schedule
    lists its amounts by UE position, so every start's deal is the twin's
    own `CellSchedule`: a drained key with no slot of its own is a hit on
    the twin slot and writes none.
    The twin is verified once per memo generation (`_twin_at`), at a
    drained miss or a steadiness poll whose previous start holds a
    drained slot; the answer is the same at every start.

    Skip rule: the walk is a cyclic cursor over the UEs still queued.  A
    UE whose capacity on the offered RB is zero only moves the cursor on;
    once every queued UE has declined an RB, that RB goes unused and the
    next RB is offered from the same cursor.  `load_prefix` (see
    `grant_tables`) turns the dealt prefix of `granted` into the epoch's
    load row.

    One take: over several rows, when every UE's backlog after arrivals is
    at most its `node.low` (see `ByteFactors.low`), every offered capacity
    is at least that backlog, which is above 0.0, so no queued UE declines
    and each drains on its first take: the queued UEs in rotation order
    take one RB each, `b` bytes to `b - b`, until the RBs run out, as the
    loop would, at a cost per UE.

    One row: when every granted RB carries one byte row (`node.row`, see
    `grant_tables`), a queued UE with a capacity above 0.0 never declines,
    so each pass is a round in which every such (live) UE takes one RB.
    So `(RBs left) // len(live)` whole rounds are dealt UE by UE, then the
    drained UEs leave; with no whole round left, the first live UEs in
    rotation order take one RB each.  Takes and served sums fold in the
    per-RB order, so each float keeps its bits; RBs go unused only once no
    UE is live, so the load is `load_prefix[k]`.  A declining UE stays queued.
    The row's entries for the node's UEs hold while the memo does, so the
    UEs with a capacity above 0.0 are listed once per memo generation
    (`Node.live`, by position) and each miss rotates that list to its start.
    """
    granted, rotation = node.granted, node.rotation
    start = node.offset % rotation
    if granted:
        node.offset = (start + 1) % rotation
    key = node.backlog
    slot = node.slots.get(start)
    if slot is not None and slot[0] == key:
        node.backlog = slot[1]
        return slot[2]
    granted_rows, load_prefix, row = node.granted_rows, node.load_prefix, node.row
    n_rb = len(granted)
    if any(key):
        backlog = generate_arrivals(key, node.increments)
    else:
        twin = _twin_at(node, start)
        if twin:
            node.backlog = twin[1]
            return twin[2]
        backlog = list(node.drained)
    table = node.table
    served = [0.0] * len(backlog)    # by UE position; every take is positive
    unused: List[int] = []       # granted positions every queued UE declined
    k = 0                        # next granted position to deal
    if row is not None:
        if node.live is None:       # the row's entries hold for the memo's generation
            node.live = [(p, cap) for p, uid in table if (cap := row[uid]) > 0.0]
        i = bisect_left(node.live, (start,))
        live = node.live[i:] + node.live[:i]
        if not all(backlog):
            live = [ue for ue in live if backlog[ue[0]] > 0.0]
        while live and k < n_rb:
            rounds = (n_rb - k) // len(live)
            if not rounds:          # the last round: one RB each for the first UEs
                live, rounds = live[:n_rb - k], 1
            k += rounds * len(live)
            left = 0                # UEs drained this round
            for p, cap in live:
                b, s, n = backlog[p], served[p], rounds
                while n and b > cap:
                    s += cap
                    b -= cap
                    n -= 1
                if n:               # drains to exactly 0.0 (b - b), with n - 1 takes to spare
                    s += b
                    b -= b
                    left += 1
                    k -= n - 1
                backlog[p], served[p] = b, s
            if left:
                live = [ue for ue in live if backlog[ue[0]]] if left < len(live) else []
    else:
        order = table[start:] + table[:start]
        if not all(backlog):
            order = [(p, uid) for p, uid in order if backlog[p] > 0.0]
        queued = len(order)      # UEs still queued
        low = node.low
        if low is not None:
            for p, uid in order:
                if backlog[p] > low[uid]:
                    break
            else:                   # every backlog fits: one take each (see above)
                for p, _ in order[:n_rb]:
                    b = backlog[p]
                    served[p], backlog[p] = b, b - b
                k, queued = min(queued, n_rb), 0
        declined = 0             # consecutive declines of RB `k`
        while queued and k < n_rb:
            left = False
            for p, uid in order:
                cap = granted_rows[k][uid]
                if cap <= 0.0:
                    declined += 1
                    if declined == queued:
                        unused.append(k)
                        declined = 0
                        k += 1
                        if k == n_rb:
                            break
                    continue
                declined = 0
                b = backlog[p]
                if b <= cap:        # drains to exactly 0.0 (b - b)
                    take = b
                    left = True
                    queued -= 1
                else:
                    take = cap
                backlog[p] = b - take
                served[p] += take
                k += 1
                if k == n_rb:
                    break
            if left and queued:
                order = [(p, uid) for p, uid in order if backlog[p] > 0.0]
    load = load_prefix[k]
    if unused:
        counts = list(load)
        for i in unused:
            for c, (hi, lo) in enumerate(zip(load_prefix[i + 1], load_prefix[i])):
                counts[c] -= hi - lo
        load = tuple(counts)
    served_bytes = tuple([(p, amount) for p, amount in enumerate(served) if amount])
    used_rb = k - len(unused)
    sched = CellSchedule(granted, served_bytes, used_rb, load, used_rb / n_rb if used_rb else 0.0)
    node.backlog = backlog
    node.slots[start] = (key, backlog, sched)
    node.cycle = None
    return sched


def _twin_at(node: Node, start: int) -> Optional[tuple]:
    """The node's twin, verified once per memo generation by `_twin` from
    the slot of the rotation start before `start` when that slot was dealt
    from a drained key; None while no such slot was seen.  Both a drained
    miss and a steadiness poll ask here."""
    twin = node.twin
    if twin is None:
        previous = node.slots.get((start - 1) % node.rotation)
        if previous is not None and not any(previous[0]):
            twin = node.twin = _twin(node, previous)
    return twin


def _twin(node: Node, slot: tuple) -> tuple:
    """A node's slot dealt from a drained key if it is a twin (see
    `schedule_epoch`), else ().  Over one row (`node.row`) a slot that
    drained every UE is one: a UE with a capacity of at most 0.0 is never
    live, so it would keep its backlog, and any other's is one positive
    value.  Over several rows, so is one whose UEs' drained backlogs are
    each at most their `node.low`, which no capacity is below.  Otherwise
    each distinct row of the dealt RBs is read once, not each RB."""
    _, final, sched = slot
    if not sched.used_rb or any(final):
        return ()
    if node.row is not None:
        return slot
    if node.low is not None and all(
            b <= node.low[uid] for (_, uid), b in zip(node.table, node.drained)):
        return slot
    rows = {id(row): row for row in node.granted_rows[:sched.used_rb]}.values()
    for p, uid in node.table:
        b = node.drained[p]
        if b > 0.0:
            caps = {row[uid] for row in rows}
            low = min(caps)
            if low < b and (len(caps) > 1 or low <= 0.0):
                return ()
    return slot


def period_load(period: Sequence[Sequence[int]]) -> List[int]:
    """One node's load row summed over one controller period (at least one
    epoch): the column sums of its rows (see `Node`)."""
    return [sum(column) for column in zip(*period)]
