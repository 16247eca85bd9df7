"""Shared-band RB grid: frequency groups and the TN / guard / NTN split.

The shared band is a grid of `total_rbs` resource blocks partitioned into
contiguous frequency groups.  A coordinated group is split three ways, low
indices to high: a TN range, a fixed-width guard band, and an NTN range.
An uncoordinated group is usable in full by both systems and carries no
split.  All objects here have value semantics; updates go through
`controller.apply_adjustment`, which returns new states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance, typing only
    from .controller import CdssConfig


@dataclass(frozen=True)
class FrequencyGroup:
    """One contiguous slice of the RB grid."""

    index: int
    rb_start: int
    rb_stop: int  # half-open
    coordinated: bool

    @property
    def size(self) -> int:
        return self.rb_stop - self.rb_start

    @property
    def rb_range(self) -> range:
        return range(self.rb_start, self.rb_stop)


class BandPlan(NamedTuple):
    """The full RB grid and its group partition."""

    total_rbs: int
    groups: Tuple[FrequencyGroup, ...]
    rb_bandwidth_hz: float = 180_000.0

    def group(self, index: int) -> FrequencyGroup:
        return self.groups[index]

    def coordinated_indices(self) -> Tuple[int, ...]:
        """Indices of the coordinated groups, ascending."""
        return tuple(g.index for g in self.groups if g.coordinated)


class GroupAllocation(NamedTuple):
    """TN low end, guard band in the middle, NTN high end of one group."""

    tn_rbs: int
    guard_rbs: int
    ntn_rbs: int

    @property
    def size(self) -> int:
        return self.tn_rbs + self.guard_rbs + self.ntn_rbs


def rb_ranges(
    group: FrequencyGroup, alloc: Optional[GroupAllocation]
) -> Tuple[range, range, range]:
    """The (TN, guard, NTN) RB ranges of one group: the only map from the
    widths to RB indices.

    A coordinated group is split low to high from `rb_start`, with NTN
    running to `rb_stop`.  An uncoordinated group (`alloc` None) goes whole
    to both systems and has no guard band.
    """
    if alloc is None:
        return group.rb_range, range(0), group.rb_range
    tn_stop = group.rb_start + alloc.tn_rbs
    guard_stop = tn_stop + alloc.guard_rbs
    return (range(group.rb_start, tn_stop), range(tn_stop, guard_stop),
            range(guard_stop, group.rb_stop))


class AllocationState(NamedTuple):
    """Per-group splits plus the guard-timed RB set and an update counter.

    `allocations` holds one GroupAllocation per coordinated group index.
    `guard_timed` maps an RB index to the epoch at which its blackout ends;
    an entry created by an update at epoch `now` expires at
    `now + guard_time_epochs`.  `version` increments once per applied
    (non-zero) update.
    """

    allocations: Dict[int, GroupAllocation]
    guard_timed: Dict[int, int]
    version: int = 0


def active_guard_rbs(state: AllocationState, epoch: int) -> Set[int]:
    """RBs still inside their guard-time blackout at `epoch`."""
    return {rb for rb, expiry in state.guard_timed.items() if epoch < expiry}


def build_band_plan(
    total_rbs: int,
    num_groups: int,
    coordinated_flags: Sequence[bool],
    rb_bandwidth_hz: float = 180_000.0,
) -> BandPlan:
    """Partition `total_rbs` into `num_groups` contiguous groups.

    Groups are sized by even division; remainder RBs go one each to the
    lowest-index groups, so sizes differ by at most one and are ascending
    in index only in position, never in size.
    """
    if num_groups < 1:
        raise ConfigurationError("band plan needs at least one group")
    if total_rbs < num_groups:
        raise ConfigurationError(
            f"cannot split {total_rbs} RBs into {num_groups} non-empty groups"
        )
    if len(coordinated_flags) != num_groups:
        raise ConfigurationError(
            f"got {len(coordinated_flags)} coordination flags for {num_groups} groups"
        )
    base, rem = divmod(total_rbs, num_groups)
    groups = []
    start = 0
    for i in range(num_groups):
        size = base + (1 if i < rem else 0)
        groups.append(FrequencyGroup(i, start, start + size, bool(coordinated_flags[i])))
        start += size
    return BandPlan(total_rbs, tuple(groups), rb_bandwidth_hz)


def initial_allocation(plan: BandPlan, cfg: "CdssConfig") -> AllocationState:
    """Split every coordinated group equally between TN and NTN.

    TN takes floor((size - guard) / 2); the leftover RB of an odd usable
    range goes to NTN.  The split is verified against the minimum
    reservations and clamped into the feasible band when the minimums are
    asymmetric enough to pull one side below its floor.  Raises if any
    coordinated group cannot hold the minimums plus the guard band at all.
    """
    allocations: Dict[int, GroupAllocation] = {}
    for g in plan.groups:
        if not g.coordinated:
            continue
        needed = cfg.tn_min + cfg.ntn_min + cfg.guard_rbs
        if g.size < needed:
            raise ConfigurationError(
                f"group {g.index} has {g.size} RBs but minimums require {needed} "
                f"(tn_min {cfg.tn_min} + ntn_min {cfg.ntn_min} + guard {cfg.guard_rbs})"
            )
        usable = g.size - cfg.guard_rbs
        tn = max(cfg.tn_min, min(usable - cfg.ntn_min, usable // 2))
        allocations[g.index] = GroupAllocation(tn, cfg.guard_rbs, usable - tn)
    return AllocationState(allocations=allocations, guard_timed={}, version=0)


def validate_allocation(
    state: AllocationState, plan: BandPlan, cfg: "CdssConfig"
) -> List[str]:
    """Check conservation, minimums, guard constancy, and range layout.

    Returns a list of human-readable violations; an empty list means the
    state is valid.  Violations are data, not exceptions.
    """
    violations: List[str] = []
    coordinated = set(plan.coordinated_indices())
    for gi in sorted(state.allocations):
        if gi not in coordinated:
            violations.append(f"group {gi}: allocation present for uncoordinated group")
    for gi in sorted(coordinated):
        alloc = state.allocations.get(gi)
        if alloc is None:
            violations.append(f"group {gi}: coordinated group has no allocation")
            continue
        group = plan.group(gi)
        if min(alloc.tn_rbs, alloc.guard_rbs, alloc.ntn_rbs) < 0:
            violations.append(f"group {gi}: negative range width in {alloc}")
            continue
        if alloc.size != group.size:
            violations.append(
                f"group {gi}: conservation broken, "
                f"{alloc.tn_rbs}+{alloc.guard_rbs}+{alloc.ntn_rbs} != {group.size}"
            )
        if alloc.tn_rbs < cfg.tn_min:
            violations.append(f"group {gi}: tn_rbs {alloc.tn_rbs} < tn_min {cfg.tn_min}")
        if alloc.ntn_rbs < cfg.ntn_min:
            violations.append(
                f"group {gi}: ntn_rbs {alloc.ntn_rbs} < ntn_min {cfg.ntn_min}"
            )
        if alloc.guard_rbs != cfg.guard_rbs:
            violations.append(
                f"group {gi}: guard width {alloc.guard_rbs} != configured {cfg.guard_rbs}"
            )
        # Non-negative widths lay the ranges end to end from rb_start, so
        # they are disjoint and tile the group unless the guard band ends
        # past it.
        if alloc.tn_rbs + alloc.guard_rbs > group.size:
            violations.append(f"group {gi}: TN/guard/NTN ranges do not tile the group")
    return violations
