"""Spectrum management server: load aggregation, threshold rule, updates.

The controller receives per-cell load reports, averages the TN load of one
coordinated group per optimization period (round-robin over groups), and
moves that group's TN/NTN boundary by a configured step when the average
leaves the target load window.  TN has priority: only TN load drives the
decision, and whatever TN does not need is handed to the NTN side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .band import (
    AllocationState,
    BandPlan,
    GroupAllocation,
    rb_ranges,
    validate_allocation,
)
from .domains import check_domains
from .errors import ConfigurationError, InvariantError, MissingDataError
from .sums import fold_sum


@dataclass(frozen=True)
class CdssConfig:
    """Controller parameters; defaults give a 60-80% TN load target."""

    lower_threshold: float = 0.60
    upper_threshold: float = 0.80
    step_rbs: int = 4
    tn_min: int = 12
    ntn_min: int = 6
    guard_rbs: int = 3
    period_s: float = 0.25
    guard_time_epochs: int = 1

    def __post_init__(self) -> None:
        check_domains("cdss", self)
        if self.lower_threshold >= self.upper_threshold:
            raise ConfigurationError(
                f"[cdss] lower_threshold: thresholds must satisfy lower_threshold < "
                f"upper_threshold, got ({self.lower_threshold}, {self.upper_threshold})"
            )


@dataclass(frozen=True)
class LoadReport:
    """One cell's RB usage within one group over one optimization period.

    Carries the ratio inputs rather than the ratio so the aggregator can
    weight or filter degenerate reports.
    """

    cell_id: int
    group_index: int
    used_rb_epochs: int
    available_rb_epochs: int
    period_end_epoch: int

    def __post_init__(self) -> None:
        if not (0 <= self.used_rb_epochs <= self.available_rb_epochs):
            raise ValueError(
                f"need 0 <= used <= available, got "
                f"{self.used_rb_epochs}/{self.available_rb_epochs}"
            )


def aggregate_load(reports: Sequence[LoadReport], group_index: int) -> float:
    """Arithmetic mean of used/available over the group's cell reports.

    Reports with zero available RB-epochs are excluded; if nothing usable
    remains the caller gets a MissingDataError and should skip the update.
    """
    ratios = [
        r.used_rb_epochs / r.available_rb_epochs
        for r in reports
        if r.group_index == group_index and r.available_rb_epochs > 0
    ]
    if not ratios:
        raise MissingDataError(f"no usable load reports for group {group_index}")
    return fold_sum(ratios) / len(ratios)


def decide_adjustment(avg_load: float, alloc: GroupAllocation, cfg: CdssConfig) -> int:
    """Signed TN RB delta for one group under the threshold rule.

    Above the upper threshold TN grows by step_rbs, below the lower
    threshold it shrinks by step_rbs, otherwise no change.  The raw step
    is clamped so the post-update state keeps tn_rbs >= tn_min and
    ntn_rbs >= ntn_min, which may yield a partial step near a minimum.
    """
    if avg_load > cfg.upper_threshold:
        raw = cfg.step_rbs
    elif avg_load < cfg.lower_threshold:
        raw = -cfg.step_rbs
    else:
        raw = 0
    lo = cfg.tn_min - alloc.tn_rbs          # most TN may shrink
    hi = alloc.ntn_rbs - cfg.ntn_min        # most TN may grow
    return max(lo, min(hi, raw))


def apply_adjustment(
    state: AllocationState,
    plan: BandPlan,
    group_index: int,
    delta: int,
    now: int,
    cfg: CdssConfig,
) -> AllocationState:
    """Move one group's TN/NTN boundary by `delta` RBs (TN grows upward).

    Every RB whose role (TN / guard / NTN) changes is entered into the
    guard-timed set with expiry `now + guard_time_epochs`.  A zero delta
    returns the state unchanged, with no version bump.  The post-state is
    re-validated; a violation aborts the run.
    """
    if delta == 0:
        return state
    group = plan.group(group_index)
    old = state.allocations[group_index]
    new_alloc = GroupAllocation(old.tn_rbs + delta, old.guard_rbs, old.ntn_rbs - delta)

    # Role changes are confined to the swept boundary region: from the
    # lower of the two TN edges up to the upper guard edge.
    old_tn, old_guard, _ = rb_ranges(group, old)
    new_tn, new_guard, _ = rb_ranges(group, new_alloc)
    lo = min(old_tn.stop, new_tn.stop)
    hi = max(old_guard.stop, new_guard.stop)
    expiry = now + cfg.guard_time_epochs
    guard_timed = {rb: exp for rb, exp in state.guard_timed.items() if exp > now}
    for rb in range(lo, hi):
        guard_timed[rb] = max(expiry, guard_timed.get(rb, expiry))

    allocations = dict(state.allocations)
    allocations[group_index] = new_alloc
    new_state = AllocationState(allocations, guard_timed, state.version + 1)
    violations = validate_allocation(new_state, plan, cfg)
    if violations:
        raise InvariantError(
            f"adjustment of group {group_index} by {delta} broke invariants: "
            + "; ".join(violations)
        )
    return new_state


class SpectrumManager:
    """Round-robin controller: one coordinated group considered per step.

    The manager owns only the round-robin cursor; allocation state flows
    through `sms_step` by value.  A missing or degenerate load report for
    the selected group skips that group's update but still advances the
    cursor.
    """

    def __init__(self, plan: BandPlan, cfg: CdssConfig):
        self.plan = plan
        self.cfg = cfg
        self._cursor = 0

    def sms_step(
        self, state: AllocationState, reports: Sequence[LoadReport], now: int
    ) -> Tuple[AllocationState, int]:
        """Run one optimization period: aggregate, decide, apply.

        Returns the new state and the TN delta applied to the selected
        group, 0 when the step was skipped or held.  The RBs each system
        may use follow from the state through `band.rb_ranges`.
        """
        coordinated = self.plan.coordinated_indices()
        if not coordinated:
            return state, 0
        gi = coordinated[self._cursor % len(coordinated)]
        self._cursor += 1
        try:
            avg = aggregate_load(reports, gi)
        except MissingDataError:
            return state, 0
        delta = decide_adjustment(avg, state.allocations[gi], self.cfg)
        return apply_adjustment(state, self.plan, gi, delta, now, self.cfg), delta
