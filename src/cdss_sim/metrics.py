"""Run metrics: allocation timelines, byte totals, CDFs, report files.

One MetricsStore accumulates a single run and is finalized into a set of
delimited text tables plus one structured JSON summary.  File names follow
<case>_<seed>_<artifact>.csv / <case>_<seed>_summary.json so campaign
output directories stay flat and greppable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .errors import InvariantError
from .sums import fold_sum


class CdfSeries(NamedTuple):
    """Empirical CDF: sorted sample values with cumulative probabilities."""

    values: Tuple[float, ...]
    probabilities: Tuple[float, ...]


def compute_cdf(samples: Sequence[float]) -> CdfSeries:
    """Empirical CDF with P(i) = (i+1)/n over ascending samples.

    Zero-valued samples are kept so unserved UEs show up as mass at x=0.
    """
    if not samples:
        raise ValueError("CDF needs at least one sample")
    ordered = sorted(samples)
    n = len(ordered)
    return CdfSeries(tuple(ordered), tuple((i + 1) / n for i in range(n)))


class TimelineRow(NamedTuple):
    """Snapshot of one group's allocation after one controller step."""

    step: int
    epoch: int
    time_s: float
    group_index: int
    group_size: int
    coordinated: bool
    tn_rbs: int
    guard_rbs: int
    ntn_rbs: int
    version: int


class UtilizationSample(NamedTuple):
    """One cell's RB usage over one sampled controller period."""

    cell_id: int
    period_index: int
    time_s: float
    used_rb_epochs: int
    available_rb_epochs: int

    @property
    def utilization(self) -> float:
        if self.available_rb_epochs == 0:
            return 0.0
        return self.used_rb_epochs / self.available_rb_epochs


@dataclass
class MetricsStore:
    """Everything one run reports; filled by the engine, written here."""

    case_id: int
    seed: int
    total_s: float
    warmup_s: float
    timeline: List[TimelineRow] = field(default_factory=list)
    ue_bytes: Dict[int, float] = field(default_factory=dict)
    utilization: List[UtilizationSample] = field(default_factory=list)
    unserved_ues: List[int] = field(default_factory=list)
    ue_system: Dict[int, str] = field(default_factory=dict)   # TN / NTN / none
    node_rb_counts: Dict[str, int] = field(default_factory=dict)
    final_allocation: List[TimelineRow] = field(default_factory=list)
    tn_share: float = 0.0
    ntn_share: float = 0.0
    sms_steps: int = 0

    def throughputs_bps(self) -> Dict[int, float]:
        """Post-warmup application throughput per UE (zero for unserved)."""
        horizon = self.total_s - self.warmup_s
        return {uid: b * 8.0 / horizon for uid, b in sorted(self.ue_bytes.items())}

    def zero_throughput_ues(self) -> int:
        """How many UEs have a throughput of 0.0, the unserved among them."""
        return sum(t == 0.0 for t in self.throughputs_bps().values())

    def total_rx_bytes(self) -> float:
        return fold_sum(self.ue_bytes.values())


def _check_store(store: MetricsStore) -> None:
    for row in store.timeline:
        if row.coordinated and row.tn_rbs + row.guard_rbs + row.ntn_rbs != row.group_size:
            raise InvariantError(
                f"timeline step {row.step} group {row.group_index}: "
                f"allocation does not conserve the group size"
            )
    for sample in store.utilization:
        if not (0.0 <= sample.utilization <= 1.0):
            raise InvariantError(f"utilization out of range: {sample}")


def output_dir(out_dir) -> Path:
    """Create the report directory (and parents) if it is missing."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvariantError(f"cannot create output directory {out_dir}: {exc}") from exc
    return out_dir


def write_table(path: Path, header: str, rows: Sequence[str]) -> Path:
    """Write one delimited table, in one write: the header line, then one
    line per row.  An existing report is unlinked first: ext4 closes a new
    file far faster than a truncated, rewritten one (its `auto_da_alloc`
    flush), and a symlinked report is replaced by a plain file, its target
    left as is."""
    try:
        path.unlink(missing_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join([header, *rows, ""]))
    except OSError as exc:
        raise InvariantError(f"failed to write report {path}: {exc}") from exc
    return path


def _lines(rows: Sequence[tuple], suffix: str) -> List[str]:
    """The lines of a table whose rows lead with two ints and a time:
    those three, then `suffix.format(row)`, a function of the fields after
    the time, formatted once for each distinct tuple of them.  The rows of
    one period end follow each other and share one time object, whose
    repr is formatted once."""
    suffixes: Dict[tuple, str] = {}
    lines = []
    time_s = shown = None
    for row in rows:
        key = row[3:]
        text = suffixes.get(key)
        if text is None:
            text = suffixes[key] = suffix.format(row)
        if row[2] is not time_s:
            time_s = row[2]
            shown = repr(time_s)
        lines.append(f"{row[0]},{row[1]},{shown},{text}")
    return lines


def finalize(store: MetricsStore, out_dir: Path) -> Dict[str, Path]:
    """Write all report files for one run and return their paths."""
    _check_store(store)
    out_dir = output_dir(out_dir)
    prefix = f"{store.case_id}_{store.seed}"
    files: Dict[str, Path] = {}

    files["allocation_timeline"] = write_table(
        out_dir / f"{prefix}_allocation_timeline.csv",
        "step,epoch,time_s,group,group_size,coordinated,tn_rbs,guard_rbs,ntn_rbs,version",
        _lines(store.timeline, "{0.group_index},{0.group_size},{0.coordinated:d},"
                               "{0.tn_rbs},{0.guard_rbs},{0.ntn_rbs},{0.version}"),
    )

    files["final_allocation"] = write_table(
        out_dir / f"{prefix}_final_allocation.csv",
        "group,group_size,coordinated,tn_rbs,guard_rbs,ntn_rbs",
        [
            f"{r.group_index},{r.group_size},{int(r.coordinated)},"
            f"{r.tn_rbs},{r.guard_rbs},{r.ntn_rbs}"
            for r in store.final_allocation
        ],
    )

    files["rb_counts"] = write_table(
        out_dir / f"{prefix}_rb_counts.csv",
        "node_id,rb_count",
        [f"{node},{count}" for node, count in sorted(store.node_rb_counts.items())],
    )

    throughputs = store.throughputs_bps()
    files["throughput"] = write_table(
        out_dir / f"{prefix}_throughput.csv",
        "ue_id,system,rx_bytes,throughput_bps",
        [
            f"{uid},{store.ue_system.get(uid, 'none')},"
            f"{store.ue_bytes[uid]!r},{tput!r}"
            for uid, tput in throughputs.items()
        ],
    )

    files["utilization"] = write_table(
        out_dir / f"{prefix}_utilization.csv",
        "cell_id,period,time_s,used_rb_epochs,available_rb_epochs,utilization",
        _lines(store.utilization,
               "{0.used_rb_epochs},{0.available_rb_epochs},{0.utilization!r}"),
    )

    zero_tput = store.zero_throughput_ues()
    summary = {
        "case": store.case_id,
        "seed": store.seed,
        "total_s": store.total_s,
        "warmup_s": store.warmup_s,
        "ue_count": len(store.ue_bytes),
        "total_rx_bytes": store.total_rx_bytes(),
        "tn_share": store.tn_share,
        "ntn_share": store.ntn_share,
        "sms_steps": store.sms_steps,
        "unserved_ues": sorted(store.unserved_ues),
        "zero_throughput_ues": zero_tput,
        "zero_throughput_fraction": zero_tput / max(1, len(throughputs)),
        "mean_tn_utilization": (
            fold_sum(s.utilization for s in store.utilization) / len(store.utilization)
            if store.utilization
            else 0.0
        ),
        "final_allocation": {
            str(r.group_index): {
                "size": r.group_size,
                "coordinated": r.coordinated,
                "tn_rbs": r.tn_rbs,
                "guard_rbs": r.guard_rbs,
                "ntn_rbs": r.ntn_rbs,
            }
            for r in store.final_allocation
        },
        "node_rb_counts": dict(sorted(store.node_rb_counts.items())),
    }
    files["summary"] = write_table(out_dir / f"{prefix}_summary.json",
                                   json.dumps(summary, indent=2, sort_keys=True), [])
    return files
