"""The rows of a `MetricsStore`'s tables, each `metrics.Block` expanded the
plain way: one copy of each of its rows at every epoch of the block, with
the step, epoch and time put in by field name.  Tests read the timeline and
the utilization samples through here; `metrics.finalize` writes the same
rows without building them."""

from cdss_sim.metrics import Block, TimelineRow


def expanded(entries):
    rows = []
    for entry in entries:
        if not isinstance(entry, Block):
            rows.append(entry)
            continue
        for epoch in entry.epochs:
            step, time_s = epoch // entry.epochs.step, epoch * entry.epoch_s
            for row in entry.rows:
                if isinstance(row, TimelineRow):
                    rows.append(row._replace(step=step, epoch=epoch, time_s=time_s))
                else:
                    rows.append(row._replace(period_index=step, time_s=time_s))
    return rows


def timeline(store):
    """Every group's row after every controller step, in order."""
    return expanded(store.timeline_entries)


def utilization(store):
    """Every cell's sample of every period after the warmup, in order."""
    return expanded(store.utilization_entries)
