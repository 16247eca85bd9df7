"""Outside-in layer tracing for cdss_sim.

`Tracer.installed()` swaps the names `cdss_sim.engine` looks up at call
time (plus `SpectrumManager.sms_step`, `scenario.parse_scenario` and the
campaign's process pool) for timing wrappers, and restores them on exit.
No file under `src/` changes.

Every wrapped call adds its duration, and its duration minus the time of
wrapped calls nested in it (self time), to its layer's totals.  Coarse
calls (a run, a topology build, a report write, a campaign worker task)
are also kept as spans: name, run id, start, end, parent span name and
process id.  Spans stay in memory until the benchmark writes them out.

Campaign workers are forked with the wrappers in place (fork is the
default start method on Linux).  Each worker task clears its inherited
copy of the tracer, runs, and returns what it recorded on the RunRecord,
which the parent merges back with `Tracer.merge_records`.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

# Layer -> the engine-namespace functions whose calls make it up.
ENGINE_LAYERS = {
    "scenario.parse": ("parse_scenario",),
    "scenario.topology": ("build_topology",),
    "radio.link_budget": ("los_state", "tn_pathloss", "tn_rx_power", "ntn_rx_power"),
    "radio.attach": ("select_serving",),
    "radio.se": ("spectral_efficiency_array",),
    "band.guard": ("active_guard_rbs",),
    "traffic.arrivals": ("generate_arrivals",),
    "traffic.schedule": ("schedule_epoch",),
    "engine.grant_rebuild": ("tn_granted_rbs", "ntn_granted_rbs"),
    "engine.run": ("run_simulation",),
    "metrics.finalize": ("finalize",),
    "metrics.cdf": ("compute_cdf",),
}
COARSE = {"scenario.topology", "engine.run", "engine.run_and_write",
          "metrics.finalize", "engine.campaign_worker"}
# Layers called from inside run_simulation; with engine.self_s they make
# up engine.run_s.
RUN_CHILDREN = ("scenario.topology", "radio.link_budget", "radio.attach", "radio.se",
                "band.guard", "traffic.arrivals", "traffic.schedule",
                "engine.grant_rebuild", "controller.sms")

_ACTIVE = None   # the installed tracer; campaign workers find it here


def _count_schedule(counts, args, result):
    counts["rbs_dealt"] += result.used_rb
    counts["rbs_offered"] += len(result.granted)


def _count_move(counts, args, result):
    # sms_step(self, state, reports, now) -> (new_state, grants)
    if result[0].version != args[1].version:
        counts["moves"] += 1


def _count_rebuild(counts, args, result):
    counts["grant_rebuilds"] += 1


def _count_bytes(counts, args, result):
    counts["bytes_written"] += sum(os.path.getsize(p) for p in result.values())


OBSERVERS = {
    "schedule_epoch": _count_schedule,
    "tn_granted_rbs": _count_rebuild,
    "finalize": _count_bytes,
}


class Tracer:
    """Per-layer time, self time and call counts, plus coarse spans."""

    def __init__(self):
        self.pid = os.getpid()
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []          # (name, run, start, end, parent, pid)
        self.run = None          # id of the run whose calls are being traced
        self._stack = []         # open calls: [child_seconds, name]
        self._saved = []         # (owner, attribute, original)

    def clear(self) -> None:
        for store in (self.time, self.self_time, self.calls, self.counts,
                      self.spans, self._stack):
            store.clear()

    def wrap(self, layer, fn, observe=None, before=None):
        stack, clock = self._stack, time.perf_counter
        total, own, calls = self.time, self.self_time, self.calls
        counts, spans, coarse = self.counts, self.spans, layer in COARSE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0, layer]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                total[layer] += elapsed
                own[layer] += elapsed - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                if coarse:
                    spans.append((layer, self.run, start, end, parent, os.getpid()))
            if observe is not None:
                observe(counts, args, result)
            return result

        return wrapper

    def _start_run(self, args) -> None:
        spec = args[0]
        self.run = f"{spec.case_id}/{spec.seed}"

    def _patch(self, owner, attribute, replacement) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    @contextlib.contextmanager
    def installed(self, cdss_sim):
        """Wrap the program's layer entry points for the duration."""
        global _ACTIVE
        engine, scenario = cdss_sim.engine, cdss_sim.scenario
        for layer, names in ENGINE_LAYERS.items():
            for name in names:
                fn = getattr(engine, name)
                self._patch(engine, name, self.wrap(layer, fn, OBSERVERS.get(name)))
        # Spans of one run share its id, set as each run starts.
        self._patch(engine, "run_and_write", self.wrap(
            "engine.run_and_write", engine.run_and_write, before=self._start_run))
        # load_scenario looks parse_scenario up in its own module.
        self._patch(scenario, "parse_scenario",
                    self.wrap("scenario.parse", scenario.parse_scenario))
        manager = engine.SpectrumManager
        self._patch(manager, "sms_step",
                    self.wrap("controller.sms", manager.sms_step, _count_move))
        self._worker = self.wrap("engine.campaign_worker", engine._campaign_worker)
        self._patch(engine, "_campaign_worker", campaign_worker)
        self._patch(engine, "ProcessPoolExecutor", self._pool_class())
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = None
            while self._saved:
                owner, attribute, original = self._saved.pop()
                setattr(owner, attribute, original)

    def _pool_class(self):
        tracer = self

        class TimedPool(ProcessPoolExecutor):
            """Records the pool's life, from creation to shutdown, as a span."""

            def __init__(self, *args, **kwargs):
                self._trace_start = time.perf_counter()
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.spans.append(("engine.pool", tracer.run, self._trace_start,
                                         time.perf_counter(), None, os.getpid()))

        return TimedPool

    def export(self) -> dict:
        return {
            "time": dict(self.time), "self_time": dict(self.self_time),
            "calls": dict(self.calls), "counts": dict(self.counts),
            "spans": list(self.spans),
        }

    def merge(self, part: dict) -> None:
        for key, value in part["time"].items():
            self.time[key] += value
        for key, value in part["self_time"].items():
            self.self_time[key] += value
        self.calls.update(part["calls"])
        self.counts.update(part["counts"])
        self.spans.extend(part["spans"])

    def merge_records(self, records) -> None:
        """Fold spans that forked campaign workers returned on their records."""
        for record in records:
            part = record.__dict__.pop("trace", None)
            if part is not None:
                self.merge(part)


def campaign_worker(args):
    """Stand-in for engine._campaign_worker while tracing (picklable by name)."""
    tracer = _ACTIVE
    if tracer is None:
        # A worker started without fork has no tracer and no wrappers.
        from cdss_sim import engine
        return engine._campaign_worker(args)
    forked = os.getpid() != tracer.pid
    if forked:
        tracer.clear()
    record = tracer._worker(args)
    if forked:
        record.trace = tracer.export()
    return record


def campaign_phases(tracer: Tracer, start: float, end: float, jobs: int) -> dict:
    """Split one traced run_campaign call [start, end] into its phases.

    The runs phase ends when the pool shuts down (or, without a pool, when
    the last worker task returns); aggregation is the rest of the call.
    """
    pools = [s for s in tracer.spans if s[0] == "engine.pool" and start <= s[2] <= end]
    workers = [s for s in tracer.spans
               if s[0] == "engine.campaign_worker" and start <= s[2] <= end]
    runs_end = max(s[3] for s in (pools or workers))
    runs_s = runs_end - start
    busy = sum(s[3] - s[2] for s in workers)
    return {
        "runs_s": runs_s,
        "aggregate_s": end - runs_end,
        "worker_pids": {s[5] for s in workers} - {tracer.pid},
        "parallel_eff": busy / (max(1, jobs) * runs_s),
    }


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals under the benchmark's metric names."""
    t, c, n = tracer.time, tracer.calls, tracer.counts
    sms_calls = c["controller.sms"]
    offered = n["rbs_offered"]
    return {
        "scenario.parse_s": t["scenario.parse"],
        "scenario.parse_calls": c["scenario.parse"],
        "scenario.topology_s": t["scenario.topology"],
        "radio.link_budget_s": t["radio.link_budget"],
        "radio.link_budget_calls": c["radio.link_budget"],
        "radio.attach_s": t["radio.attach"],
        "radio.se_s": t["radio.se"],
        "radio.se_calls": c["radio.se"],
        "band.guard_s": t["band.guard"],
        "band.guard_calls": c["band.guard"],
        "controller.sms_s": t["controller.sms"],
        "controller.sms_calls": sms_calls,
        "controller.moves": n["moves"],
        "controller.move_ratio": n["moves"] / sms_calls if sms_calls else 0.0,
        "traffic.arrivals_s": t["traffic.arrivals"],
        "traffic.arrival_calls": c["traffic.arrivals"],
        "traffic.schedule_s": t["traffic.schedule"],
        "traffic.schedule_calls": c["traffic.schedule"],
        "traffic.rbs_dealt": n["rbs_dealt"],
        "traffic.rbs_offered": offered,
        "traffic.fill_ratio": n["rbs_dealt"] / offered if offered else 0.0,
        "engine.grant_rebuild_s": t["engine.grant_rebuild"],
        "engine.grant_rebuilds": n["grant_rebuilds"],
        "engine.run_s": t["engine.run"],
        "engine.self_s": tracer.self_time["engine.run"],
        "metrics.finalize_s": t["metrics.finalize"],
        "metrics.bytes_written": n["bytes_written"],
        "metrics.cdf_s": t["metrics.cdf"],
    }


def wrapper_cost(calls: int = 20000, rounds: int = 5) -> float:
    """Seconds a wrapper adds to its caller's self time per call.

    That is the part of a wrapped call that falls outside its own timed
    window, less the loop around it: the median over a few rounds of
    wrapped calls to a function that does nothing.
    """
    def noop():
        return None

    clock, costs = time.perf_counter, []
    for _ in range(rounds):
        tracer = Tracer()
        wrapped = tracer.wrap("noop", noop)
        start = clock()
        for _ in range(calls):
            pass
        loop = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        outer = clock() - start
        costs.append((outer - tracer.time["noop"] - loop) / calls)
    costs.sort()
    return max(0.0, costs[rounds // 2])


def split_run_self(metrics: dict, tracer: Tracer, per_call: float) -> None:
    """Move the wrappers' estimated cost out of engine.self_s into
    trace.wrapper_s; engine.run_s stays their sum plus the child layers."""
    child_calls = sum(tracer.calls[layer] for layer in RUN_CHILDREN)
    wrapper_s = min(per_call * child_calls, metrics["engine.self_s"])
    metrics["engine.self_s"] -= wrapper_s
    metrics["trace.wrapper_s"] = wrapper_s


def run_accounting_error(metrics: dict) -> float:
    """|engine.run_s - (self + wrappers + child layers)|, in seconds."""
    children = sum(metrics[f"{layer}_s"] for layer in RUN_CHILDREN)
    return abs(metrics["engine.run_s"] - metrics["engine.self_s"]
               - metrics["trace.wrapper_s"] - children)
