"""Span recording around the program's public entry points.

A :class:`Tracer` patches a fixed list of functions and methods (the
layer boundaries of ``repro``) with thin wrappers that record one span
per call: name, start, end, parent and op id.  Spans stay in memory
until the run ends.  :func:`layer_metrics` then derives self time per
layer and the per-layer metrics the benchmark prints with ``--trace 1``.

Functions that a module imports by name are patched in the importing
module (``repro.experiments.common.paper_network``, not only
``repro.net.topology.paper_network``), because rebinding the defining
module would not reach them.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Kernel phase spans the program itself records into its registry.
PHASES = (
    "setup", "data_frame", "transpose_popcount", "propagate", "indicator",
    "checking",
)

#: Layers, in print order (the first part of every span name).
LAYERS = ("net", "protocols", "core", "sim", "store", "serve", "scenario")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op


class Tracer:
    """Records spans from wrapped entry points and from the harness.

    A span opened on a thread with no open span of its own (a serve job
    worker) takes the main thread's innermost open span as its parent,
    so work done on behalf of a waiting client nests under the wait.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.op = -1
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: List[Span] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None
        )
        span = Span(name, time.perf_counter(), parent, self.op)
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    # -- patching --------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[[Any, tuple, dict], None]] = None,
    ) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: Any, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper until
        :meth:`unpatch`.  ``owner`` is a module or a class."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            patched: Any = classmethod(
                self.wrap(original.__func__, name, after)
            )
        else:
            patched = self.wrap(original, name, after)
        setattr(owner, attr, patched)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer entry point the benchmark reports on."""
        import repro.experiments.common as common
        import repro.scenario.run as scenario_run
        import repro.serve.jobs as jobs
        from repro.core.session import SessionResult
        from repro.net.channel import LossyChannel, PerfectChannel
        from repro.net.topology import Network
        from repro.scenario.engine import ScenarioSessionEngine
        from repro.sim.parallel import Campaign
        from repro.store.cache import ResultStore
        from repro.store.checkpoint import CampaignCheckpoint

        def session_done(result, args, kwargs):
            if isinstance(result, SessionResult):
                self.count("core.rounds", result.rounds)
                self.count("core.slots", result.total_slots)

        def store_get_done(result, args, kwargs):
            self.count("store.hits" if result is not None else "store.misses")

        def store_put_done(result, args, kwargs):
            store, key = args[0], args[1]
            self.count("store.puts")
            try:
                self.count("store.bytes_written", store.path_for(key).stat().st_size)
            except OSError:
                pass

        self.patch(common, "paper_network", "net.deploy")
        self.patch(Network, "build", "net.deploy")
        self.patch(Network, "with_readers", "net.relink")
        for channel in (LossyChannel, PerfectChannel):
            self.patch(channel, "propagate_packed", "net.propagate")
            self.patch(channel, "reader_senses_packed", "net.propagate")
        self.patch(common, "run_sicp", "protocols.sicp")
        self.patch(common, "frame_picks", "protocols.picks")
        self.patch(scenario_run, "frame_picks", "protocols.picks")
        self.patch(common, "run_session", "core.session", session_done)
        self.patch(common, "sweep", "sim.campaign")
        self.patch(jobs, "sweep", "sim.campaign")
        self.patch(Campaign, "run", "sim.campaign")
        self.patch(common.PaperTrial, "__call__", "sim.trial")
        self.patch(common.SessionBatchTrial, "__call__", "sim.trial")
        self.patch(ResultStore, "get", "store.get", store_get_done)
        self.patch(ResultStore, "put", "store.put", store_put_done)
        self.patch(CampaignCheckpoint, "record_trial", "store.journal")
        self.patch(ScenarioSessionEngine, "run", "scenario.session")
        self.patch(scenario_run, "run_scenario", "scenario.run")

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one NDJSON line (index-addressed parents)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": index.get(id(s.parent)) if s.parent else None,
                    "op": s.op,
                }) + "\n")


def _outermost(span: Span) -> bool:
    """True unless an ancestor has the same name (a nested call, e.g.
    ``paper_network`` -> ``Network.build``, counts once)."""
    parent = span.parent
    while parent is not None:
        if parent.name == span.name:
            return False
        parent = parent.parent
    return True


class _OpClock:
    """Time an interval shares with the (disjoint) op intervals."""

    def __init__(self, ops: Sequence[Tuple[float, float]]) -> None:
        self.bounds = sorted(ops)
        self.ends = [b for _, b in self.bounds]

    def overlaps(self, start: float, end: float) -> Iterator[Tuple[float, float]]:
        """``(a, b)`` of every op that ``[start, end)`` meets."""
        i = bisect.bisect_right(self.ends, start)
        while i < len(self.bounds) and self.bounds[i][0] < end:
            yield self.bounds[i]
            i += 1

    def within(self, start: float, end: float) -> float:
        return sum(
            min(end, b) - max(start, a) for a, b in self.overlaps(start, end)
        )


def self_times(
    spans: Sequence[Span], ops: Sequence[Tuple[float, float]]
) -> Tuple[Dict[str, float], float]:
    """Self time per span name within the op intervals, and the op time
    that root spans cover.

    Each span is clipped to its clipped parent, and its self time is its
    clipped time within the ops minus that of its children.  Children of
    one parent do not overlap (the client blocks while the service's
    worker runs the spans nested under its request), so self times never
    double count and add up to the covered time.
    """
    clock = _OpClock(ops)
    clipped: Dict[int, Tuple[float, float]] = {}
    own: Dict[int, float] = {}
    covered = 0.0
    for s in spans:  # in begin order, so a parent precedes its children
        start, end = s.start, s.end
        if s.parent is not None:
            lo, hi = clipped[id(s.parent)]
            start, end = max(start, lo), min(end, hi)
        clipped[id(s)] = (start, end)
        t = clock.within(start, end) if end > start else 0.0
        own[id(s)] = t
        if s.parent is None:
            covered += t
        else:
            own[id(s.parent)] -= t
    out: Dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[id(s)]
    return out, covered


def inclusive_times(
    spans: Sequence[Span], ops: Sequence[Tuple[float, float]]
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Wall time inside outermost spans of each name, clipped to the op
    intervals, and the number of outermost calls that started in one."""
    clock = _OpClock(ops)
    times: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for s in spans:
        if not _outermost(s):
            continue
        for a, b in clock.overlaps(s.start, s.end):
            times[s.name] = times.get(s.name, 0.0) + min(s.end, b) - max(s.start, a)
            if a <= s.start < b:
                calls[s.name] = calls.get(s.name, 0) + 1
    return times, calls


def phase_seconds(before: Dict, after: Dict) -> Dict[str, float]:
    """Kernel phase time added to a registry's span stats between two
    snapshots, keyed by phase name."""
    out = {p: 0.0 for p in PHASES}
    for path, (_, seconds) in after.items():
        leaf = path[-1]
        if leaf in out:
            out[leaf] += seconds - before.get(path, (0, 0.0))[1]
    return out


def layer_metrics(
    tracer: Tracer,
    ops: Sequence[Tuple[float, float]],
    phases: Dict[str, float],
    extra: Dict[str, float],
) -> Dict[str, Tuple[float, str]]:
    """Per-op layer metrics from the spans, counts and kernel phases.

    ``extra`` carries per-op values the workload measured itself (serve
    record timestamps, scenario observables).
    """
    n_ops = max(len(ops), 1)
    wall = sum(b - a for a, b in ops)
    incl, calls = inclusive_times(tracer.spans, ops)
    own, covered = self_times(tracer.spans, ops)
    counts = tracer.counts

    def per_op(value: float) -> float:
        return value / n_ops

    hits = counts.get("store.hits", 0.0)
    misses = counts.get("store.misses", 0.0)
    session_s = incl.get("core.session", 0.0)
    slots = counts.get("core.slots", 0.0)
    store_s = sum(incl.get(k, 0.0) for k in ("store.get", "store.put", "store.journal"))
    m: Dict[str, Tuple[float, str]] = {
        "net.deploy_s": (per_op(incl.get("net.deploy", 0.0)), "s/op"),
        "net.deploy_calls": (per_op(calls.get("net.deploy", 0)), "calls/op"),
        "net.propagate_s": (per_op(incl.get("net.propagate", 0.0)), "s/op"),
        "net.propagate_calls": (per_op(calls.get("net.propagate", 0)), "calls/op"),
        "net.relink_s": (per_op(incl.get("net.relink", 0.0)), "s/op"),
        "net.relinks": (per_op(calls.get("net.relink", 0)), "calls/op"),
        "protocols.sicp_s": (per_op(incl.get("protocols.sicp", 0.0)), "s/op"),
        "protocols.picks_s": (per_op(incl.get("protocols.picks", 0.0)), "s/op"),
        "core.session_s": (per_op(session_s), "s/op"),
        "core.session_calls": (per_op(calls.get("core.session", 0)), "calls/op"),
        "core.rounds": (per_op(counts.get("core.rounds", 0.0)), "rounds/op"),
        "core.slots": (per_op(slots), "slots/op"),
        "core.host_us_per_slot": (
            1e6 * session_s / slots if slots else 0.0, "us/slot"
        ),
    }
    for phase in PHASES:
        m[f"core.phase.{phase}_s"] = (per_op(phases.get(phase, 0.0)), "s/op")
    campaign_s = incl.get("sim.campaign", 0.0)
    trial_s = incl.get("sim.trial", 0.0)
    m.update({
        "sim.campaign_s": (per_op(campaign_s), "s/op"),
        "sim.trial_s": (per_op(trial_s), "s/op"),
        "sim.dispatch_s": (
            per_op(max(0.0, campaign_s - trial_s - store_s)), "s/op"
        ),
        "sim.trials": (per_op(calls.get("sim.trial", 0)), "calls/op"),
        "store.get_s": (per_op(incl.get("store.get", 0.0)), "s/op"),
        "store.hits": (per_op(hits), "count/op"),
        "store.misses": (per_op(misses), "count/op"),
        "store.lookups": (per_op(hits + misses), "count/op"),
        "store.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"
        ),
        "store.put_s": (per_op(incl.get("store.put", 0.0)), "s/op"),
        "store.puts": (per_op(counts.get("store.puts", 0.0)), "count/op"),
        "store.bytes_written": (
            per_op(counts.get("store.bytes_written", 0.0)), "bytes/op"
        ),
        "store.journal_s": (per_op(incl.get("store.journal", 0.0)), "s/op"),
        "serve.submit_s": (per_op(counts.get("serve.submit_s", 0.0)), "s/op"),
        "serve.queue_wait_s": (extra.get("serve.queue_wait_s", 0.0), "s/op"),
        "serve.job_run_s": (extra.get("serve.job_run_s", 0.0), "s/op"),
        "serve.result_s": (per_op(incl.get("serve.result", 0.0)), "s/op"),
        "serve.rejected": (extra.get("serve.rejected", 0.0), "count/op"),
        "scenario.session_s": (per_op(incl.get("scenario.session", 0.0)), "s/op"),
        "scenario.powered_frac": (extra.get("scenario.powered_frac", 0.0), "ratio"),
        "scenario.sim_s": (extra.get("scenario.sim_s", 0.0), "s/op"),
    })
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in own.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (
            layer_self[layer] / wall if wall else 0.0, "ratio"
        )
    m["obs.coverage"] = (covered / wall if wall else 0.0, "ratio")
    return m
