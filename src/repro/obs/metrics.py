"""Metric primitives and the process-wide registry.

The observability layer is *pull-free and zero-dependency*: code under
measurement calls :data:`OBS` (the module-level current registry) and the
registry either records (a real :class:`MetricsRegistry`) or does nothing
(the default :class:`NullRegistry`).  The disabled path costs one module
attribute read plus one no-op method call, so instrumentation can live in
hot loops — the engines call it once per protocol *phase* per round, never
per tag or per slot.

Three metric families, modelled on the Prometheus data model but with no
wire protocol:

* **counter** — monotonically increasing float (``inc``).
* **gauge** — last-written float (``set``).
* **histogram** — fixed upper-bound buckets chosen at first observation
  (``observe``); tracks per-bucket counts plus sum/count/min/max.

Spans (nested wall-clock timers) are recorded through the registry too —
see :mod:`repro.obs.spans` — so one :meth:`MetricsRegistry.to_dict`
document carries everything an exporter needs.

Usage::

    from repro.obs import MetricsRegistry, use_registry

    reg = MetricsRegistry()
    with use_registry(reg):
        run_session(...)            # instrumented code records into reg
    print(reg.counter("ccm_rounds_total").value)

Registry swaps are process-local: worker *processes* of a parallel
campaign have their own module state, so their metrics stay in the worker
(the parent records campaign-level metrics — trial wall time, queue wait,
retries — from the results it harvests).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.trace import TraceContext

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "OBS",
    "DEFAULT_SECONDS_BUCKETS",
    "SNAPSHOT_SCHEMA",
    "TimelineEvent",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Wire-format identifier for serialized registry snapshots.  Workers of a
#: process-backend campaign ship one of these back per trial (or per batch)
#: so the parent can :meth:`MetricsRegistry.merge` them; the schema string
#: is checked on both ends so a future incompatible layout fails loudly.
SNAPSHOT_SCHEMA = "repro-metrics-snapshot-v1"

#: Default cap on buffered timeline events (see
#: :meth:`MetricsRegistry.enable_timeline`).
DEFAULT_TIMELINE_LIMIT = 200_000

#: Default histogram upper bounds (seconds-flavoured; +inf is implicit).
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


@dataclass
class Counter:
    """A monotonically increasing value."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Fixed-bucket histogram: cumulative-style bucket counts + summary.

    ``uppers`` are the finite bucket upper bounds; ``counts`` has one
    extra slot for the implicit +inf bucket.  Buckets are fixed at
    construction, so observation is one bisect plus a few adds.
    """

    name: str
    uppers: Tuple[float, ...] = DEFAULT_SECONDS_BUCKETS
    counts: List[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def __post_init__(self) -> None:
        if tuple(self.uppers) != tuple(sorted(self.uppers)):
            raise ValueError(f"histogram {self.name} buckets must ascend")
        if not self.counts:
            self.counts = [0] * (len(self.uppers) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        i = 0
        for upper in self.uppers:
            if value <= upper:
                break
            i += 1
        self.counts[i] += 1
        self.sum += value
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


@dataclass(frozen=True)
class TimelineEvent:
    """One completed span occurrence, for Chrome ``trace_event`` export.

    ``start_s`` is a ``time.perf_counter()`` reading, so it is only
    comparable to other events from the same process — Chrome's viewer
    separates tracks by ``pid``, which is why the pid rides along.
    """

    path: Tuple[str, ...]
    start_s: float
    duration_s: float
    pid: int
    tid: int

    def to_dict(self) -> dict:
        return {
            "path": list(self.path),
            "start": self.start_s,
            "dur": self.duration_s,
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "TimelineEvent":
        return cls(
            path=tuple(doc["path"]),
            start_s=float(doc["start"]),
            duration_s=float(doc["dur"]),
            pid=int(doc["pid"]),
            tid=int(doc["tid"]),
        )


class MetricsRegistry:
    """The recording registry: named metrics plus the span accumulator.

    All mutating entry points exist in two spellings: ``counter(name)``
    returns the live object, while ``inc``/``set_gauge``/``observe`` are
    one-call conveniences (these are what instrumented code uses, so the
    :class:`NullRegistry` can override them with no-ops).
    """

    enabled: bool = True

    def __init__(self, *, trace: Optional["TraceContext"] = None) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Span accumulator: path tuple -> [call count, cumulative seconds].
        # The per-thread active-span stack lives in spans.py's thread local.
        self._span_stats: Dict[Tuple[str, ...], List[float]] = {}
        self._lock = threading.Lock()
        #: Trace context stamped onto snapshots (and exporters that care).
        self.trace: Optional["TraceContext"] = trace
        # Optional per-occurrence span timeline (for Chrome trace export).
        # Off by default: the aggregate span stats are what profiles need,
        # and a long campaign would otherwise buffer millions of events.
        self._timeline: List[TimelineEvent] = []
        self._timeline_enabled = False
        self._timeline_limit = DEFAULT_TIMELINE_LIMIT
        self._timeline_dropped = 0

    # -- metric access ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(
                    name, tuple(buckets or DEFAULT_SECONDS_BUCKETS)
                )
        return metric

    # -- one-call recording (the instrumentation surface) -------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(
        self, name: str, value: float,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.histogram(name, buckets).observe(value)

    def span(self, name: str) -> "spans.Span":  # noqa: F821 - doc only
        """A nesting wall-clock timer recording under ``name``."""
        from repro.obs.spans import Span

        return Span(self, name)

    # -- span accumulation (called by spans.Span on exit) --------------------

    def record_span(
        self,
        path: Tuple[str, ...],
        elapsed_s: float,
        started_s: Optional[float] = None,
    ) -> None:
        with self._lock:
            stats = self._span_stats.get(path)
            if stats is None:
                self._span_stats[path] = [1, elapsed_s]
            else:
                stats[0] += 1
                stats[1] += elapsed_s
            if self._timeline_enabled and started_s is not None:
                if len(self._timeline) < self._timeline_limit:
                    self._timeline.append(
                        TimelineEvent(
                            path=path,
                            start_s=started_s,
                            duration_s=elapsed_s,
                            pid=os.getpid(),
                            tid=threading.get_ident() & 0xFFFFFFFF,
                        )
                    )
                else:
                    self._timeline_dropped += 1

    # -- per-occurrence timeline --------------------------------------------

    def enable_timeline(self, limit: int = DEFAULT_TIMELINE_LIMIT) -> None:
        """Start buffering one event per completed span (bounded by
        ``limit``; further events are counted in ``timeline_dropped``)."""
        with self._lock:
            self._timeline_enabled = True
            self._timeline_limit = int(limit)

    def timeline(self) -> List[TimelineEvent]:
        with self._lock:
            return list(self._timeline)

    @property
    def timeline_enabled(self) -> bool:
        return self._timeline_enabled

    @property
    def timeline_dropped(self) -> int:
        return self._timeline_dropped

    def span_stats(self) -> Dict[Tuple[str, ...], Tuple[int, float]]:
        """Accumulated span timings: path -> (count, cumulative seconds)."""
        with self._lock:
            return {
                path: (int(c), t) for path, (c, t) in self._span_stats.items()
            }

    # -- introspection -------------------------------------------------------

    def counters(self) -> Dict[str, Counter]:
        return dict(self._counters)

    def gauges(self) -> Dict[str, Gauge]:
        return dict(self._gauges)

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    # -- serialization / cross-process merge ---------------------------------

    def to_dict(self) -> dict:
        """The versioned, mergeable snapshot (:data:`SNAPSHOT_SCHEMA`).

        The one serialized form of a registry: it round-trips through
        :meth:`from_dict`, feeds :meth:`merge` (span paths stay as
        segment lists so merging can re-prefix them) and is what the
        NDJSON exporter renders.
        """
        with self._lock:
            doc = {
                "schema": SNAPSHOT_SCHEMA,
                "pid": os.getpid(),
                "counters": {c.name: c.value for c in self._counters.values()},
                "gauges": {g.name: g.value for g in self._gauges.values()},
                "histograms": {
                    h.name: {
                        "buckets": list(h.uppers),
                        "counts": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                        "min": h.minimum if h.count else None,
                        "max": h.maximum if h.count else None,
                    }
                    for h in self._histograms.values()
                },
                "spans": [
                    {"path": list(path), "count": int(c), "seconds": t}
                    for path, (c, t) in sorted(self._span_stats.items())
                ],
            }
            if self.trace is not None:
                doc["trace"] = self.trace.to_dict()
            if self._timeline:
                doc["timeline"] = [e.to_dict() for e in self._timeline]
                if self._timeline_dropped:
                    doc["timeline_dropped"] = self._timeline_dropped
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`to_dict` document."""
        schema = doc.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unsupported metrics snapshot schema {schema!r} "
                f"(expected {SNAPSHOT_SCHEMA!r})"
            )
        registry = cls()
        for name, value in doc.get("counters", {}).items():
            registry._counters[name] = Counter(name, float(value))
        for name, value in doc.get("gauges", {}).items():
            registry._gauges[name] = Gauge(name, float(value))
        for name, h in doc.get("histograms", {}).items():
            hist = Histogram(name, tuple(h["buckets"]))
            hist.counts = [int(c) for c in h["counts"]]
            hist.sum = float(h["sum"])
            hist.count = int(h["count"])
            if h.get("min") is not None:
                hist.minimum = float(h["min"])
            if h.get("max") is not None:
                hist.maximum = float(h["max"])
            registry._histograms[name] = hist
        for entry in doc.get("spans", []):
            registry._span_stats[tuple(entry["path"])] = [
                int(entry["count"]), float(entry["seconds"]),
            ]
        if doc.get("trace") is not None:
            from repro.obs.trace import TraceContext

            registry.trace = TraceContext.from_dict(doc["trace"])
        timeline = doc.get("timeline")
        if timeline:
            registry._timeline = [TimelineEvent.from_dict(e) for e in timeline]
            registry._timeline_dropped = int(doc.get("timeline_dropped", 0))
        return registry

    def merge(
        self,
        other: Union["MetricsRegistry", Mapping],
        *,
        prefix: Tuple[str, ...] = (),
    ) -> None:
        """Fold another registry (or its :meth:`to_dict` document) into this.

        Counters and histogram contents *add*; gauges take the incoming
        value (last write wins, matching ``Gauge.set``); span aggregates
        add under ``prefix + path`` so a worker's ``trial/session/round``
        tree lands below the parent's active span (e.g. ``campaign``).
        Histogram bucket layouts must match — a mismatch raises rather
        than silently mis-binning.
        """
        doc = other.to_dict() if isinstance(other, MetricsRegistry) else other
        schema = doc.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"unsupported metrics snapshot schema {schema!r} "
                f"(expected {SNAPSHOT_SCHEMA!r})"
            )
        prefix = tuple(prefix)
        for name, value in doc.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in doc.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, h in doc.get("histograms", {}).items():
            hist = self.histogram(name, tuple(h["buckets"]))
            if tuple(hist.uppers) != tuple(h["buckets"]):
                raise ValueError(
                    f"histogram {name!r} bucket layout mismatch: "
                    f"{tuple(hist.uppers)} vs {tuple(h['buckets'])}"
                )
            with self._lock:
                for i, c in enumerate(h["counts"]):
                    hist.counts[i] += int(c)
                hist.sum += float(h["sum"])
                hist.count += int(h["count"])
                if h.get("min") is not None and float(h["min"]) < hist.minimum:
                    hist.minimum = float(h["min"])
                if h.get("max") is not None and float(h["max"]) > hist.maximum:
                    hist.maximum = float(h["max"])
        with self._lock:
            for entry in doc.get("spans", []):
                path = prefix + tuple(entry["path"])
                stats = self._span_stats.get(path)
                if stats is None:
                    self._span_stats[path] = [
                        int(entry["count"]), float(entry["seconds"]),
                    ]
                else:
                    stats[0] += int(entry["count"])
                    stats[1] += float(entry["seconds"])
            if self._timeline_enabled:
                for e in doc.get("timeline", []):
                    if len(self._timeline) >= self._timeline_limit:
                        self._timeline_dropped += 1
                        continue
                    event = TimelineEvent.from_dict(e)
                    self._timeline.append(
                        TimelineEvent(
                            path=prefix + event.path,
                            start_s=event.start_s,
                            duration_s=event.duration_s,
                            pid=event.pid,
                            tid=event.tid,
                        )
                    )
                self._timeline_dropped += int(doc.get("timeline_dropped", 0))


class _NullSpan:
    """The shared do-nothing context manager the null registry hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRegistry(MetricsRegistry):
    """The default registry: every recording call is a no-op.

    Instrumented code never branches on whether observability is on —
    it always calls through :data:`OBS`; with this registry installed each
    call is one attribute lookup plus an empty method.
    """

    enabled = False

    def inc(self, name: str, amount: float = 1.0) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def observe(
        self, name: str, value: float,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        return None

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def record_span(
        self,
        path: Tuple[str, ...],
        elapsed_s: float,
        started_s: Optional[float] = None,
    ) -> None:
        return None

    def merge(
        self,
        other: Union[MetricsRegistry, Mapping],
        *,
        prefix: Tuple[str, ...] = (),
    ) -> None:
        # Stay inert: merging into the shared null registry must not
        # accumulate state (it is a module-level singleton).
        return None


#: The shared no-op registry (also the default value of :data:`OBS`).
NULL_REGISTRY = NullRegistry()

#: The current registry.  Instrumented code reads this attribute at use
#: time (``metrics.OBS.span(...)``), so swaps via :func:`set_registry` /
#: :func:`use_registry` take effect immediately, process-wide.
OBS: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The currently installed registry (the null registry by default)."""
    return OBS


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` as the current one (``None`` -> null registry).

    Returns the previously installed registry so callers can restore it;
    prefer :func:`use_registry` which does that automatically.
    """
    global OBS
    previous = OBS
    OBS = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def use_registry(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Install a registry for the duration of a ``with`` block.

    ``use_registry()`` with no argument creates a fresh
    :class:`MetricsRegistry` — the one-liner for "measure this block"::

        with use_registry() as reg:
            run_session(...)
        print(render_prometheus(reg))
    """
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
