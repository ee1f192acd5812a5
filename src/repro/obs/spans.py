"""Nesting wall-clock spans and the profile table they aggregate into.

A :class:`Span` is a context-manager timer.  Spans nest through a
per-thread stack: entering a span while another is active records the
child under the parent's *path*, so one session produces a tree such as::

    session
    └── round
        ├── data_frame
        ├── indicator
        ├── propagate
        └── checking

Timings accumulate in the owning :class:`~repro.obs.metrics.MetricsRegistry`
keyed by path, not per instance — a 9-round session yields one
``session/round/checking`` entry with count 9, which is what a profile
wants.  :func:`profile_rows` flattens the accumulated tree into
self/cumulative rows and :func:`render_profile` prints them as the sorted
table the ``repro-ccm profile`` subcommand shows.

Self time is cumulative time minus the cumulative time of *direct*
children, so sibling-phase self times sum (with the parent's own self
time) exactly to the parent's cumulative time — the invariant the
profile's coverage line reports.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Span",
    "SpanRow",
    "current_span_path",
    "profile_rows",
    "render_profile",
]

_STACKS = threading.local()


def _stack() -> List[str]:
    stack = getattr(_STACKS, "stack", None)
    if stack is None:
        stack = _STACKS.stack = []
    return stack


def current_span_path() -> Tuple[str, ...]:
    """The calling thread's active span path (empty outside any span).

    Campaign merge uses this as the prefix for worker snapshots: merging
    while the ``campaign`` span is open grafts the worker's
    ``trial/session/...`` tree exactly where a serial run would have
    recorded it.
    """
    return tuple(_stack())


def reset_span_stack(path: Tuple[str, ...] = ()) -> None:
    """Set the calling thread's span stack to ``path`` (default: clear it).

    Worker hygiene: a *forked* pool worker inherits the parent's
    thread-local stack (e.g. the open ``campaign`` span), so spans it
    records would carry a stale prefix — and then get prefixed again at
    merge time; capture-mode workers clear the stack before recording.
    A pool *thread* starts with an empty stack, so thread workers are
    started on the campaign's path to nest their spans as serial does.
    """
    _stack()[:] = path


class Span:
    """One timed, nestable section; created via ``registry.span(name)``.

    Re-entrant in the sense that a new instance is made per ``with``; a
    single instance must not be entered concurrently from two threads
    (each thread asks the registry for its own).
    """

    __slots__ = ("_registry", "name", "_path", "_started")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self.name = name
        self._path: Tuple[str, ...] = ()
        self._started = 0.0

    def __enter__(self) -> "Span":
        stack = _stack()
        stack.append(self.name)
        self._path = tuple(stack)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        elapsed = time.perf_counter() - self._started
        stack = _stack()
        # Truncate to our own depth rather than popping one entry: child
        # spans abandoned by an exception (their __exit__ never ran) are
        # swept off the stack here, so one failed section cannot corrupt
        # the nesting of everything recorded after it.
        del stack[len(self._path) - 1:]
        self._registry.record_span(self._path, elapsed, self._started)


@dataclass
class SpanRow:
    """One aggregated profile line."""

    path: Tuple[str, ...]
    count: int
    cumulative_s: float
    self_s: float

    @property
    def name(self) -> str:
        return self.path[-1] if self.path else ""

    @property
    def depth(self) -> int:
        return len(self.path) - 1


def profile_rows(registry: "MetricsRegistry") -> List[SpanRow]:
    """Flatten the registry's span accumulator into self/cumulative rows."""
    stats = registry.span_stats()
    children_cum: Dict[Tuple[str, ...], float] = {}
    for path, (_count, seconds) in stats.items():
        if len(path) > 1:
            parent = path[:-1]
            children_cum[parent] = children_cum.get(parent, 0.0) + seconds
    return [
        SpanRow(
            path=path,
            count=count,
            cumulative_s=seconds,
            self_s=max(0.0, seconds - children_cum.get(path, 0.0)),
        )
        for path, (count, seconds) in stats.items()
    ]


def render_profile(
    registry: "MetricsRegistry",
    *,
    wall_s: Optional[float] = None,
    sort: str = "self",
) -> str:
    """The sorted self/cumulative time table of every recorded span.

    ``wall_s`` (typically the caller's measured wall time around the root
    span) adds a coverage footer: how much of that wall time the root
    spans account for.  ``sort`` is ``"self"`` (default), ``"cum"``, or
    ``"tree"`` (depth-first, tree order).
    """
    rows = profile_rows(registry)
    if not rows:
        return "(no spans recorded)"
    total = sum(r.cumulative_s for r in rows if len(r.path) == 1)
    if sort == "tree":
        rows.sort(key=lambda r: r.path)
    elif sort == "cum":
        rows.sort(key=lambda r: r.cumulative_s, reverse=True)
    else:
        rows.sort(key=lambda r: r.self_s, reverse=True)
    lines = [
        f"{'phase':<42} {'count':>7} {'self s':>10} {'self %':>7} "
        f"{'cum s':>10} {'cum %':>7}"
    ]
    denom = total or 1.0
    for row in rows:
        label = "  " * row.depth + row.name if sort == "tree" else "/".join(row.path)
        lines.append(
            f"{label:<42} {row.count:>7} {row.self_s:>10.4f} "
            f"{100.0 * row.self_s / denom:>6.1f}% "
            f"{row.cumulative_s:>10.4f} "
            f"{100.0 * row.cumulative_s / denom:>6.1f}%"
        )
    lines.append(
        f"{'total (root spans)':<42} {'':>7} {total:>10.4f} {'100.0%':>7}"
    )
    if wall_s is not None and wall_s > 0:
        lines.append(
            f"coverage: root spans account for {100.0 * total / wall_s:.1f}% "
            f"of {wall_s:.4f}s measured wall time"
        )
    return "\n".join(lines)
