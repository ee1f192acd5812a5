"""Deterministic discrete-event scheduling for scenario runs.

A scenario is a timeline of *operations* (CCM sessions) interleaved with
world changes — tag mobility between operations, reader motion and tag
power-cycling within them.  :class:`EventScheduler` is the classic
binary-heap DES core: events are ``(time_s, seq, kind, payload)`` tuples,
popped in time order with the monotonically assigned ``seq`` breaking
ties, so two runs that push the same events pop them in the same order —
no dict-ordering or hash-seed dependence anywhere.

:class:`EventJournal` is the audit trail, a view over a
:class:`repro.obs.export.EventLog`: every event the scenario executes is
appended to the log and rendered as one canonical-JSON line, so "same
seed ⇒ byte-identical journal" is a testable property (``to_ndjson()``
of two runs compares with ``==`` on bytes).

The scenario draw-order contract
--------------------------------
:data:`SCENARIO_RNG_CONTRACT` names the pinned RNG consumption order of a
scenario run.  Version ``repro-scenario-rng-v1``:

1. one ``numpy.random.default_rng(seed)`` Generator drives the whole run;
2. the initial deployment draws first (``uniform_disk`` — 2·n uniforms
   via the rejection-free polar method used by ``repro.net.geometry``);
3. for each operation k = 1..K, in order:
   a. for k > 1, the mobility draws: :func:`repro.net.mobility.displace`
      (n step radii, then n angles) followed by
      :func:`repro.net.mobility.relocate_fraction` (a choice of moved
      tags, then their fresh disk positions) — each only if its
      parameter is non-zero;
   b. the session's channel draws, in the ``repro-channel-rng-v1`` order
      over the power-masked transmit sets.
4. slot picks consume **no** generator draws — they come from
   :class:`repro.sim.rng.TagHasher` streams keyed by
   ``derive_seed(seed, "scenario-picks", k)``.

Any change to this order (or to what a draw means) must bump the version
string; the store mixes it into :func:`repro.store.fingerprint.
code_fingerprint`, so bumping invalidates every cached scenario trial by
construction.
"""

from __future__ import annotations

import heapq
import math
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.export import EventLog
from repro.store.canonical import canonical_json

__all__ = [
    "SCENARIO_RNG_CONTRACT",
    "Event",
    "EventScheduler",
    "EventJournal",
]

#: Version tag of the scenario RNG draw-order contract (see module docs).
SCENARIO_RNG_CONTRACT = "repro-scenario-rng-v1"

#: Journal fields flattened into each NDJSON line; not allowed in payloads.
_ENVELOPE = ("t", "seq", "kind")


@dataclass(frozen=True)
class Event:
    """One timestamped scenario event.

    ``seq`` is the push order — the deterministic tiebreak for events
    scheduled at the same instant (heap comparison never reaches the
    payload dict, which has no ordering).
    """

    time_s: float
    seq: int
    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)


class EventScheduler:
    """A deterministic min-heap of :class:`Event`.

    Events pop in ``(time_s, seq)`` order; ``seq`` is assigned by
    :meth:`push` in call order, so FIFO among same-time events.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0

    def push(self, time_s: float, kind: str, **payload: Any) -> Event:
        """Schedule ``kind`` at ``time_s``; returns the queued event."""
        if not (math.isfinite(time_s) and time_s >= 0):
            raise ValueError(
                f"event time must be finite and non-negative, got {time_s!r}"
            )
        event = Event(time_s=float(time_s), seq=self._seq, kind=kind, payload=payload)
        heapq.heappush(self._heap, (event.time_s, event.seq, event))
        self._seq += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event (ties: lowest seq)."""
        if not self._heap:
            raise IndexError("pop from an empty EventScheduler")
        return heapq.heappop(self._heap)[2]

    def peek_time(self) -> Optional[float]:
        """Time of the next event, or None when the queue is empty."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def drain(self) -> Iterator[Event]:
        """Pop events until the queue is empty."""
        while self._heap:
            yield self.pop()


class EventJournal:
    """The scenario's audit trail: a view over an :class:`EventLog`.

    :meth:`record` appends one ``kind`` record whose ``data`` is the
    event time ``t`` plus the payload; :meth:`to_ndjson` flattens each
    to ``{"t", "seq", "kind", **payload}`` through
    :func:`repro.store.canonical.canonical_json`, so equal runs produce
    byte-equal journals — the determinism tests compare these directly.
    """

    def __init__(self) -> None:
        self.log = EventLog()

    def record(self, time_s: float, kind: str, /, **payload: Any) -> None:
        """Append one executed event (journal seq assigned in call order)."""
        for key in _ENVELOPE:
            if key in payload:
                raise ValueError(f"payload key {key!r} shadows a journal field")
        self.log.append(kind, t=float(time_s), **payload)

    def __len__(self) -> int:
        return len(self.log)

    def to_ndjson(self) -> str:
        """One canonical-JSON line per record (byte-deterministic)."""
        return "".join(
            canonical_json({"seq": r["seq"], "kind": r["kind"], **r["data"]})
            + "\n"
            for r in self.log.window()[0]
        )

    def write(self, path: "str | Any") -> None:
        """Write the NDJSON journal to ``path``."""
        pathlib.Path(path).write_text(self.to_ndjson(), encoding="utf-8")
