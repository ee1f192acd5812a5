"""Session tracing: a structured event log of one CCM session.

Protocol debugging needs more than the final bitmap: *when* did each slot
reach the reader, how many tags transmitted per round, how long did each
checking frame run.  Pass a :class:`SessionTracer` to
:func:`repro.core.session.run_session` and it records one event per
protocol step; export as NDJSON for external tooling or render the
built-in summary.

The tracer is a view over a :class:`repro.obs.export.EventLog`
(``tracer.log``): ``emit`` appends one ``{"seq", "kind", "round",
"data"}`` record, and the tracer adds only its queries and its NDJSON
renderer, which flattens each record to ``{"kind", "round", **data}``.

Events (``kind`` / payload):

* ``round_start``   — ``round``
* ``frame``         — ``transmitters``, ``bits_new_at_reader``,
  ``reader_busy_total``
* ``indicator``     — ``silenced_total``
* ``checking``      — ``slots_executed``, ``reader_heard``,
  ``pending_tags``
* ``session_end``   — ``rounds``, ``clean``, ``busy_slots``

Payload keys ``kind`` and ``round`` are reserved for the NDJSON envelope
and rejected at emit time: they would silently overwrite the envelope on
export and be destructively popped on import.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Union

from repro.obs.export import EventLog

PathLike = Union[str, pathlib.Path]

#: Record fields flattened into each NDJSON line; not allowed in payloads.
_ENVELOPE = ("kind", "round")


class SessionTracer:
    """Collects the protocol events of one session in an :class:`EventLog`.

    :attr:`events` lists the log's records; each is a dict with ``seq``,
    ``kind``, ``round`` and the payload under ``data``.
    """

    def __init__(self) -> None:
        self.log = EventLog()

    def emit(self, kind: str, round_index: int, /, **data: Any) -> None:
        """Record one protocol event."""
        clashes = [k for k in _ENVELOPE if k in data]
        if clashes:
            raise ValueError(
                f"trace payload keys {clashes} collide with the NDJSON "
                "envelope; rename them (e.g. 'round' -> 'round_len')"
            )
        self.log.append(kind, round_index, **data)

    @property
    def events(self) -> List[Dict[str, Any]]:
        return self.log.window()[0]

    # -- queries -----------------------------------------------------------

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["kind"] == kind]

    def rounds(self) -> int:
        starts = self.of_kind("round_start")
        return max((e["round"] for e in starts), default=0)

    def first_delivery_round(self) -> Optional[int]:
        """The first round in which the reader learned any new bit."""
        for event in self.of_kind("frame"):
            if event["data"].get("bits_new_at_reader", 0) > 0:
                return event["round"]
        return None

    # -- export ---------------------------------------------------------------

    def to_ndjson(self, path: Optional[PathLike] = None) -> str:
        """One JSON object per line; also written to ``path`` if given."""
        text = "\n".join(
            json.dumps(
                {"kind": e["kind"], "round": e["round"], **e["data"]},
                sort_keys=True,
            )
            for e in self.events
        )
        if text:
            text += "\n"
        if path is not None:
            pathlib.Path(path).write_text(text, encoding="utf-8")
        return text

    @classmethod
    def from_ndjson(cls, text: str) -> "SessionTracer":
        tracer = cls()
        for line in text.splitlines():
            if not line.strip():
                continue
            payload = json.loads(line)
            kind = payload.pop("kind")
            round_index = payload.pop("round")
            tracer.emit(kind, round_index, **payload)
        return tracer

    def summary(self) -> str:
        """A per-round text digest of the session.

        Covers every round that produced *any* event — in particular the
        final silent checking frame, whose round has a ``checking`` event
        but (in engines that skip the frame event after termination) may
        have no ``frame`` event.
        """
        lines = [
            f"{'round':>6} {'tx tags':>8} {'new bits':>9} {'silenced':>9} "
            f"{'check slots':>12} {'heard':>6}"
        ]
        frames, indicators, checks = (
            {e["round"]: e["data"] for e in self.of_kind(kind)}
            for kind in ("frame", "indicator", "checking")
        )
        for r in sorted(set(frames) | set(indicators) | set(checks)):
            fr = frames.get(r, {})
            iv = indicators.get(r, {})
            ck = checks.get(r, {})
            lines.append(
                f"{r:>6} {fr.get('transmitters', 0):>8} "
                f"{fr.get('bits_new_at_reader', 0):>9} "
                f"{iv.get('silenced_total', 0):>9} "
                f"{ck.get('slots_executed', 0):>12} "
                f"{str(ck.get('reader_heard', False)):>6}"
            )
        ends = self.of_kind("session_end")
        if ends:
            end = ends[-1]["data"]
            lines.append(
                f"session: {end.get('rounds')} rounds, "
                f"{end.get('busy_slots')} busy slots, "
                f"clean={end.get('clean')}"
            )
        return "\n".join(lines)
