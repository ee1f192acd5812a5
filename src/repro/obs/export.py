"""The event log and the metric exporters: NDJSON and Prometheus text.

Three output shapes, all zero-dependency:

* :class:`EventLog` — the one event store: a thread-safe,
  sequence-numbered list of ``{"seq", "kind", "round", "data"}``
  records with optional bounded retention.  ``repro serve`` streams a
  job's progress by replaying its EventLog and following the live tail;
  :class:`~repro.sim.trace.SessionTracer` and the scenario
  :class:`~repro.scenario.events.EventJournal` are views over one, each
  adding only its queries and its NDJSON renderer.
* :func:`metrics_to_ndjson` — one JSON object per line, one line per
  metric (``{"type": "counter", "name": ..., "value": ...}``; histograms
  carry buckets/counts/sum/count; spans carry path/count/seconds).
* :func:`render_prometheus` — the Prometheus text exposition format
  (``# TYPE`` headers, ``_bucket{le="..."}``/``_sum``/``_count`` series
  for histograms, span aggregates as ``span_seconds_total{path="..."}``),
  so a scrape endpoint or textfile collector can serve the numbers
  without this repo growing a client-library dependency.
"""

from __future__ import annotations

import json
import pathlib
import threading
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry

PathLike = Union[str, pathlib.Path]

__all__ = [
    "EventLog",
    "metrics_to_ndjson",
    "render_prometheus",
]


class EventLog:
    """A thread-safe, sequence-numbered record of events.

    :meth:`append` turns every event into a JSON-able dict
    ``{"seq": n, "kind": ..., "round": ..., "data": {...}}``; ``seq``
    counts from 0 in append order.  Readers replay from any sequence
    number with :meth:`window` and block on the live tail with
    :meth:`wait`, which is how ``repro serve`` turns a campaign's
    progress into a streamed NDJSON response: replay what already
    happened, then follow until :meth:`close`.

    ``maxlen`` bounds memory: when set, the oldest records are dropped
    once the log exceeds it (sequence numbers keep counting, so readers
    can detect the gap).  Retained seqs are always contiguous, so reads
    slice by offset instead of scanning.

    The log pickles: the lock is dropped and rebuilt, the records and
    the closed flag travel.
    """

    def __init__(self, maxlen: Optional[int] = None) -> None:
        self._records: List[Dict[str, Any]] = []
        self._next_seq = 0
        self._closed = False
        self._maxlen = maxlen
        self._cond = threading.Condition()

    def __getstate__(self) -> Dict[str, Any]:
        with self._cond:
            state = dict(self.__dict__, _records=list(self._records))
        del state["_cond"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._cond = threading.Condition()

    def append(
        self, kind: str, round_index: int = 0, /, **data: Any
    ) -> Dict[str, Any]:
        """Record one event; returns the stored record.

        ``kind`` and ``round_index`` are positional-only, so every
        keyword — ``kind`` and ``round_index`` included — is payload.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("EventLog is closed")
            record = {
                "seq": self._next_seq,
                "kind": str(kind),
                "round": int(round_index),
                "data": data,
            }
            self._next_seq += 1
            self._records.append(record)
            if self._maxlen is not None and len(self._records) > self._maxlen:
                del self._records[: len(self._records) - self._maxlen]
            self._cond.notify_all()
        return record

    def close(self) -> None:
        """Mark the stream finished; wakes all :meth:`wait` callers."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    @property
    def first_seq(self) -> int:
        """Sequence number of the oldest *retained* record.

        Equals the next sequence number when the log is empty; greater
        than zero once retention has dropped records.
        """
        with self._cond:
            return self._next_seq - len(self._records)

    @property
    def dropped(self) -> int:
        """How many records retention has discarded so far.

        Seqs start at 0 and only the oldest are dropped, so this is
        :attr:`first_seq`.
        """
        return self.first_seq

    def _tail(self, seq: int) -> List[Dict[str, Any]]:
        """Retained records with ``record["seq"] >= seq`` (lock held)."""
        first = self._next_seq - len(self._records)
        return self._records[max(seq - first, 0):]

    def window(self, seq: int = 0) -> Tuple[List[Dict[str, Any]], bool]:
        """Retained records at/after ``seq``, and whether any are missing.

        Returns ``(records, truncated)``; ``truncated`` is ``True`` when
        records the caller asked for (at/after ``seq``) have already been
        dropped, so a replay starting at ``seq`` would silently skip
        them.  ``repro serve`` surfaces this as an explicit marker line
        at the head of the ``/events`` stream.
        """
        with self._cond:
            first = self._next_seq - len(self._records)
            return self._tail(seq), 0 < first and seq < first

    def wait(
        self, seq: int, timeout_s: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Block until a record at/after ``seq`` exists or the log closes.

        Returns the new records (possibly empty when the log closed or
        the timeout elapsed first).
        """
        with self._cond:
            self._cond.wait_for(
                lambda: self._closed or self._next_seq > seq,
                timeout=timeout_s,
            )
            return self._tail(seq)

    def __len__(self) -> int:
        with self._cond:
            return len(self._records)


# -- NDJSON --------------------------------------------------------------------


def metrics_to_ndjson(
    registry: MetricsRegistry, path: Optional[PathLike] = None
) -> str:
    """Serialise every metric and span aggregate as NDJSON.

    One JSON object per line; also written to ``path`` when given.  Lines
    are sorted by (type, name) so exports diff cleanly.
    """
    doc = registry.to_dict()
    records: List[dict] = []
    for name in sorted(doc["counters"]):
        records.append(
            {"type": "counter", "name": name, "value": doc["counters"][name]}
        )
    for name in sorted(doc["gauges"]):
        records.append(
            {"type": "gauge", "name": name, "value": doc["gauges"][name]}
        )
    for name in sorted(doc["histograms"]):
        records.append(
            {"type": "histogram", "name": name, **doc["histograms"][name]}
        )
    spans = [
        {"type": "span", "path": "/".join(s["path"]),
         "count": s["count"], "seconds": s["seconds"]}
        for s in doc["spans"]
    ]
    records.extend(sorted(spans, key=lambda r: r["path"]))
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records)
    if text:
        text += "\n"
    if path is not None:
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return text


# -- Prometheus text format ----------------------------------------------------


def _prom_name(name: str) -> str:
    """Sanitise a metric name to the Prometheus charset."""
    return "".join(
        c if (c.isalnum() or c in "_:") else "_" for c in name
    )


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def _prom_label_value(value: str) -> str:
    """Escape a label value per the text exposition format.

    Backslash, double-quote, and newline are the three characters the
    format requires escaping inside ``label="..."``.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: List[str] = []
    for name, counter in sorted(registry.counters().items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(counter.value)}")
    for name, gauge in sorted(registry.gauges().items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(gauge.value)}")
    for name, hist in sorted(registry.histograms().items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for upper, count in zip(hist.uppers, hist.counts):
            cumulative += count
            lines.append(
                f'{prom}_bucket{{le="{_prom_value(upper)}"}} {cumulative}'
            )
        cumulative += hist.counts[-1]
        lines.append(f'{prom}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{prom}_sum {_prom_value(hist.sum)}")
        lines.append(f"{prom}_count {hist.count}")
    span_stats = registry.span_stats()
    if span_stats:
        lines.append("# TYPE span_seconds_total counter")
        lines.append("# TYPE span_calls_total counter")
        for path, (count, seconds) in sorted(span_stats.items()):
            label = _prom_label_value("/".join(path))
            lines.append(
                f'span_seconds_total{{path="{label}"}} {_prom_value(seconds)}'
            )
            lines.append(f'span_calls_total{{path="{label}"}} {count}')
    return "\n".join(lines) + ("\n" if lines else "")
