"""Benchmark trajectories: a history of ``perfbench/run.py`` results.

``perfbench/run.py`` prints a header line, the metrics, and a JSON
verdict as its last line::

    workload serve_mixed seed 1 size bench: ops=… host_speed=0.713; …
    workload serve_mixed seed 1 size bench: traced ops=120
    {"correct": true, "attempted": 50, "failed": 0, "metrics": {…}}

:func:`record_run` appends one saved output to the history as one
``repro-bench-history-v2`` NDJSON line.  :func:`render_compare` judges
the newest run of each (workload, size, traced) key against the previous
one by the rules of ``BENCHMARK.json``: an end-to-end metric worse by
more than its own ``bound`` in its ``better`` direction, a run that is
not ``correct``, or a larger share of failed ops is a regression.
Per-layer metrics are shown, never judged.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.manifest import git_revision
from repro.store.canonical import canonical_json

PathLike = Union[str, pathlib.Path]
Entry = Dict[str, Any]

__all__ = [
    "HISTORY_SCHEMA", "key_label", "load_history", "load_spec",
    "record_run", "render_compare", "render_report",
]

#: Version tag of one history line.
HISTORY_SCHEMA = "repro-bench-history-v2"

#: Every field of a history line and the types it may hold.
_FIELDS = {
    "schema": (str,), "workload": (str,), "seed": (int,), "size": (str,),
    "traced": (bool,), "git_rev": (str, type(None)),
    "host_speed": (int, float, type(None)), "correct": (bool,),
    "attempted": (int,), "failed": (int,), "metrics": (dict,),
}

_HEADER = re.compile(r"workload (\S+) seed (-?\d+) size (\S+): (.*)")
_HOST_SPEED = re.compile(r"\bhost_speed=([0-9.]+)")


def _validate(doc: Any) -> Entry:
    if not isinstance(doc, dict) or doc.get("schema") != HISTORY_SCHEMA:
        raise ValueError(f"not a {HISTORY_SCHEMA} object")
    if set(doc) != set(_FIELDS):
        odd = ", ".join(sorted(set(doc) ^ set(_FIELDS)))
        raise ValueError(f"fields differ from the schema: {odd}")
    for field, types in _FIELDS.items():
        value = doc[field]
        if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types
        ):
            raise ValueError(f"field {field!r} has a wrong type")
    values = doc["metrics"].values()
    if not values or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in values
    ):
        raise ValueError("'metrics' must be a non-empty numeric map")
    return doc


def record_run(run_path: PathLike, history_path: PathLike) -> Entry:
    """Append one saved ``perfbench/run.py`` output to the history."""
    path = pathlib.Path(run_path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = next(filter(None, map(_HEADER.fullmatch, lines)), None)
    try:
        if header is None:
            raise ValueError("no 'workload W seed S size Z:' header")
        workload, seed, size, notes = header.groups()
        traced = notes.startswith("traced")
        speed = _HOST_SPEED.search(notes)
        if speed is None and not traced:
            raise ValueError("untraced header without host_speed=")
        verdict = json.loads(lines[-1])
        entry = _validate({
            "schema": HISTORY_SCHEMA, "workload": workload,
            "seed": int(seed), "size": size, "traced": traced,
            "git_rev": git_revision(),
            "host_speed": None if traced else float(speed.group(1)),
            "correct": verdict["correct"], "attempted": verdict["attempted"],
            "failed": verdict["failed"],
            "metrics": {k: v["value"] for k, v in verdict["metrics"].items()},
        })
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"{path}: not a perfbench run output: {exc}") from exc
    target = pathlib.Path(history_path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "a", encoding="utf-8") as fh:
        fh.write(canonical_json(entry) + "\n")
    return entry


def load_history(history_path: PathLike) -> List[Entry]:
    """Every history line in append order; a missing file is empty.

    Raises :class:`ValueError` naming the line number of a malformed line.
    """
    path = pathlib.Path(history_path)
    if not path.exists():
        return []
    entries = []
    text = path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            entries.append(_validate(json.loads(line)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return entries


def load_spec(spec_path: PathLike) -> Dict[str, Tuple[str, float]]:
    """End-to-end metric name -> (``better``, ``bound``) from the spec."""
    doc = json.loads(pathlib.Path(spec_path).read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}


def key_label(entry: Entry) -> str:
    """The key runs are compared under: workload, size, traced or not."""
    traced = " traced" if entry["traced"] else ""
    return f"{entry['workload']} size {entry['size']}{traced}"


def _by_key(entries: List[Entry], workload: Optional[str]) -> Dict[str, list]:
    keyed: Dict[str, list] = {}
    for entry in entries:
        if workload in (None, entry["workload"]):
            keyed.setdefault(key_label(entry), []).append(entry)
    return dict(sorted(keyed.items()))


def _failed_share(entry: Entry) -> float:
    return entry["failed"] / entry["attempted"] if entry["attempted"] else 1.0


def _rev(entry: Entry) -> str:
    return (entry["git_rev"] or "???????")[:7]


def render_compare(
    entries: List[Entry],
    spec: Dict[str, Tuple[str, float]],
    workload: Optional[str] = None,
) -> Tuple[str, bool]:
    """Newest vs previous run per key: the text, and whether any regressed."""
    keyed = _by_key(entries, workload)
    lines = [f"bench compare: {len(keyed)} key(s), bounds from the spec"]
    regressed = False
    for label, runs in keyed.items():
        new = runs[-1]
        if not new["correct"]:
            regressed = True
            lines.append(f"  {label}: newest run not correct  REGRESSION")
        if len(runs) < 2:
            lines.append(f"  {label}: one run, nothing to compare")
            continue
        old = runs[-2]
        lines.append(f"  {label}: {_rev(old)} -> {_rev(new)}")
        if _failed_share(new) > _failed_share(old):
            regressed = True
            lines.append(
                f"    failed {old['failed']}/{old['attempted']} -> "
                f"{new['failed']}/{new['attempted']}  REGRESSION"
            )
        for name, value in new["metrics"].items():
            before = old["metrics"].get(name)
            if not before:  # absent or zero: no relative change
                continue
            change = (value - before) / abs(before)
            line = f"    {name:<31} {before:.6g} -> {value:.6g} {change:+.0%}"
            if name in spec:
                better, bound = spec[name]
                worse = (-change if better == "higher" else change) > bound
                regressed |= worse
                verdict = "REGRESSION" if worse else "ok"
                line += f"  bound {bound:.0%} {better}: {verdict}"
            lines.append(line)
    if not keyed:
        lines.append("  (no history)")
    return "\n".join(lines), regressed


def render_report(
    entries: List[Entry], workload: Optional[str] = None, last: int = 6
) -> str:
    """Per-key metric trajectories across the most recent runs."""
    sections = []
    for label, runs in _by_key(entries, workload).items():
        shown = runs[-last:]
        rows = {
            "git_rev": [_rev(e) for e in shown],
            "correct": [str(e["correct"]).lower() for e in shown],
            "failed": [f"{e['failed']}/{e['attempted']}" for e in shown],
            "host_speed": [f"{e['host_speed'] or '-'}" for e in shown],
        }
        for name in dict.fromkeys(n for e in shown for n in e["metrics"]):
            rows[name] = [
                f"{e['metrics'][name]:.6g}" if name in e["metrics"] else "-"
                for e in shown
            ]
        sections.append("\n".join(
            [f"bench {label} ({len(runs)} run(s)):"]
            + [f"  {k:<31} " + "  ".join(f"{v:>10}" for v in values)
               for k, values in rows.items()]
        ))
    return "\n\n".join(sections) or "(no bench history)"
