"""Campaign checkpoints: crash-resumable progress journals.

The object store memoizes individual trials; the checkpoint journal ties
them together into a *campaign* — one (trial config, n_trials, base
seed, engine, code fingerprint) identity — so a killed process can
report what a resume will reuse, and a completed campaign records the
digest of its aggregates for later bit-identity checks.

The journal is an append-only event stream under
``<store>/campaigns/<campaign_key>.binj`` — a ``repro-record-bin-v1``
journal container whose frames are length-prefixed and CRC-protected.
Event kinds:

* ``{"kind": "meta", ...}`` — the campaign identity, written at start;
* ``{"kind": "trial", "trial_index": k, "key": ..., "ok": true}`` —
  appended after every trial completes (flushed, so a SIGKILL loses at
  most the in-flight trials);
* ``{"kind": "complete", "aggregates_digest": ..., "elapsed_s": ...}``
  — appended when the campaign finishes.

Torn records are tolerated: replay stops at the first frame whose
length or CRC fails — and, because binary frames do not resynchronize,
a resuming writer truncates the torn tail before appending (see
:func:`repro.store.binary.load_journal`).

Resume correctness does **not** depend on the journal: a resumed
campaign re-checks every trial key against the object store, so the
journal can lag (trials that were harvested but not journaled simply
hit the cache).  The journal exists for visibility (``repro cache ls``)
and for the completion digest.
"""

from __future__ import annotations

import datetime
import pathlib
import re
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterable, Optional

from repro.store.binary import (
    append_journal_frame,
    load_journal,
    write_journal_header,
)
from repro.store.cache import open_for_write
from repro.store.canonical import digest

__all__ = [
    "CHECKPOINT_FORMAT",
    "CampaignCheckpoint",
    "CheckpointState",
    "campaign_key",
    "validate_namespace",
]

CHECKPOINT_FORMAT = "repro-campaign-checkpoint-v1"

#: One namespace path segment: portable filename characters only.
_NAMESPACE_SEGMENT = re.compile(r"^[A-Za-z0-9._-]+$")


def validate_namespace(namespace: str) -> str:
    """Check a checkpoint namespace is a safe relative path; return it.

    Namespaces are ``/``-separated segments of ``[A-Za-z0-9._-]`` (no
    empty segments, no ``.``/``..``), so a namespace can never escape
    the store's ``campaigns/`` directory or collide with a journal
    filename.
    """
    if not isinstance(namespace, str) or not namespace:
        raise ValueError("checkpoint namespace must be a non-empty string")
    for segment in namespace.split("/"):
        if not _NAMESPACE_SEGMENT.match(segment) or segment in (".", ".."):
            raise ValueError(
                f"bad checkpoint namespace {namespace!r}: segments must "
                "match [A-Za-z0-9._-]+ and cannot be '.' or '..'"
            )
    return namespace


def campaign_key(
    trial_config: Dict[str, Any],
    n_trials: int,
    base_seed: int,
    engine: Optional[str],
    code_fingerprint: str,
) -> str:
    """The identity of one campaign (SHA-256 hex)."""
    return digest(
        {
            "schema": CHECKPOINT_FORMAT,
            "trial": trial_config,
            "n_trials": int(n_trials),
            "base_seed": int(base_seed),
            "engine": engine,
            "code_fingerprint": code_fingerprint,
        }
    )


@dataclass
class CheckpointState:
    """What a journal says happened so far."""

    meta: Dict[str, Any] = field(default_factory=dict)
    done: Dict[int, str] = field(default_factory=dict)  # index -> trial key
    completed: bool = False
    aggregates_digest: Optional[str] = None

    @property
    def n_done(self) -> int:
        return len(self.done)


class CampaignCheckpoint:
    """One campaign's append-only progress journal.

    ``namespace`` relocates the journal under
    ``campaigns/<namespace>/<key>.binj`` — the ``repro serve`` job
    runner gives every job its own namespace so two concurrent
    submissions of the *identical* campaign (same campaign key) append
    to distinct journal files instead of interleaving in one.  The
    object store is untouched: namespacing changes where progress is
    journaled, never how results are addressed.
    """

    def __init__(
        self,
        store_root: pathlib.Path,
        key: str,
        *,
        namespace: Optional[str] = None,
        trace_id: Optional[str] = None,
    ):
        self.key = key
        self.store_root = pathlib.Path(store_root)
        base = self.store_root / "campaigns"
        if namespace is not None:
            base = base / validate_namespace(namespace)
        #: The ``repro-record-bin-v1`` journal this checkpoint appends to.
        self.path = base / f"{key}.binj"
        #: Trace id stamped onto every journal event (``None`` = no trace).
        self.trace_id = trace_id
        self._fh: Optional[IO[Any]] = None

    # -- reading -------------------------------------------------------------

    def load(self) -> CheckpointState:
        """Replay the journal; tolerant of a torn final frame (SIGKILL)."""
        return self._replay(load_journal(self.path)[0])

    @staticmethod
    def _replay(events: Iterable[Any]) -> CheckpointState:
        state = CheckpointState()
        for event in events:
            if not isinstance(event, dict):
                continue
            kind = event.get("kind")
            if kind == "meta":
                state.meta = event
            elif kind == "trial" and event.get("ok"):
                state.done[int(event["trial_index"])] = str(event.get("key"))
            elif kind == "complete":
                state.completed = True
                state.aggregates_digest = event.get("aggregates_digest")
        return state

    # -- writing -------------------------------------------------------------

    def begin(
        self, meta: Dict[str, Any], *, resume: bool = False
    ) -> CheckpointState:
        """Open the journal for appending; truncate unless resuming.

        Returns the prior state (empty when starting fresh).
        """
        events, valid = load_journal(self.path) if resume else ([], 0)
        prior = self._replay(events)
        if valid > 0:
            # Cut off any torn tail frame, then append after it.
            with open(self.path, "rb+") as fh:
                fh.truncate(valid)
            self._fh = open(self.path, "ab")
        else:
            self._fh = open_for_write(self.path)
            write_journal_header(self._fh)
        self._emit(
            {
                "kind": "meta",
                "format": CHECKPOINT_FORMAT,
                "campaign_key": self.key,
                "resumed": bool(resume and prior.n_done),
                "created_utc": _utcnow(),
                **meta,
            }
        )
        return prior

    def record_trial(self, trial_index: int, key: str, ok: bool, cached: bool) -> None:
        self._emit(
            {
                "kind": "trial",
                "trial_index": trial_index,
                "key": key,
                "ok": ok,
                "cached": cached,
            }
        )

    def complete(self, aggregates_digest: str, elapsed_s: float) -> None:
        self._emit(
            {
                "kind": "complete",
                "aggregates_digest": aggregates_digest,
                "elapsed_s": elapsed_s,
            }
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _emit(self, event: Dict[str, Any]) -> None:
        if self._fh is None:
            raise RuntimeError("checkpoint journal not open; call begin()")
        if self.trace_id is not None:
            event = {**event, "trace_id": self.trace_id}
        append_journal_frame(self._fh, event)
        self._fh.flush()


def _utcnow() -> str:
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat()
        .replace("+00:00", "Z")
    )
