"""The content-addressed trial result store.

The paper's evaluation grid (r ∈ {2..10} × 100 trials × 3 protocols) and
every extension sweep on top of it recompute work that is a pure function
of four things: the trial's configuration, its derived seed, the session
engine, and the simulator source.  :class:`ResultStore` memoizes exactly
that function on disk:

* **Key** — SHA-256 of the canonical JSON of the key fields
  (:func:`trial_key`): trial config, trial index, seed, engine id, and
  the :func:`~repro.store.fingerprint.code_fingerprint` of
  ``repro.core``/``repro.protocols``/``repro.net``.  Change any of them
  and the key moves — stale hits are structurally impossible.
* **Value** — the trial's metric dict plus a RunManifest-style
  provenance record (when/where/what revision computed it), one
  ``repro-record-bin-v1`` container per trial under
  ``<root>/objects/<k[:2]>/<k>.bin``, written atomically
  (:func:`atomic_write`: temp file + rename) so a SIGKILL never leaves a
  torn entry.
* **Root** — ``~/.cache/repro`` by default; override with the
  ``REPRO_CACHE_DIR`` environment variable or ``--cache-dir``.

Trial functions become cacheable by being *describable*: a frozen
dataclass (e.g. :class:`repro.experiments.common.PaperTrial`) or any
object exposing ``cache_config() -> dict``.  Closures are not
describable and are rejected rather than mis-keyed.

Maintenance lives here too: :meth:`ResultStore.stats`,
:meth:`ResultStore.verify` (re-run a sampled trial and compare the
canonical metric bytes), and :meth:`ResultStore.gc` (drop entries by age,
then by size, oldest first).

Concurrency: trial reads/writes are lock-free (atomic rename + key
re-check make torn or duplicate writes impossible), but *maintenance*
operations coordinate through an advisory file lock
(:class:`StoreLock`): ``gc`` takes it exclusively, ``verify`` takes it
shared, so a gc in one process can never delete files out from under a
verify or a second gc in another (which would mis-count or mis-report).
Campaign writers never block — the lock is maintenance-only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime
import importlib
import os
import pathlib
import random
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.store.binary import (
    RECORD_TYPE_TRIAL,
    BinaryFormatError,
    decode_record,
    encode_record,
)
from repro.store.canonical import canonical_bytes, digest

try:  # POSIX advisory locks; degrade to O_EXCL spinning elsewhere
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    _fcntl = None

PathLike = Union[str, pathlib.Path]

__all__ = [
    "RESULT_FORMAT",
    "KEY_SCHEMA",
    "CacheEntry",
    "ResultStore",
    "StoreLock",
    "StoreStats",
    "VerifyOutcome",
    "atomic_write",
    "default_cache_dir",
    "trial_config_of",
    "trial_key",
]

#: Format marker of one stored trial record.
RESULT_FORMAT = "repro-trial-result-v1"

#: Schema tag mixed into every key so future key layout changes never
#: collide with old entries.
KEY_SCHEMA = "repro-trial-key-v1"

#: Name prefix of :func:`atomic_write`'s temp files.
TEMP_PREFIX = ".tmp-"

#: A temp file younger than this may belong to a live writer, so ``gc``
#: never removes it (a write takes milliseconds).
TEMP_GRACE_S = 60.0

#: The file name of a stored record: its SHA-256 key.
_KEY_NAME = re.compile(r"[0-9a-f]{64}\.bin")


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env).expanduser()
    return pathlib.Path("~/.cache/repro").expanduser()


def trial_config_of(trial_fn: Callable) -> Optional[Dict[str, Any]]:
    """A canonical, JSON-able description of a trial function.

    Returns ``{"type": "<module>.<qualname>", "params": {...}}`` for a
    dataclass instance, the object's own ``cache_config()`` for anything
    that provides one, and ``None`` for undescribable callables
    (closures, lambdas, bare functions with captured state) — the caller
    must then run uncached or give the callable a ``cache_config``.
    """
    cfg = getattr(trial_fn, "cache_config", None)
    if callable(cfg):
        described = dict(cfg())
        described.setdefault("type", _type_name(type(trial_fn)))
        return described
    if dataclasses.is_dataclass(trial_fn) and not isinstance(trial_fn, type):
        return {
            "type": _type_name(type(trial_fn)),
            "params": dataclasses.asdict(trial_fn),
        }
    return None


def _type_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def trial_key(
    trial_config: Dict[str, Any],
    trial_index: int,
    seed: int,
    engine: Optional[str],
    code_fingerprint: str,
) -> str:
    """The content address of one trial result (SHA-256 hex)."""
    return digest(
        {
            "schema": KEY_SCHEMA,
            "trial": trial_config,
            "trial_index": int(trial_index),
            "seed": int(seed),
            "engine": engine,
            "code_fingerprint": code_fingerprint,
        }
    )


@dataclass
class CacheEntry:
    """One stored trial record, parsed."""

    key: str
    path: pathlib.Path
    key_fields: Dict[str, Any]
    metrics: Dict[str, float]
    provenance: Dict[str, Any]
    size_bytes: int = 0

    @property
    def trial_type(self) -> str:
        trial = self.key_fields.get("trial") or {}
        return str(trial.get("type", "?"))


@dataclass
class StoreStats:
    """What ``repro cache stats`` reports."""

    root: str
    n_entries: int = 0
    total_bytes: int = 0
    by_trial_type: Dict[str, int] = field(default_factory=dict)
    n_campaigns: int = 0
    oldest_utc: Optional[str] = None
    newest_utc: Optional[str] = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class VerifyOutcome:
    """The result of re-running one sampled cache entry."""

    key: str
    ok: bool
    reason: str = ""


class StoreLock:
    """Advisory maintenance lock of one store root.

    A thin wrapper over POSIX ``flock`` on ``<root>/.maintenance.lock``:
    ``shared()`` lets any number of readers (``verify``) proceed
    together, ``exclusive()`` serializes mutators (``gc``) against both
    readers and each other.  The lock is *advisory* — only maintenance
    paths take it; campaign reads/writes stay lock-free because atomic
    renames already make them safe.

    Both context managers block until the lock is granted unless
    ``timeout_s`` is given, in which case :class:`TimeoutError` is
    raised after polling for that long.  On platforms without ``fcntl``
    the exclusive mode falls back to ``O_EXCL`` lock-file spinning and
    shared mode degrades to exclusive.
    """

    _POLL_S = 0.05

    def __init__(self, root: pathlib.Path):
        self.path = pathlib.Path(root) / ".maintenance.lock"

    @contextlib.contextmanager
    def shared(self, timeout_s: Optional[float] = None):
        yield from self._acquire(exclusive=False, timeout_s=timeout_s)

    @contextlib.contextmanager
    def exclusive(self, timeout_s: Optional[float] = None):
        yield from self._acquire(exclusive=True, timeout_s=timeout_s)

    def _acquire(self, exclusive: bool, timeout_s: Optional[float]):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if _fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield from self._acquire_excl_file(timeout_s)
            return
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        flags = _fcntl.LOCK_EX if exclusive else _fcntl.LOCK_SH
        try:
            if timeout_s is None:
                _fcntl.flock(fd, flags)
            else:
                deadline = time.monotonic() + timeout_s
                while True:
                    try:
                        _fcntl.flock(fd, flags | _fcntl.LOCK_NB)
                        break
                    except OSError:
                        if time.monotonic() >= deadline:
                            raise TimeoutError(
                                f"store lock {self.path} not acquired "
                                f"within {timeout_s}s"
                            )
                        time.sleep(self._POLL_S)
            yield self
        finally:
            try:
                _fcntl.flock(fd, _fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def _acquire_excl_file(
        self, timeout_s: Optional[float]
    ):  # pragma: no cover - non-POSIX fallback
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        while True:
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
                break
            except FileExistsError:
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"store lock {self.path} not acquired within "
                        f"{timeout_s}s"
                    )
                time.sleep(self._POLL_S)
        try:
            yield self
        finally:
            os.close(fd)
            with contextlib.suppress(OSError):
                os.unlink(self.path)


class ResultStore:
    """Content-addressed on-disk memoization of trial results.

    Layout under ``root``::

        objects/<key[:2]>/<key>.bin    one repro-record-bin-v1 trial record
        campaigns/[<namespace>/]<key>.binj
                                       campaign checkpoint journals
        serve/jobs/<id>.bin            repro serve job records

    Keys are still the SHA-256 of canonical JSON, so a record's address
    — and cross-host dedupe — does not depend on the payload encoding.

    All writes are atomic; a key's record, once written, never changes
    (same key ⇒ same content), so concurrent campaigns can share a store
    without locking.
    """

    def __init__(self, root: Optional[PathLike] = None):
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()

    # -- paths ---------------------------------------------------------------

    @property
    def objects_dir(self) -> pathlib.Path:
        return self.root / "objects"

    @property
    def campaigns_dir(self) -> pathlib.Path:
        return self.root / "campaigns"

    @property
    def jobs_dir(self) -> pathlib.Path:
        """Where ``repro serve`` keeps its job records."""
        return self.root / "serve" / "jobs"

    def path_for(self, key: str) -> pathlib.Path:
        """Where ``key``'s record lives."""
        return self.objects_dir / key[:2] / f"{key}.bin"

    def lock(self) -> StoreLock:
        """The store's advisory maintenance lock (see :class:`StoreLock`)."""
        return StoreLock(self.root)

    # -- read/write ----------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, float]]:
        """The memoized metrics for ``key``, or ``None`` on a miss.

        A corrupt or truncated record (e.g. from a torn disk, not from
        our atomic writes) reads as a miss — the trial is recomputed and
        the record rewritten — never as wrong data: the stored key is
        recomputed from the stored key fields and must match.
        """
        record = self.get_record(key)
        return None if record is None else record.metrics

    def get_record(self, key: str) -> Optional[CacheEntry]:
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        entry = self._parse_binary(path, data)
        if entry is None or entry.key != key:
            return None  # corrupt or misplaced: a miss
        return entry

    def put(
        self,
        key: str,
        key_fields: Dict[str, Any],
        metrics: Dict[str, float],
        provenance: Optional[Dict[str, Any]] = None,
    ) -> pathlib.Path:
        """Write one trial record atomically; a no-op if already present
        (same key means same content)."""
        path = self.path_for(key)
        if path.exists():
            return path
        record = {
            "format": RESULT_FORMAT,
            "key": key,
            "key_fields": key_fields,
            "metrics": dict(metrics),
            "provenance": dict(provenance or {}),
        }
        atomic_write(path, encode_record(record, RECORD_TYPE_TRIAL))
        return path

    @staticmethod
    def default_provenance(
        engine: Optional[str] = None,
        elapsed_s: Optional[float] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """A RunManifest-flavoured provenance dict for one trial record."""
        import platform as _platform

        from repro.obs.manifest import git_revision

        record = {
            "created_utc": datetime.datetime.now(datetime.timezone.utc)
            .replace(microsecond=0)
            .isoformat()
            .replace("+00:00", "Z"),
            "git_rev": git_revision(),
            "host": _platform.node(),
            "python_version": _platform.python_version(),
            "engine": engine,
            "elapsed_s": elapsed_s,
        }
        if extra:
            record.update(extra)
        return record

    # -- enumeration ---------------------------------------------------------

    def entries(self) -> Iterator[CacheEntry]:
        """All parseable records, in key order.

        Only key-named files count: a writer's temp file (or any copy
        under another name) is never a second entry.
        """
        for path in self._record_paths():
            try:
                data = path.read_bytes()
            except OSError:
                continue
            entry = self._parse_binary(path, data)
            if entry is not None and entry.key == path.stem:
                yield entry

    def _record_paths(self) -> List[pathlib.Path]:
        """The key-named ``objects/*/<key>.bin`` files, in key order."""
        return [
            path for path in _sorted_glob(self.objects_dir, "*/*.bin")
            if _KEY_NAME.fullmatch(path.name)
        ]

    def journals(self) -> List[Tuple[Optional[str], str]]:
        """Every campaign checkpoint journal as ``(namespace, key)``.

        Namespaced journals (e.g. ``repro serve``'s
        ``campaigns/jobs/<job-id>/``) live in subdirectories; the
        namespace is their path relative to ``campaigns/``.
        """
        if not self.campaigns_dir.is_dir():
            return []
        found = []
        for path in self.campaigns_dir.rglob("*.binj"):
            parent = path.parent.relative_to(self.campaigns_dir).as_posix()
            found.append((None if parent == "." else parent, path.stem))
        return sorted(found, key=lambda nk: (nk[0] or "", nk[1]))

    def _parse_binary(
        self, path: pathlib.Path, data: bytes
    ) -> Optional[CacheEntry]:
        """A ``.bin`` object decoded, or ``None`` if corrupt (a miss)."""
        try:
            record, record_type = decode_record(data)
        except BinaryFormatError:
            return None
        if record_type != RECORD_TYPE_TRIAL:
            return None
        return _entry(path, record, len(data))

    # -- maintenance ---------------------------------------------------------

    def stats(self) -> StoreStats:
        stats = StoreStats(root=str(self.root))
        oldest: Optional[str] = None
        newest: Optional[str] = None
        for entry in self.entries():
            stats.n_entries += 1
            stats.total_bytes += entry.size_bytes
            t = entry.trial_type
            stats.by_trial_type[t] = stats.by_trial_type.get(t, 0) + 1
            created = entry.provenance.get("created_utc")
            if isinstance(created, str) and created:
                oldest = created if oldest is None else min(oldest, created)
                newest = created if newest is None else max(newest, created)
        stats.oldest_utc = oldest
        stats.newest_utc = newest
        stats.n_campaigns = len(self.journals())
        return stats

    def gc(
        self,
        max_size_bytes: Optional[int] = None,
        older_than_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Dict[str, int]:
        """Drop entries by age, then by total size (oldest first).

        ``older_than_s`` removes every record whose file mtime is older
        than that many seconds; ``max_size_bytes`` then evicts the
        oldest surviving records until the object payload fits.  Returns
        ``{"removed": n, "freed_bytes": b, "kept": m}``.

        ``older_than_s`` also removes the temp files a killed writer
        left under ``objects/`` and ``serve/jobs/`` (counted in
        ``removed`` and ``freed_bytes``), but never one younger than
        :data:`TEMP_GRACE_S`: that may be a live writer's, whose rename
        would then fail.

        Holds the store's exclusive maintenance lock for the duration,
        so two concurrent ``gc`` runs (or a ``gc`` racing a ``verify``)
        serialize instead of double-counting removals or yanking files
        out from under a reader.
        """
        with self.lock().exclusive():
            return self._gc_locked(max_size_bytes, older_than_s, now)

    def _gc_locked(
        self,
        max_size_bytes: Optional[int],
        older_than_s: Optional[float],
        now: Optional[float],
    ) -> Dict[str, int]:
        now = time.time() if now is None else now
        records: List = []  # (mtime, size, path)
        for path in self._record_paths():
            try:
                st = path.stat()
            except OSError:
                continue
            records.append((st.st_mtime, st.st_size, path))
        records.sort()
        removed = 0
        freed = 0

        def drop(item) -> None:
            nonlocal removed, freed
            mtime, size, path = item
            try:
                path.unlink()
            except OSError:
                return
            removed += 1
            freed += size

        if older_than_s is not None:
            stale_s = max(older_than_s, TEMP_GRACE_S)
            for path in _sorted_glob(
                self.objects_dir, f"*/{TEMP_PREFIX}*"
            ) + _sorted_glob(self.jobs_dir, f"{TEMP_PREFIX}*"):
                try:
                    st = path.stat()
                except OSError:
                    continue
                if now - st.st_mtime > stale_s:
                    drop((st.st_mtime, st.st_size, path))

        survivors = []
        for item in records:
            if older_than_s is not None and now - item[0] > older_than_s:
                drop(item)
            else:
                survivors.append(item)
        if max_size_bytes is not None:
            total = sum(size for _, size, _ in survivors)
            i = 0
            while total > max_size_bytes and i < len(survivors):
                drop(survivors[i])
                total -= survivors[i][1]
                i += 1
            survivors = survivors[i:]
        return {"removed": removed, "freed_bytes": freed, "kept": len(survivors)}

    def verify(
        self, sample: Optional[int] = None, seed: int = 0
    ) -> List[VerifyOutcome]:
        """Re-run stored trials and compare the canonical metric bytes.

        Reconstructs each sampled entry's trial function from its stored
        config (``{"type": ..., "params": ...}``), re-executes it with
        the stored trial index and seed, and demands the recomputed
        metrics serialize to byte-identical canonical JSON.  ``sample``
        limits the check to a deterministic random subset (seeded by
        ``seed``); ``None`` verifies everything.

        Holds the store's *shared* maintenance lock while enumerating —
        concurrent verifies proceed together, but a ``gc`` cannot
        delete entries mid-enumeration (which would silently shrink the
        sample).  Re-runs happen against the already-parsed in-memory
        records, so the (possibly slow) recompute phase never holds the
        lock.
        """
        with self.lock().shared():
            entries = list(self.entries())
        if sample is not None and sample < len(entries):
            entries = random.Random(seed).sample(entries, sample)
            entries.sort(key=lambda e: e.key)
        outcomes: List[VerifyOutcome] = []
        for entry in entries:
            outcomes.append(self._verify_one(entry))
        return outcomes

    def _verify_one(self, entry: CacheEntry) -> VerifyOutcome:
        fields = entry.key_fields
        trial = fields.get("trial") or {}
        type_name = trial.get("type")
        params = trial.get("params")
        if not isinstance(type_name, str) or not isinstance(params, dict):
            return VerifyOutcome(
                entry.key, False, "record has no reconstructable trial config"
            )
        try:
            module_name, _, cls_name = type_name.rpartition(".")
            cls = getattr(importlib.import_module(module_name), cls_name)
            trial_fn = cls(**_tuplify(params))
        except Exception as exc:  # noqa: BLE001 - report, don't crash verify
            return VerifyOutcome(
                entry.key, False, f"cannot rebuild {type_name}: {exc}"
            )
        try:
            recomputed = dict(
                trial_fn(fields.get("trial_index", 0), fields["seed"])
            )
        except Exception as exc:  # noqa: BLE001
            return VerifyOutcome(entry.key, False, f"re-run raised: {exc}")
        if canonical_bytes(recomputed) != canonical_bytes(entry.metrics):
            return VerifyOutcome(
                entry.key, False, "recomputed metrics differ from stored"
            )
        return VerifyOutcome(entry.key, True)


def atomic_write(path: pathlib.Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file + ``os.replace``.

    The temp file, ``.tmp-<pid>-<tid><suffix>`` beside ``path``, is
    private to the writing thread, so concurrent writers of one path
    never share it; readers see the old file or the new one, never a
    torn one.  The parent directory is created only when missing, and
    the temp file is removed on any failure.
    """
    tmp = path.with_name(
        f"{TEMP_PREFIX}{os.getpid()}-{threading.get_ident()}{path.suffix}"
    )
    try:
        with open_for_write(tmp) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def open_for_write(path: pathlib.Path) -> BinaryIO:
    """``open(path, "wb")``, making the parent directory only when the
    open fails for lack of it (a store's directories mostly exist)."""
    try:
        return open(path, "wb")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "wb")


def _entry(path: pathlib.Path, record: Any, size: int) -> Optional[CacheEntry]:
    """A decoded trial record as an entry; ``None`` unless its stored key
    is the digest of its stored key fields."""
    if (
        not isinstance(record, dict)
        or record.get("format") != RESULT_FORMAT
        or record.get("key") != digest(record.get("key_fields"))
    ):
        return None
    return CacheEntry(
        key=record["key"],
        path=path,
        key_fields=record["key_fields"],
        metrics=record.get("metrics") or {},
        provenance=record.get("provenance") or {},
        size_bytes=size,
    )


def _sorted_glob(base: pathlib.Path, pattern: str) -> List[pathlib.Path]:
    return sorted(base.glob(pattern)) if base.is_dir() else []


def _tuplify(params: Dict[str, Any]) -> Dict[str, Any]:
    """JSON turned tuples into lists; dataclass fields often want tuples.

    Canonical JSON serializes both identically, so the key is unaffected
    either way — this only rebuilds hashable defaults for frozen
    dataclasses.
    """
    return {
        k: tuple(v) if isinstance(v, list) else v for k, v in params.items()
    }
