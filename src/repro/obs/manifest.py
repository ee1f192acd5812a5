"""Run manifests: the provenance record written beside every artifact.

A results file without its provenance (seed, config, engine, code
revision, host, library versions, resource use) cannot be compared
against a later run — which is exactly what a reproduction repo does all
day.  :class:`RunManifest` captures that record; ``capture()`` fills in
the environment half automatically and the caller supplies the
experiment half (seed/config/engine/elapsed).

The manifest is plain JSON.  Schema (all fields always present; ``null``
where unavailable)::

    {
      "format": "repro-run-manifest-v1",
      "created_utc": "2026-02-11T09:30:14Z",
      "seed": 99,
      "config": {...},               # caller-provided parameter dict
      "engine": "packed",
      "git_rev": "cdd77c4...",       # null outside a git checkout
      "host": "machine-name",
      "platform": "Linux-6.8...",
      "python_version": "3.11.8",
      "numpy_version": "2.1.0",
      "argv": ["repro-ccm", "profile", ...],
      "elapsed_s": 1.84,
      "peak_rss_bytes": 221249536,   # via resource.getrusage; null on
                                     # platforms without the module
      "artifact_sha256": "ab12...",  # hash of the artifact the manifest
                                     # describes; null when written bare
      "trace_id": "4b6c...",         # correlating trace id; null when the
                                     # run was not trace-annotated
      "extra": {...}                 # free-form caller additions
    }

Digests of a manifest go through :mod:`repro.store.canonical` — the
serializer shared with the result-store cache keys — so two manifests
with equal content always digest equally regardless of dict insertion
order or float formatting history.
"""

from __future__ import annotations

import datetime
import functools
import json
import pathlib
import platform as _platform
import subprocess
import sys
import warnings
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Union

from repro.store.canonical import digest as _canonical_digest
from repro.store.canonical import sha256_file

PathLike = Union[str, pathlib.Path]

FORMAT = "repro-run-manifest-v1"

__all__ = [
    "FORMAT",
    "RunManifest",
    "git_revision",
    "peak_rss_bytes",
    "manifest_path_for",
    "write_manifest_alongside",
]


def git_revision(cwd: Optional[PathLike] = None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout.

    Without ``cwd`` the answer is looked up once per process: the code a
    live process runs does not change under it.  ``cwd=`` asks git anew
    on every call.
    """
    if cwd is None:
        return _process_revision()
    return _rev_parse(str(cwd))


@functools.lru_cache(maxsize=None)
def _process_revision() -> Optional[str]:
    return _rev_parse(None)


def _rev_parse(cwd: Optional[str]) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, or ``None`` if unknown.

    ``resource.getrusage`` reports ``ru_maxrss`` in KiB on Linux and in
    bytes on macOS; normalised to bytes here.  The module is POSIX-only,
    so Windows gets ``None`` rather than an import error.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        return int(peak)
    return int(peak) * 1024


@dataclass
class RunManifest:
    """Provenance of one run; see the module docstring for the schema."""

    seed: Optional[int] = None
    config: Dict[str, Any] = field(default_factory=dict)
    engine: Optional[str] = None
    git_rev: Optional[str] = None
    host: str = ""
    platform: str = ""
    python_version: str = ""
    numpy_version: Optional[str] = None
    argv: list = field(default_factory=list)
    created_utc: str = ""
    elapsed_s: Optional[float] = None
    peak_rss_bytes: Optional[int] = None
    artifact_sha256: Optional[str] = None
    trace_id: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def capture(
        cls,
        *,
        seed: Optional[int] = None,
        config: Optional[Dict[str, Any]] = None,
        engine: Optional[str] = None,
        elapsed_s: Optional[float] = None,
        trace_id: Optional[str] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> "RunManifest":
        """A manifest with the environment fields filled in now."""
        try:
            import numpy as np

            numpy_version: Optional[str] = np.__version__
        except ImportError:  # pragma: no cover - numpy is a hard dep today
            numpy_version = None
        return cls(
            seed=seed,
            config=dict(config or {}),
            engine=engine,
            git_rev=git_revision(),
            host=_platform.node(),
            platform=_platform.platform(),
            python_version=_platform.python_version(),
            numpy_version=numpy_version,
            argv=list(sys.argv),
            created_utc=datetime.datetime.now(datetime.timezone.utc)
            .replace(microsecond=0)
            .isoformat()
            .replace("+00:00", "Z"),
            elapsed_s=elapsed_s,
            peak_rss_bytes=peak_rss_bytes(),
            trace_id=trace_id,
            extra=dict(extra or {}),
        )

    def to_dict(self) -> dict:
        return {"format": FORMAT, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def digest(self) -> str:
        """SHA-256 of the manifest's canonical JSON.

        Uses the shared :mod:`repro.store.canonical` serializer (sorted
        keys, exact float repr, NaN rejected), so the digest is a stable
        identity for the manifest content — insertion order of ``config``
        or ``extra`` dicts never changes it.
        """
        return _canonical_digest(self.to_dict())

    def write(self, path: PathLike) -> pathlib.Path:
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json(), encoding="utf-8")
        return target

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        data = json.loads(text)
        if data.pop("format", FORMAT) != FORMAT:
            raise ValueError("not a repro run manifest")
        return cls(**data)


def manifest_path_for(artifact_path: PathLike) -> pathlib.Path:
    """Where the manifest for ``artifact_path`` lives.

    ``results/sweep.json`` -> ``results/sweep.manifest.json`` (the
    artifact's own extension is dropped so re-renders of the same run
    share one manifest namespace).
    """
    artifact = pathlib.Path(artifact_path)
    return artifact.with_name(artifact.stem + ".manifest.json")


def _versioned_manifest_path(target: pathlib.Path) -> pathlib.Path:
    """The first free ``<stem>.<k>.json`` slot next to ``target``."""
    stem = target.name[: -len(".json")] if target.name.endswith(".json") else target.name
    k = 1
    while True:
        candidate = target.with_name(f"{stem}.{k}.json")
        if not candidate.exists():
            return candidate
        k += 1


def write_manifest_alongside(
    artifact_path: PathLike, **capture_kwargs: Any
) -> pathlib.Path:
    """Capture a manifest and write it next to ``artifact_path``.

    The manifest records the artifact's SHA-256 (``artifact_sha256``).
    When a manifest already exists at the target path and describes a
    *different* artifact content, that manifest belonged to a previous
    run — it is preserved under a versioned name
    (``<stem>.manifest.<k>.json``) and a :class:`UserWarning` is emitted
    instead of silently losing the provenance of the earlier results.
    Re-writes for unchanged artifact content (re-renders of the same
    run) overwrite in place, as before.
    """
    artifact = pathlib.Path(artifact_path)
    artifact_hash = sha256_file(artifact) if artifact.is_file() else None
    manifest = RunManifest.capture(**capture_kwargs)
    manifest.artifact_sha256 = artifact_hash
    target = manifest_path_for(artifact)
    if target.exists():
        try:
            previous = RunManifest.from_json(
                target.read_text(encoding="utf-8")
            )
            previous_hash = previous.artifact_sha256
        except (OSError, ValueError, TypeError):
            previous_hash = None
        if previous_hash != artifact_hash:
            preserved = _versioned_manifest_path(target)
            target.rename(preserved)
            warnings.warn(
                f"manifest {target} described different artifact content "
                f"(a previous run?); preserved it as {preserved.name}",
                UserWarning,
                stacklevel=2,
            )
    return manifest.write(target)
