"""``repro.store`` — content-addressed experiment memoization.

The persistence subsystem behind ``--cache``/``--resume``: every trial
result is a pure function of (trial config, trial index, derived seed,
engine id, simulator code fingerprint), so it is stored once under a
canonical digest of exactly those fields and served from disk forever
after.  Five modules:

* :mod:`repro.store.canonical` — the canonical JSON serializer + digest
  shared with :mod:`repro.obs.manifest` (sorted keys, exact float repr,
  NaN rejected).  Canonical JSON is the *addressing* format: every key
  and digest is computed from it, whatever the payload encoding.
* :mod:`repro.store.binary` — the ``repro-record-bin-v1`` compact
  binary container (CRC-protected header, typed fields, raw uint64-word
  bitmap payloads) that trial records, checkpoint journals and serve job
  records are stored in.
* :mod:`repro.store.fingerprint` — the source hash of ``repro.core`` /
  ``repro.protocols`` / ``repro.net`` / ``repro.scenario`` that
  invalidates the cache when the simulator (or the binary record
  format) changes.
* :mod:`repro.store.cache` — :class:`ResultStore`: atomic one-file-per-
  trial records under ``~/.cache/repro`` (or ``--cache-dir``), plus
  ``stats``/``verify``/``gc`` maintenance.
* :mod:`repro.store.checkpoint` — append-only campaign journals that
  make killed campaigns resumable and record aggregate digests.

Quick start::

    from repro.store import ResultStore
    from repro.sim.parallel import Campaign
    from repro.sim.plan import RunPlan

    store = ResultStore()                      # ~/.cache/repro
    plan = RunPlan(store=store)
    result = Campaign(trial, 100, seed, plan=plan).run()
    result.cache_hits                          # 100 on the second run

See ``docs/caching.md`` for key composition, invalidation rules, resume
semantics, the binary record layout and the gc policy.
"""

from repro.store.binary import (
    BINARY_FORMAT,
    BinaryFormatError,
    WordBitmap,
    decode_record,
    encode_record,
    read_record_path,
    write_record,
)
from repro.store.cache import (
    KEY_SCHEMA,
    RESULT_FORMAT,
    CacheEntry,
    ResultStore,
    StoreLock,
    StoreStats,
    VerifyOutcome,
    default_cache_dir,
    trial_config_of,
    trial_key,
)
from repro.store.canonical import (
    canonical_bytes,
    canonical_json,
    digest,
    sha256_file,
)
from repro.store.checkpoint import (
    CampaignCheckpoint,
    CheckpointState,
    campaign_key,
    validate_namespace,
)
from repro.store.fingerprint import FINGERPRINT_PACKAGES, code_fingerprint

__all__ = [
    "KEY_SCHEMA",
    "RESULT_FORMAT",
    "BINARY_FORMAT",
    "BinaryFormatError",
    "WordBitmap",
    "decode_record",
    "encode_record",
    "read_record_path",
    "write_record",
    "CacheEntry",
    "ResultStore",
    "StoreLock",
    "StoreStats",
    "VerifyOutcome",
    "default_cache_dir",
    "trial_config_of",
    "trial_key",
    "canonical_bytes",
    "canonical_json",
    "digest",
    "sha256_file",
    "CampaignCheckpoint",
    "CheckpointState",
    "campaign_key",
    "validate_namespace",
    "FINGERPRINT_PACKAGES",
    "code_fingerprint",
]
