"""Benchmark: binary record container vs canonical JSON on the store.

Two measurements, both on bitmap-heavy trial records (the shape the
``repro-record-bin-v1`` container was built for — word-aligned ledgers
dominate the payload):

1. **Codec throughput** — one encode+decode round trip through
   :func:`repro.store.binary.encode_record` /
   :func:`~repro.store.binary.decode_record` vs
   :func:`~repro.store.canonical.canonical_json` + ``json.loads`` on
   the same record.  The binary path must be >= 3x faster and >= 4x
   smaller on disk.
2. **Cache-hit read path** — 500 plain trial records read back key by
   key: through :class:`~repro.store.cache.ResultStore` from ``.bin``
   objects, and from canonical-JSON files this benchmark writes itself.
   The store no longer reads JSON, so :func:`_legacy_json_get` replays
   the retired JSON tier's hit path (a ``.bin`` probe that misses, then
   the JSON read, parse and key check) and ``json_read_seconds`` keeps
   measuring the same work it always did.  The binary path must never
   be slower than the JSON one it replaced.

The rendered comparison is committed as ``benchmarks/output/store.txt``;
the machine-readable record is ``benchmarks/output/BENCH_store.json``
(``BENCH_history.ndjson`` records ``perfbench/run.py`` runs, not this
manifest).
"""

from __future__ import annotations

import json
import pathlib
import random
import time

from repro.obs import RunManifest
from repro.store import ResultStore, WordBitmap, digest
from repro.store.binary import (
    RECORD_TYPE_TRIAL,
    decode_record,
    encode_record,
)
from repro.store.cache import RESULT_FORMAT, _entry
from repro.store.canonical import canonical_json

BASE_SEED = 42
N_BITMAPS = 4
BITMAP_BITS = 8192
CODEC_REPS = 30
N_RECORDS = 500
READ_REPS = 3
MIN_CODEC_SPEEDUP = 3.0
MIN_SIZE_RATIO = 4.0


def _bitmap_record(rng: random.Random) -> dict:
    """One trial record whose payload is dominated by word bitmaps."""
    ledgers = {}
    for i in range(N_BITMAPS):
        ledgers[f"ledger_{i}"] = WordBitmap.from_int(
            BITMAP_BITS, rng.getrandbits(BITMAP_BITS)
        )
    key_fields = {
        "schema": RESULT_FORMAT,
        "trial": {"type": "BitmapTrial", "config": {"nbits": BITMAP_BITS}},
        "seed": rng.randrange(2**31),
    }
    return {
        "format": RESULT_FORMAT,
        "key": digest(key_fields),
        "key_fields": key_fields,
        "metrics": {f"m{i}": rng.random() for i in range(8)},
        "provenance": {"created_utc": "2026-01-01T00:00:00Z", **ledgers},
    }


def _json_path(root: pathlib.Path, key: str) -> pathlib.Path:
    """Where a pre-binary store kept ``key``'s canonical-JSON record."""
    return root / key[:2] / f"{key}.json"


def _legacy_json_get(root: pathlib.Path, key: str):
    """One cache hit as the retired JSON tier served it."""
    path = _json_path(root, key)
    try:
        path.with_suffix(".bin").read_bytes()  # the binary tier came first
    except OSError:
        pass
    raw = path.read_bytes()
    return _entry(path, json.loads(raw), len(raw))


def _scalar_metrics(rng: random.Random) -> dict:
    return {f"metric_{i}": rng.random() * 100.0 for i in range(8)}


def test_binary_store_throughput(tmp_path, emit):
    rng = random.Random(BASE_SEED)
    record = _bitmap_record(rng)

    # -- codec round trip: encode + decode, both formats -----------------
    started = time.perf_counter()
    for _ in range(CODEC_REPS):
        blob = encode_record(record, RECORD_TYPE_TRIAL)
        decode_record(blob)
    bin_codec_s = time.perf_counter() - started
    bin_bytes = len(blob)

    started = time.perf_counter()
    for _ in range(CODEC_REPS):
        text = canonical_json(record)
        json.loads(text)
    json_codec_s = time.perf_counter() - started
    json_bytes = len(text.encode("utf-8"))

    codec_speedup = json_codec_s / max(bin_codec_s, 1e-9)
    size_ratio = json_bytes / max(bin_bytes, 1)
    assert bin_bytes <= json_bytes

    # the binary container must round-trip to the same value the JSON
    # path canonicalises to (bitmaps come back as WordBitmap)
    decoded, rtype = decode_record(encode_record(record, RECORD_TYPE_TRIAL))
    assert rtype == RECORD_TYPE_TRIAL
    assert canonical_json(decoded) == text

    # -- cache-hit read path: 500 records per format ---------------------
    store = ResultStore(tmp_path / "bin")
    json_dir = tmp_path / "json"
    rng = random.Random(BASE_SEED)
    keys = []
    for i in range(N_RECORDS):
        key_fields = {"trial": {"type": "ReadPathTrial"}, "index": i}
        key = digest(key_fields)
        keys.append(key)
        metrics = _scalar_metrics(rng)
        provenance = {"created_utc": "2026-01-01T00:00:00Z"}
        store.put(key, key_fields, metrics, provenance)
        json_path = _json_path(json_dir, key)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(
            canonical_json({
                "format": RESULT_FORMAT,
                "key": key,
                "key_fields": key_fields,
                "metrics": metrics,
                "provenance": provenance,
            }) + "\n",
            encoding="utf-8",
        )

    read_s = {}
    started = time.perf_counter()
    for _ in range(READ_REPS):
        for key in keys:
            assert store.get_record(key) is not None
    read_s["bin"] = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(READ_REPS):
        for key in keys:
            entry = _legacy_json_get(json_dir, key)
            assert entry is not None and entry.key == key
    read_s["json"] = time.perf_counter() - started
    stored_bytes = {
        "bin": store.stats().total_bytes,
        "json": sum(p.stat().st_size for p in json_dir.glob("*/*.json")),
    }
    assert stored_bytes["bin"] <= stored_bytes["json"]
    read_speedup = read_s["json"] / max(read_s["bin"], 1e-9)

    lines = [
        "Result store — repro-record-bin-v1 vs canonical JSON "
        f"({N_BITMAPS}x{BITMAP_BITS}-bit ledgers, "
        f"{N_RECORDS} read-path records)",
        f"{'path':<34}{'binary':>12}{'json':>12}{'ratio':>8}",
        f"{'codec encode+decode (s)':<34}{bin_codec_s:>12.4f}"
        f"{json_codec_s:>12.4f}{codec_speedup:>7.1f}x",
        f"{'record size (bytes)':<34}{bin_bytes:>12}{json_bytes:>12}"
        f"{size_ratio:>7.1f}x",
        f"{'cache-hit reads (s)':<34}{read_s['bin']:>12.4f}"
        f"{read_s['json']:>12.4f}{read_speedup:>7.1f}x",
        f"{'store bytes (500 trials)':<34}{stored_bytes['bin']:>12}"
        f"{stored_bytes['json']:>12}"
        f"{stored_bytes['json'] / stored_bytes['bin']:>7.1f}x",
    ]
    emit("store", "\n".join(lines))
    RunManifest.capture(
        seed=BASE_SEED,
        config={
            "n_bitmaps": N_BITMAPS,
            "bitmap_bits": BITMAP_BITS,
            "codec_reps": CODEC_REPS,
            "n_records": N_RECORDS,
        },
        engine="binary-vs-json",
        elapsed_s=bin_codec_s + json_codec_s + sum(read_s.values()),
        extra={
            "codec_speedup": codec_speedup,
            "size_ratio": size_ratio,
            "bin_record_bytes": float(bin_bytes),
            "json_record_bytes": float(json_bytes),
            "bin_read_seconds": read_s["bin"],
            "json_read_seconds": read_s["json"],
            "read_speedup": read_speedup,
            "bin_store_bytes": float(stored_bytes["bin"]),
            "json_store_bytes": float(stored_bytes["json"]),
        },
    ).write(pathlib.Path(__file__).parent / "output" / "BENCH_store.json")

    assert codec_speedup >= MIN_CODEC_SPEEDUP, (
        f"binary codec only {codec_speedup:.1f}x faster; "
        f"expected >= {MIN_CODEC_SPEEDUP}x"
    )
    assert size_ratio >= MIN_SIZE_RATIO, (
        f"binary record only {size_ratio:.1f}x smaller; "
        f"expected >= {MIN_SIZE_RATIO}x"
    )
    # Hit-path guard: only meaningful when the JSON loop took long
    # enough for the ratio to be signal rather than scheduler noise.
    if read_s["json"] >= 0.05:
        assert read_s["bin"] <= read_s["json"] * 1.25, (
            f"binary hit path slower than JSON: "
            f"{read_s['bin']:.4f}s vs {read_s['json']:.4f}s"
        )
