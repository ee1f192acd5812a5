"""Benchmark: the vectorized kernel at B = 1 vs the bigint oracle.

Runs the *same* GMLE-style session (f = 1,671, p = 1.59 f/n, r = 6 m) on
the batched kernel as a single session (``engine="packed"``) and on the
scalar big-int engine, asserts the results are bit-identical, and
records the speedup.  At the paper's n = 10,000 the kernel must be at
least 5× faster than the big-int reference; CI runs a reduced-n smoke
version via ``REPRO_BENCH_ENGINE_NTAGS`` where only the equivalence is
asserted (small sessions don't amortise the vectorisation overhead).

The rendered comparison is committed as ``benchmarks/output/engine.txt``;
a machine-readable run manifest (engine wall seconds and speedup under
``extra``) is written alongside as ``benchmarks/output/BENCH_engine.json``
— the committed baseline that observability-overhead checks compare
against.
"""

from __future__ import annotations

import os
import pathlib
import time

from repro.core.session import CCMConfig, run_session
from repro.experiments import paperconfig as cfg
from repro.net.topology import PaperDeployment, paper_network
from repro.obs import RunManifest
from repro.protocols.transport import frame_picks

PAPER_N_TAGS = 10_000
N_TAGS = int(os.environ.get("REPRO_BENCH_ENGINE_NTAGS", PAPER_N_TAGS))
FRAME_SIZE = cfg.GMLE_FRAME_SIZE  # 1,671
TAG_RANGE_M = 6.0
MIN_SPEEDUP = 5.0


def _run(network, picks, engine: str):
    started = time.perf_counter()
    result = run_session(
        network, picks, config=CCMConfig(frame_size=FRAME_SIZE), engine=engine
    )
    return result, time.perf_counter() - started


def test_engine_speedup(emit):
    network = paper_network(
        TAG_RANGE_M,
        n_tags=N_TAGS,
        seed=99,
        deployment=PaperDeployment(n_tags=N_TAGS),
    )
    picks = frame_picks(
        network.tag_ids, FRAME_SIZE, cfg.gmle_participation(N_TAGS), seed=42
    )

    # Warm-up outside the timed runs (imports, allocator, BLAS threads).
    _run(network, picks, "packed")

    bigint, t_bigint = _run(network, picks, "bigint")
    packed, t_packed = _run(network, picks, "packed")

    assert packed.bitmap.bits == bigint.bitmap.bits
    assert packed.rounds == bigint.rounds
    assert packed.slots == bigint.slots
    assert packed.round_stats == bigint.round_stats
    assert float(packed.ledger.bits_sent.sum()) == float(
        bigint.ledger.bits_sent.sum()
    )
    assert float(packed.ledger.bits_received.sum()) == float(
        bigint.ledger.bits_received.sum()
    )

    speedup = t_bigint / max(t_packed, 1e-9)
    lines = [
        "Session engine comparison — one GMLE-CCM session "
        f"(n = {N_TAGS:,}, f = {FRAME_SIZE:,}, r = {TAG_RANGE_M:g} m)",
        f"{'engine':<16}{'seconds':>12}{'rounds':>10}{'busy slots':>12}",
        f"{'bigint':<16}{t_bigint:>12.3f}{bigint.rounds:>10}"
        f"{bigint.bitmap.popcount():>12,}",
        f"{'kernel (B = 1)':<16}{t_packed:>12.3f}{packed.rounds:>10}"
        f"{packed.bitmap.popcount():>12,}",
        f"speedup: {speedup:.1f}x  (bit-identical results)",
    ]
    emit("engine", "\n".join(lines))
    RunManifest.capture(
        seed=99,
        config={
            "n_tags": N_TAGS,
            "frame_size": FRAME_SIZE,
            "tag_range_m": TAG_RANGE_M,
            "participation": cfg.gmle_participation(N_TAGS),
        },
        engine="packed-vs-bigint",
        elapsed_s=t_bigint + t_packed,
        extra={
            "bigint_seconds": t_bigint,
            "packed_seconds": t_packed,
            "speedup": speedup,
            "rounds": packed.rounds,
            "busy_slots": packed.bitmap.popcount(),
        },
    ).write(pathlib.Path(__file__).parent / "output" / "BENCH_engine.json")

    if N_TAGS >= PAPER_N_TAGS:
        assert speedup >= MIN_SPEEDUP, (
            f"kernel at B = 1 only {speedup:.1f}x faster than bigint "
            f"at n={N_TAGS}; expected >= {MIN_SPEEDUP}x"
        )
