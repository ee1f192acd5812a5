"""Benchmark: batched campaign dispatch vs per-trial process dispatch.

Runs the same 100-trial campaign (one fixed r = 6 m deployment at the
paper's n = 10,000, f = 1,671, p = 1.59 f/n) three ways through the
:class:`~repro.sim.parallel.Campaign` engine:

* **per-trial, network pickled per task** — the historical baseline:
  one task per trial through a process pool, the trial object carrying
  the ~30 MB network, re-pickled for every task;
* **per-trial, topology by parameters** — same dispatch, but the trial
  carries only the deployment parameters; the parent resolves the
  topology before the pool starts (as ``repro-ccm profile`` does), so
  forked workers inherit it and a spawned worker would build it once;
* **batched (B = 8), topology by parameters** — ``plan=RunPlan(batch=8)``
  stacks 8 trials per task into one
  :func:`~repro.core.batch.run_session_batch` call.

All three produce bit-identical per-trial metrics (asserted); at full
scale the batched mode must clear ``MIN_SPEEDUP`` trials/sec over
per-trial dispatch.  A headline n = 100,000 / 100-trial campaign (the
deployment scaled to constant tag density, the propagation step the
kernel picks by default) is appended to the manifest.
CI runs a reduced smoke version via ``REPRO_BENCH_BATCH_NTAGS`` /
``REPRO_BENCH_BATCH_TRIALS`` where only the equivalences are asserted
and the headline is skipped.

The rendered comparison is committed as ``benchmarks/output/batch.txt``;
the machine-readable manifest as ``benchmarks/output/BENCH_batch.json``.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pathlib
import time

from repro.experiments import paperconfig as cfg
from repro.experiments.common import SessionBatchTrial
from repro.obs import RunManifest
from repro.sim.parallel import Campaign, ExecutorConfig
from repro.sim.plan import RunPlan

PAPER_N_TAGS = 10_000
N_TAGS = int(os.environ.get("REPRO_BENCH_BATCH_NTAGS", PAPER_N_TAGS))
N_TRIALS = int(os.environ.get("REPRO_BENCH_BATCH_TRIALS", 100))
HEADLINE_N_TAGS = int(
    os.environ.get("REPRO_BENCH_BATCH_HEADLINE_NTAGS", 100_000)
)
HEADLINE_N_TRIALS = int(
    os.environ.get("REPRO_BENCH_BATCH_HEADLINE_TRIALS", 100)
)
FRAME_SIZE = cfg.GMLE_FRAME_SIZE  # 1,671
TAG_RANGE_M = 6.0
BATCH = 8
HEADLINE_BATCH = 10
CAMPAIGN_SEED = 2026
MIN_SPEEDUP = 3.0
FULL_SCALE = N_TAGS >= PAPER_N_TAGS


def _trial(n_tags: int, scale: float = 1.0) -> SessionBatchTrial:
    """A parameter-only trial, its topology resolved in this process."""
    trial = SessionBatchTrial(
        tag_range=TAG_RANGE_M,
        n_tags=n_tags,
        frame_size=FRAME_SIZE,
        participation=cfg.gmle_participation(n_tags),
        topology_seed=99,
        field_radius=30.0 * scale,
        reader_range=30.0 * scale,
        tag_to_reader_range=20.0 * scale,
    )
    trial._resolve_network()
    return trial


def _run(trial, plan: RunPlan, reps: int = 2):
    """Best-of-``reps`` campaign wall time (shields the committed numbers
    from one-off allocator/OS stalls); the result is identical across reps
    by construction, so any rep's metrics stand for all of them."""
    result = None
    best = math.inf
    for _ in range(reps):
        started = time.perf_counter()
        result = Campaign(trial, N_TRIALS, CAMPAIGN_SEED, plan=plan).run()
        best = min(best, time.perf_counter() - started)
        assert result.ok
    return result, best


def _headline_entry() -> dict:
    """The n = 100,000 / 100-trial batched campaign (constant density)."""
    scale = math.sqrt(HEADLINE_N_TAGS / PAPER_N_TAGS)
    trial = _trial(HEADLINE_N_TAGS, scale)
    started = time.perf_counter()
    result = Campaign(
        trial,
        HEADLINE_N_TRIALS,
        CAMPAIGN_SEED,
        plan=RunPlan(batch=HEADLINE_BATCH),
    ).run()
    elapsed = time.perf_counter() - started
    assert result.ok
    rounds = [m["rounds"] for m in result.per_trial]
    return {
        "n_tags": HEADLINE_N_TAGS,
        "n_trials": HEADLINE_N_TRIALS,
        "batch": HEADLINE_BATCH,
        "seconds": elapsed,
        "trials_per_s": HEADLINE_N_TRIALS / elapsed,
        "mean_rounds": sum(rounds) / len(rounds),
        "mean_busy_slots": sum(m["busy_slots"] for m in result.per_trial)
        / len(result.per_trial),
    }


def test_batched_campaign_speedup(emit):
    trial = _trial(N_TAGS)
    pool = ExecutorConfig(workers=1, backend="process")

    # Baseline: the trial drags the whole network through pickle per task.
    naive = dataclasses.replace(trial, network=trial._resolve_network())
    baseline, t_dispatch = _run(naive, RunPlan(executor=pool))
    by_params, t_params = _run(trial, RunPlan(executor=pool))
    batched, t_batched = _run(trial, RunPlan(batch=BATCH, executor=pool))

    # The whole point: three dispatch strategies, one set of bits.
    assert by_params.per_trial == baseline.per_trial
    assert batched.per_trial == baseline.per_trial
    assert batched.aggregates == baseline.aggregates

    speedup = t_dispatch / max(t_batched, 1e-9)
    headline = _headline_entry() if FULL_SCALE else None

    rows = [
        ("per-trial, network pickled per task", t_dispatch),
        ("per-trial, topology by parameters", t_params),
        (f"batched (B = {BATCH}), topology by parameters", t_batched),
    ]
    lines = [
        f"Campaign dispatch comparison — {N_TRIALS} trials "
        f"(n = {N_TAGS:,}, f = {FRAME_SIZE:,}, r = {TAG_RANGE_M:g} m, "
        "process pool, 1 worker, best of 2)",
        f"{'mode':<44}{'seconds':>10}{'trials/s':>10}",
    ]
    lines += [
        f"{name:<44}{secs:>10.2f}{N_TRIALS / secs:>10.2f}"
        for name, secs in rows
    ]
    lines.append(f"speedup: {speedup:.1f}x  (bit-identical per-trial metrics)")
    if headline is not None:
        lines.append(
            f"headline: n = {headline['n_tags']:,}, "
            f"{headline['n_trials']} trials in {headline['seconds']:.1f} s "
            f"({headline['trials_per_s']:.2f} trials/s, "
            f"B = {headline['batch']})"
        )
    emit("batch", "\n".join(lines))

    RunManifest.capture(
        seed=CAMPAIGN_SEED,
        config={
            "n_tags": N_TAGS,
            "n_trials": N_TRIALS,
            "frame_size": FRAME_SIZE,
            "tag_range_m": TAG_RANGE_M,
            "participation": cfg.gmle_participation(N_TAGS),
            "batch": BATCH,
        },
        engine="batch-campaign",
        elapsed_s=t_dispatch + t_params + t_batched,
        extra={
            "per_trial_dispatch_seconds": t_dispatch,
            "per_trial_by_params_seconds": t_params,
            "batched_seconds": t_batched,
            "per_trial_dispatch_trials_per_s": N_TRIALS / t_dispatch,
            "per_trial_by_params_trials_per_s": N_TRIALS / t_params,
            "batched_trials_per_s": N_TRIALS / t_batched,
            "speedup_vs_dispatch": speedup,
            "headline": headline,
        },
    ).write(pathlib.Path(__file__).parent / "output" / "BENCH_batch.json")

    if FULL_SCALE:
        assert speedup >= MIN_SPEEDUP, (
            f"batched campaign only {speedup:.1f}x faster than per-trial "
            f"dispatch at n={N_TAGS}; expected >= {MIN_SPEEDUP}x"
        )
