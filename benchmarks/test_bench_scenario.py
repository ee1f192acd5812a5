"""Benchmark: motion vs. static scenario completion and energy.

Runs the scenario subsystem's motion comparison at the paper's scale
(n = 10,000, f = 1,671, r = 6 m): the static paper setup (always powered,
no mobility) against an aisle drive-by and a UAV lawnmower sweep, both
power-cycled at the -22 dBm activation threshold with 1 m inter-operation
tag drift.  Asserts the static row is a perfect baseline (completion 1.0,
fully powered, pinned to the plain engines by tests/test_scenario.py) and
that motion degrades completion — the honest cost of a mobile reader the
paper's fixed-reader evaluation never sees.

The rendered table is committed as ``benchmarks/output/scenario.txt``;
the machine-readable manifest as ``benchmarks/output/BENCH_scenario.json``
(``BENCH_history.ndjson`` records ``perfbench/run.py`` runs, not this
manifest).
CI runs a reduced-n smoke via ``REPRO_BENCH_SCENARIO_NTAGS``.
"""

from __future__ import annotations

import os
import pathlib
import time

from repro.experiments import paperconfig as cfg
from repro.experiments import scenario_motion
from repro.obs import RunManifest

PAPER_N_TAGS = 10_000
N_TAGS = int(os.environ.get("REPRO_BENCH_SCENARIO_NTAGS", PAPER_N_TAGS))
N_TRIALS = int(os.environ.get("REPRO_BENCH_SCENARIO_TRIALS", 3))
FRAME_SIZE = cfg.GMLE_FRAME_SIZE  # 1,671
TAG_RANGE_M = 6.0
N_OPERATIONS = 3
SPEED_MPS = 2.0
POWER_THRESHOLD_DBM = -22.0
MAX_STEP_M = 1.0
BASE_SEED = 90_210


def test_scenario_motion_vs_static(emit):
    started = time.perf_counter()
    rows = scenario_motion.run(
        trajectories=("static", "aisle", "uav"),
        n_tags=N_TAGS,
        tag_range=TAG_RANGE_M,
        frame_size=FRAME_SIZE,
        n_operations=N_OPERATIONS,
        speed_mps=SPEED_MPS,
        power_threshold_dbm=POWER_THRESHOLD_DBM,
        max_step_m=MAX_STEP_M,
        n_trials=N_TRIALS,
        base_seed=BASE_SEED,
    )
    elapsed = time.perf_counter() - started

    by_traj = {row.trajectory: row for row in rows}
    static = by_traj["static"]
    assert static.completion_rate == 1.0
    assert static.powered_fraction == 1.0
    for name in ("aisle", "uav"):
        moving = by_traj[name]
        assert moving.powered_fraction < 1.0
        assert moving.completion_rate <= static.completion_rate
        assert moving.avg_received_bits < static.avg_received_bits

    emit(
        "scenario",
        scenario_motion.report(rows)
        + f"\n(n = {N_TAGS:,}, f = {FRAME_SIZE:,}, r = {TAG_RANGE_M:g} m, "
        f"{N_OPERATIONS} ops x {N_TRIALS} trials, "
        f"threshold = {POWER_THRESHOLD_DBM:g} dBm, "
        f"step = {MAX_STEP_M:g} m; {elapsed:.1f}s)",
    )
    extra = {"elapsed_s": elapsed}
    for row in rows:
        extra[f"{row.trajectory}_completion_rate"] = row.completion_rate
        extra[f"{row.trajectory}_powered_fraction"] = row.powered_fraction
        extra[f"{row.trajectory}_avg_received_bits"] = row.avg_received_bits
        extra[f"{row.trajectory}_energy_uj_per_tag"] = row.energy_uj_per_tag
    RunManifest.capture(
        seed=BASE_SEED,
        config={
            "n_tags": N_TAGS,
            "frame_size": FRAME_SIZE,
            "tag_range_m": TAG_RANGE_M,
            "n_operations": N_OPERATIONS,
            "n_trials": N_TRIALS,
            "speed_mps": SPEED_MPS,
            "power_threshold_dbm": POWER_THRESHOLD_DBM,
            "max_step_m": MAX_STEP_M,
        },
        engine="scenario",
        elapsed_s=elapsed,
        extra=extra,
    ).write(
        pathlib.Path(__file__).parent / "output" / "BENCH_scenario.json"
    )
