"""Campaign engine benchmark — serial vs parallel trial fan-out.

Timed unit: one process-backed campaign of paper trials (the fan-out the
engine exists for).  The emitted table records serial and parallel
wall-clock for the same campaign, and the test asserts the engine's core
contract: the parallel aggregates are bit-identical to the serial ones.

Speedup is *not* asserted — on a single-core CI box the process pool
only adds overhead; the numbers are recorded so multi-core runs can see
the scaling.
"""

import time

from repro.experiments.common import PaperTrial
from repro.sim.parallel import Campaign, ExecutorConfig
from repro.sim.plan import RunPlan
from repro.sim.runner import run_trials

N_TAGS = 800
N_TRIALS = 4
TAG_RANGE = 6.0
BASE_SEED = 42


def test_parallel_campaign_matches_serial(benchmark, emit):
    trial = PaperTrial(TAG_RANGE, N_TAGS)

    started = time.perf_counter()
    serial = run_trials(trial, N_TRIALS, BASE_SEED)
    serial_s = time.perf_counter() - started

    executor = ExecutorConfig(workers=2, backend="process")

    def parallel_campaign():
        return Campaign(
            trial, N_TRIALS, BASE_SEED, plan=RunPlan(executor=executor)
        ).run()

    result = benchmark(parallel_campaign)

    assert result.ok
    assert sorted(result.aggregates) == sorted(serial)
    for name, agg in serial.items():
        other = result.aggregates[name]
        for fld in ("mean", "std", "minimum", "maximum", "count"):
            assert getattr(agg, fld) == getattr(other, fld), (
                f"{name}.{fld} diverged between serial and parallel"
            )

    lines = [
        "Campaign engine — serial vs parallel wall-clock "
        f"(n={N_TAGS} tags × {N_TRIALS} trials, r={TAG_RANGE} m)",
        f"{'path':<28}{'wall-clock (s)':>16}",
        f"{'serial run_trials':<28}{serial_s:>16.3f}",
        f"{'process pool (2 workers)':<28}{result.elapsed_s:>16.3f}",
        "aggregates: bit-identical across paths (asserted)",
    ]
    emit("parallel_campaign", "\n".join(lines))
