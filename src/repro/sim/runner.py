"""Trial running, parameter sweeps, and metric aggregation.

The paper's evaluation averages every data point over 100 independent
deployments (Sec. VI-A).  This module provides the scaffolding: a trial is
a function ``(trial_index, rng_seed) -> dict of metrics``; ``run_trials``
repeats it with derived seeds and aggregates each metric's mean/std/min/max;
``sweep`` maps that over a parameter axis (the paper's inter-tag range r).

Everything is deterministic given the base seed, and metrics are plain
dicts of floats so experiments stay decoupled from protocols.

Every trial runs through one :class:`~repro.sim.parallel.Campaign`
(``run_trials`` builds one per call); ``plan=RunPlan(executor=...)``
fans it out over worker processes/threads.  Every backend derives seeds
with :func:`trial_seed`, so the results are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.sim.parallel import ProgressFn
    from repro.sim.plan import RunPlan

MetricDict = Mapping[str, float]
TrialFn = Callable[[int, int], MetricDict]

#: Stream label separating the per-trial seed stream from other uses of
#: the base seed (the sweep axis uses a different label).
TRIAL_SEED_STREAM = 0x7121A1

#: Stream label mixed in when a failing trial is retried with a fresh seed.
_RETRY_STREAM = 0x7E7B


def trial_seed(base_seed: int, trial_index: int, attempt: int = 0) -> int:
    """The 32-bit seed for one trial of a campaign.

    This is the single definition of the campaign seed stream: every
    :mod:`repro.sim.parallel` backend calls it, which is what makes
    serial and parallel runs bit-identical.  ``attempt > 0``
    derives an independent retry seed (deterministic, so retried campaigns
    stay reproducible).
    """
    if attempt == 0:
        return derive_seed(base_seed, TRIAL_SEED_STREAM, trial_index) % (2**32)
    return derive_seed(
        base_seed, TRIAL_SEED_STREAM, trial_index, _RETRY_STREAM, attempt
    ) % (2**32)


@dataclass
class TrialAggregate:
    """Summary statistics of one metric across trials."""

    name: str
    mean: float
    std: float
    minimum: float
    maximum: float
    count: int

    @classmethod
    def from_samples(cls, name: str, samples: Sequence[float]) -> "TrialAggregate":
        if not samples:
            raise ValueError(f"no samples for metric {name!r}")
        n = len(samples)
        mean = sum(samples) / n
        # Sample (Bessel-corrected) variance: trials are independent draws
        # from the deployment distribution, so /(n-1) is the unbiased
        # estimator the "std across trials" docs promise.
        var = sum((s - mean) ** 2 for s in samples) / (n - 1) if n > 1 else 0.0
        return cls(
            name=name,
            mean=mean,
            std=math.sqrt(var),
            minimum=min(samples),
            maximum=max(samples),
            count=n,
        )


def aggregate_metrics(
    per_trial: Sequence[MetricDict],
) -> Dict[str, TrialAggregate]:
    """Aggregate a list of per-trial metric dicts, keyed by metric name.

    Every trial must report the same metric set — a missing key is a bug
    in the experiment, not data to be imputed, so it raises.
    """
    if not per_trial:
        raise ValueError("no trials to aggregate")
    keys = set(per_trial[0])
    for i, metrics in enumerate(per_trial):
        if set(metrics) != keys:
            raise ValueError(
                f"trial {i} reported metrics {sorted(metrics)} but trial 0 "
                f"reported {sorted(keys)}"
            )
    return {
        key: TrialAggregate.from_samples(key, [float(m[key]) for m in per_trial])
        for key in sorted(keys)
    }


def run_trials(
    trial_fn: TrialFn,
    n_trials: int,
    base_seed: int = 0,
    *,
    on_trial_done: "Optional[ProgressFn]" = None,
    plan: "Optional[RunPlan]" = None,
) -> Dict[str, TrialAggregate]:
    """Run ``trial_fn`` ``n_trials`` times with independent derived seeds.

    Execution options travel in ``plan=``
    (:class:`~repro.sim.plan.RunPlan`) — the only execution interface
    since the one-release deprecation shim for the per-keyword
    spellings was retired.

    It runs one :class:`~repro.sim.parallel.Campaign`: the default plan
    runs the trials serially on this thread, a plan with an
    :class:`~repro.sim.parallel.ExecutorConfig` fans them out over a
    process or thread pool, and the aggregates are bit-identical either
    way.  A trial failure raises
    :class:`~repro.sim.parallel.CampaignError` (carrying the structured
    :class:`~repro.sim.parallel.TrialFailure` records); use
    :class:`~repro.sim.parallel.Campaign` directly to tolerate partial
    failure.

    ``plan.store`` memoizes trials through a
    :class:`~repro.store.cache.ResultStore` (read-through before
    dispatch, write-through on success); already-computed trials are
    served from disk with bit-identical aggregates.  ``plan.resume``
    marks the run as the continuation of a killed campaign (the
    checkpoint journal is appended rather than truncated).
    ``plan.batch > 1`` stacks trials into batched kernel tasks for
    trial objects exposing ``run_batch``.
    """
    from repro.sim.parallel import Campaign, CampaignError

    result = Campaign(
        trial_fn,
        n_trials,
        base_seed,
        on_trial_done=on_trial_done,
        plan=plan,
    ).run()
    if result.failures:
        raise CampaignError(result.failures, result.aggregates)
    return result.aggregates


@dataclass
class SweepResult:
    """Aggregated metrics along one swept parameter axis."""

    parameter: str
    values: List[float]
    aggregates: List[Dict[str, TrialAggregate]] = field(default_factory=list)

    def series(self, metric: str, statistic: str = "mean") -> List[float]:
        """Extract one metric's statistic along the axis (a plot series)."""
        out = []
        for agg in self.aggregates:
            if metric not in agg:
                raise KeyError(f"metric {metric!r} not in sweep results")
            out.append(getattr(agg[metric], statistic))
        return out

    def metric_names(self) -> List[str]:
        return sorted(self.aggregates[0]) if self.aggregates else []

    def as_rows(self, metrics: Sequence[str]) -> List[List[float]]:
        """Table rows: one per metric, columns following the axis values."""
        return [self.series(m) for m in metrics]


def sweep(
    parameter: str,
    values: Iterable[float],
    trial_factory: Callable[[float], TrialFn],
    n_trials: int,
    base_seed: int = 0,
    *,
    on_trial_done: "Optional[ProgressFn]" = None,
    plan: "Optional[RunPlan]" = None,
) -> SweepResult:
    """Run ``n_trials`` trials at each parameter value.

    ``trial_factory(value)`` builds the trial function for one axis point;
    each point gets an independent seed stream derived from ``base_seed``
    and the point's index, so adding points never perturbs existing ones.
    ``plan``/``on_trial_done`` are forwarded to :func:`run_trials` for
    each point (parallelism and memoization are at the trial level,
    within a point — every point's trial function has its own config, so
    points never collide in the store).
    """
    from repro.obs import metrics as obs_metrics

    obs = obs_metrics.OBS
    result = SweepResult(parameter=parameter, values=[])
    for idx, value in enumerate(values):
        trial_fn = trial_factory(value)
        with obs.span("sweep_point"):
            agg = run_trials(
                trial_fn,
                n_trials,
                base_seed=derive_seed(base_seed, 0x5EE9, idx) % (2**32),
                on_trial_done=on_trial_done,
                plan=plan,
            )
        obs.inc("sweep_points_total")
        obs.inc("sweep_trials_total", n_trials)
        result.values.append(float(value))
        result.aggregates.append(agg)
    return result
