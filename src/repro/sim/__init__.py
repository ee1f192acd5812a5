"""Simulation support: deterministic RNG/hashing, trial running, results.

The tag-side randomness in CCM-based protocols must be *pseudo-random and
reproducible from (tag ID, seed)*: the reader predicts which slot each tag
hashes to (TRP) and whether a tag participates in a frame (GMLE).  The
:mod:`repro.sim.rng` module provides that hashing.  :mod:`repro.sim.runner`
runs repeated trials and parameter sweeps and aggregates their metrics;
:mod:`repro.sim.parallel` fans those campaigns out over worker
processes/threads with bit-identical results.
"""

from repro.sim.parallel import (
    Campaign,
    CampaignError,
    CampaignResult,
    CampaignTimeout,
    ExecutorConfig,
    TrialFailure,
    stderr_ticker,
)
from repro.sim.plan import ObsPlan, RunPlan, add_execution_arguments
from repro.sim.rng import (
    TagHasher,
    derive_seed,
    splitmix64,
    uniform_unit,
)
from repro.sim.results import (
    load_sweep,
    markdown_table,
    save_sweep,
    sweep_from_dict,
    sweep_to_csv,
    sweep_to_dict,
)
from repro.sim.runner import (
    MetricDict,
    SweepResult,
    TrialAggregate,
    TrialFn,
    aggregate_metrics,
    run_trials,
    sweep,
    trial_seed,
)
from repro.sim.trace import SessionTracer

__all__ = [
    "TagHasher",
    "derive_seed",
    "splitmix64",
    "uniform_unit",
    "Campaign",
    "CampaignError",
    "CampaignResult",
    "CampaignTimeout",
    "ExecutorConfig",
    "TrialFailure",
    "stderr_ticker",
    "ObsPlan",
    "RunPlan",
    "add_execution_arguments",
    "MetricDict",
    "SweepResult",
    "TrialAggregate",
    "TrialFn",
    "aggregate_metrics",
    "run_trials",
    "sweep",
    "trial_seed",
    "load_sweep",
    "markdown_table",
    "save_sweep",
    "sweep_from_dict",
    "sweep_to_csv",
    "sweep_to_dict",
    "SessionTracer",
]
