"""Shared trial logic for the reproduction experiments.

One *trial* deploys a fresh random network at a given inter-tag range and
runs the three evaluated protocols over it — SICP (ID collection), one
GMLE-CCM session, one TRP-CCM session — reporting the paper's metrics:
execution slots, and max/avg bits sent/received per tag.  The figure and
table experiments are thin sweeps over this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.sim.trace import SessionTracer

import numpy as np

from repro.core.batch import run_session_batch
from repro.core.session import CCMConfig, SessionResult, run_session
from repro.net.channel import LossyChannel
from repro.net.topology import Network, PaperDeployment, paper_network
from repro.obs import metrics as obs_metrics
from repro.protocols.sicp import SICPParams, run_sicp
from repro.protocols.transport import frame_picks
from repro.sim.parallel import ProgressFn
from repro.sim.plan import RunPlan
from repro.sim.runner import SweepResult, TrialFn, sweep

from repro.experiments import paperconfig as cfg

PROTOCOLS = ("sicp", "gmle_ccm", "trp_ccm")

#: metric name -> EnergyLedger summary key
ENERGY_METRICS = ("max_sent", "max_received", "avg_sent", "avg_received")


def run_ccm_application(
    network: Network,
    frame_size: int,
    participation: float,
    seed: int,
    engine: str = "auto",
) -> Dict[str, float]:
    """One CCM session (the per-table unit of cost for GMLE/TRP) -> metrics."""
    picks = frame_picks(network.tag_ids, frame_size, participation, seed)
    result = run_session(
        network, picks, config=CCMConfig(frame_size=frame_size), engine=engine
    )
    metrics = {"slots": float(result.total_slots), "rounds": float(result.rounds)}
    metrics.update(result.ledger.summary())
    return metrics


def run_sicp_application(network: Network, seed: int) -> Dict[str, float]:
    """One SICP collection -> the same metric set."""
    result = run_sicp(network, params=SICPParams(), seed=seed)
    metrics = {
        "slots": float(result.total_slots),
        "rounds": float(result.tree.max_depth()),
    }
    metrics.update(result.ledger.summary())
    metrics["collected"] = float(len(result.collected_ids))
    return metrics


def paper_trial_metrics(
    tag_range: float,
    n_tags: int,
    seed: int,
    protocols: Sequence[str] = PROTOCOLS,
    engine: str = "auto",
) -> Dict[str, float]:
    """Deploy one network and run the selected protocols on it.

    Metric keys are ``<protocol>_<metric>`` plus topology facts
    (``tiers``, ``reachable``).
    """
    obs = obs_metrics.OBS
    with obs.span("deploy"):
        network = paper_network(
            tag_range, n_tags=n_tags, seed=seed,
            deployment=PaperDeployment(n_tags=n_tags),
        )
    metrics: Dict[str, float] = {
        "tiers": float(network.num_tiers),
        "reachable": float(network.reachable_mask.sum()),
    }
    for name in protocols:
        with obs.span(f"protocol:{name}"):
            if name == "sicp":
                sub = run_sicp_application(network, seed=seed + 11)
            elif name == "gmle_ccm":
                sub = run_ccm_application(
                    network,
                    cfg.GMLE_FRAME_SIZE,
                    cfg.gmle_participation(n_tags),
                    seed=seed + 22,
                    engine=engine,
                )
            elif name == "trp_ccm":
                sub = run_ccm_application(
                    network, cfg.trp_frame_for(n_tags), 1.0, seed=seed + 33,
                    engine=engine,
                )
            else:
                raise ValueError(f"unknown protocol {name!r}")
        for key, value in sub.items():
            metrics[f"{name}_{key}"] = value
    return metrics


@dataclass(frozen=True)
class PaperTrial:
    """One deployment-and-protocols trial as a *picklable* callable.

    The process-backend executor pickles the trial function into its
    workers, which a closure cannot survive — this dataclass carries the
    same parameters as plain fields and is importable by module path, so
    the paper's campaigns run on every backend.
    """

    tag_range: float
    n_tags: int
    protocols: Tuple[str, ...] = PROTOCOLS
    engine: str = "auto"

    def __call__(self, trial_index: int, seed: int) -> Dict[str, float]:
        return paper_trial_metrics(
            self.tag_range, self.n_tags, seed, self.protocols, self.engine
        )


def make_trial(
    tag_range: float,
    n_tags: int,
    protocols: Sequence[str] = PROTOCOLS,
    engine: str = "auto",
) -> TrialFn:
    """Build a :mod:`repro.sim.runner` trial function for one range."""
    return PaperTrial(tag_range, n_tags, tuple(protocols), engine)


#: Built topologies, keyed by the deployment parameters that determine
#: them.  A process builds each network once and reuses it for every
#: trial of the campaign; forked workers inherit the parent's entries,
#: spawned workers build their own.
_TOPOLOGY_CACHE: Dict[Tuple, Network] = {}


@dataclass(frozen=True)
class SessionBatchTrial:
    """One CCM session over a *fixed* topology — batchable and cacheable.

    The paper's campaigns repeat a session question over many trials that
    share one deployment; this trial keeps the topology fixed (seeded by
    ``topology_seed``) and varies only the per-trial randomness (slot
    picks, participation draws, channel losses).  It exposes the
    :meth:`run_batch` hook, so a :class:`~repro.sim.parallel.Campaign`
    with ``plan=RunPlan(batch=B)`` stacks B trials into one
    :func:`~repro.core.batch.run_session_batch` call — bit-identical to
    the per-trial path under the ``repro-batch-rng-v1`` contract
    (each trial's generator draws its slot picks first, then its channel
    losses, regardless of which path runs it).

    The topology travels by its parameters, not by value: unless
    ``network`` pins a concrete object (pickled with every task), the
    network is built from the deployment fields once per process and
    cached.  ``network`` never enters the result-store content address —
    :meth:`cache_config` canonicalizes only the parameters that
    *determine* the topology and trial physics.
    """

    tag_range: float
    n_tags: int
    frame_size: int
    participation: float = 1.0
    loss: float = 0.0
    topology_seed: int = 0
    engine: str = "packed"
    field_radius: float = 30.0
    reader_range: float = 30.0
    tag_to_reader_range: float = 20.0
    network: Optional[Network] = field(
        default=None, compare=False, repr=False
    )

    def cache_config(self) -> Dict[str, object]:
        """The content-address fields: physics only, no transport handles."""
        return {
            "kind": "session_batch_trial",
            "tag_range": self.tag_range,
            "n_tags": self.n_tags,
            "frame_size": self.frame_size,
            "participation": self.participation,
            "loss": self.loss,
            "topology_seed": self.topology_seed,
            "field_radius": self.field_radius,
            "reader_range": self.reader_range,
            "tag_to_reader_range": self.tag_to_reader_range,
        }

    def _deployment(self) -> PaperDeployment:
        return PaperDeployment(
            n_tags=self.n_tags,
            field_radius=self.field_radius,
            reader_to_tag_range=self.reader_range,
            tag_to_reader_range=self.tag_to_reader_range,
        )

    def _resolve_network(self) -> Network:
        if self.network is not None:
            return self.network
        key = (
            self.tag_range,
            self.n_tags,
            self.topology_seed,
            self.field_radius,
            self.reader_range,
            self.tag_to_reader_range,
        )
        net = _TOPOLOGY_CACHE.get(key)
        if net is None:
            net = paper_network(
                self.tag_range,
                n_tags=self.n_tags,
                seed=self.topology_seed,
                deployment=self._deployment(),
            )
            _TOPOLOGY_CACHE[key] = net
        return net

    def _config(self) -> CCMConfig:
        return CCMConfig(frame_size=self.frame_size)

    def _draw_picks(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Per-trial slot picks — the first draws on the trial generator.

        Every path draws the same two arrays in the same order (a
        participation uniform and a slot pick per tag, always both, so
        ``participation=1.0`` replays the same stream), leaving the
        generator positioned identically for any channel draws that
        follow.
        """
        p = rng.random(n)
        s = rng.integers(0, self.frame_size, size=n)
        return np.where(p < self.participation, s, -1)

    def _metrics(self, result: SessionResult) -> Dict[str, float]:
        metrics = {
            "slots": float(result.total_slots),
            "rounds": float(result.rounds),
            "busy_slots": float(result.bitmap.popcount()),
            "terminated_cleanly": float(result.terminated_cleanly),
        }
        metrics.update(result.ledger.summary())
        return metrics

    def session(
        self, seed: int, tracer: Optional[SessionTracer] = None
    ) -> SessionResult:
        """The session of the trial seeded ``seed`` (``tracer`` sees its events)."""
        network = self._resolve_network()
        rng = np.random.default_rng(int(seed))
        picks = self._draw_picks(rng, network.n_tags)
        lossy = self.loss > 0.0
        return run_session(
            network,
            picks,
            config=self._config(),
            channel=LossyChannel(loss=self.loss) if lossy else None,
            rng=rng if lossy else None,
            engine=self.engine,
            tracer=tracer,
        )

    def __call__(self, trial_index: int, seed: int) -> Dict[str, float]:
        return self._metrics(self.session(seed))

    def run_batch(
        self, indices: Sequence[int], seeds: Sequence[int]
    ) -> List[Dict[str, float]]:
        """All trials of one batch in a single batched-kernel call (the
        ``bigint`` engine runs each trial through the oracle instead)."""
        if self.engine == "bigint":
            return [self(i, s) for i, s in zip(indices, seeds)]
        network = self._resolve_network()
        rngs = [np.random.default_rng(int(s)) for s in seeds]
        picks_batch = [
            self._draw_picks(rng, network.n_tags) for rng in rngs
        ]
        lossy = self.loss > 0.0
        results = run_session_batch(
            network,
            picks_batch,
            self._config(),
            channel=LossyChannel(loss=self.loss) if lossy else None,
            rngs=rngs if lossy else None,
        )
        return [self._metrics(res) for res in results]


def sweep_tag_range(
    scale: cfg.ReproScale,
    protocols: Sequence[str] = PROTOCOLS,
    tag_ranges: Optional[Iterable[float]] = None,
    *,
    plan: Optional[RunPlan] = None,
    on_trial_done: Optional[ProgressFn] = None,
) -> SweepResult:
    """The paper's master sweep: every metric at every inter-tag range.

    Execution policy travels in ``plan`` (:class:`~repro.sim.plan.RunPlan`):
    ``plan.executor`` fans each range point's trials out over a worker
    pool (serial when absent — bit-identical either way), ``plan.store``
    memoizes every (range, trial) cell through the result cache —
    :class:`PaperTrial` is a frozen dataclass precisely so its config
    canonicalizes into the content address — ``plan.resume`` continues a
    killed campaign from whatever the store already holds, and
    ``plan.engine`` selects the session kernel.  ``on_trial_done``
    observes trial completions, e.g. a progress ticker.
    """
    plan = plan if plan is not None else RunPlan()
    ranges = tuple(tag_ranges if tag_ranges is not None else scale.tag_ranges)
    return sweep(
        parameter="tag_range_m",
        values=ranges,
        trial_factory=lambda r: make_trial(
            r, scale.n_tags, protocols, plan.engine
        ),
        n_trials=scale.n_trials,
        base_seed=scale.base_seed,
        on_trial_done=on_trial_done,
        plan=plan,
    )


def format_table(
    title: str,
    columns: Sequence[float],
    rows: Dict[str, Sequence[float]],
    paper_rows: Optional[Dict[str, Sequence[float]]] = None,
    col_label: str = "r",
) -> str:
    """Render a paper-style comparison table as fixed-width text."""
    width = 12
    header = f"{'':<22}" + "".join(
        f"{col_label}={c:g}".rjust(width) for c in columns
    )
    lines = [title, header]
    for name, values in rows.items():
        label = cfg.PROTOCOL_LABELS.get(name, name)
        line = f"{label + ' (measured)':<22}" + "".join(
            f"{v:,.1f}".rjust(width) for v in values
        )
        lines.append(line)
        if paper_rows and name in paper_rows:
            ref = paper_rows[name]
            line = f"{label + ' (paper)':<22}" + "".join(
                f"{v:,.1f}".rjust(width) for v in ref
            )
            lines.append(line)
    return "\n".join(lines)
