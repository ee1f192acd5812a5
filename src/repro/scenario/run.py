"""Scenario orchestration: operations on a shared timeline.

:func:`run_scenario` is the top-level entry point the experiment, CLI and
benchmarks drive.  It owns the whole ``repro-scenario-rng-v1`` draw order
(see :mod:`repro.scenario.events`): one Generator seeded once deploys the
field, moves the tags between operations, and feeds each session's
channel draws; slot picks come from hash streams and consume no draws.

The control flow is the discrete-event loop: an
:class:`~repro.scenario.events.EventScheduler` holds ``op_start`` /
``op_end`` / ``mobility`` events, each handler executes (running a CCM
session, applying :func:`~repro.net.mobility.displace` /
:func:`~repro.net.mobility.relocate_fraction`, scheduling the follow-on
event) and journals exactly one record — so the journal is a
byte-deterministic transcript of the run (same seed ⇒ ``==`` on
``journal.to_ndjson()``), with the engine's per-round records
interleaved at their absolute times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.session import CCMConfig, SessionResult
from repro.net.channel import Channel, LossyChannel, PerfectChannel
from repro.net.energy import EnergyLedger, TransceiverProfile
from repro.net.mobility import displace, relocate_fraction
from repro.net.timing import SlotTiming, default_slot_timing
from repro.net.topology import Network, PaperDeployment
from repro.obs import metrics as obs_metrics
from repro.protocols.transport import frame_picks
from repro.scenario.engine import ScenarioConfig, ScenarioSessionEngine
from repro.scenario.events import EventJournal, EventScheduler
from repro.scenario.power import LinkBudget
from repro.scenario.trajectory import ReaderTrajectory, make_trajectory
from repro.sim.rng import derive_seed

__all__ = ["OperationRecord", "ScenarioResult", "run_scenario"]

#: derive_seed stream label for per-operation slot picks.
_PICKS_STREAM = 0x5CE9


@dataclass
class OperationRecord:
    """Observables of one operation (one CCM session) in a scenario."""

    index: int
    t_start_s: float
    t_end_s: float
    rounds: int
    total_slots: int
    busy_slots: int
    participants: int
    terminated_cleanly: bool
    relinks: int
    powered_fraction_mean: float
    min_powered: int


@dataclass
class ScenarioResult:
    """Everything a scenario run produces.

    ``ledger`` accumulates energy across every operation (the paper's
    bits-sent/received view over the whole scenario); ``journal`` is the
    deterministic event transcript.
    """

    operations: List[OperationRecord]
    journal: EventJournal
    ledger: EnergyLedger
    duration_s: float
    n_tags: int
    frame_size: int
    session_results: List[SessionResult] = field(default_factory=list)

    @property
    def completion_rate(self) -> float:
        """Fraction of operations that terminated cleanly (no reachable
        tag left holding pending data — awake or asleep)."""
        if not self.operations:
            return 1.0
        return sum(
            1 for op in self.operations if op.terminated_cleanly
        ) / len(self.operations)

    def metrics(
        self, profile: Optional[TransceiverProfile] = None
    ) -> Dict[str, float]:
        """Flat float metrics for trial aggregation and manifests."""
        profile = profile or TransceiverProfile()
        ops = self.operations
        return {
            "completion_rate": float(self.completion_rate),
            "operations": float(len(ops)),
            "rounds_mean": (
                float(np.mean([op.rounds for op in ops])) if ops else 0.0
            ),
            "slots_total": float(sum(op.total_slots for op in ops)),
            "duration_s": float(self.duration_s),
            "avg_sent_bits": self.ledger.avg_sent(),
            "avg_received_bits": self.ledger.avg_received(),
            "max_received_bits": self.ledger.max_received(),
            "powered_fraction_mean": (
                float(np.mean([op.powered_fraction_mean for op in ops]))
                if ops
                else 1.0
            ),
            "relinks_total": float(sum(op.relinks for op in ops)),
            "energy_uj_per_tag": (
                1e6
                * self.ledger.total_energy(profile)
                / max(self.n_tags, 1)
            ),
        }


def run_scenario(
    *,
    n_tags: int = 10_000,
    tag_range: float = 6.0,
    frame_size: int = 1671,
    participation: float = 1.0,
    n_operations: int = 3,
    op_gap_s: float = 30.0,
    trajectory: Union[str, ReaderTrajectory] = "static",
    speed_mps: float = 2.0,
    power_threshold_dbm: Optional[float] = None,
    link_budget: Optional[LinkBudget] = None,
    max_step_m: float = 0.0,
    relocate_frac: float = 0.0,
    loss: float = 0.0,
    seed: int = 0,
    deployment: Optional[PaperDeployment] = None,
    timing: Optional[SlotTiming] = None,
    max_rounds: Optional[int] = None,
    channel: Optional[Channel] = None,
) -> ScenarioResult:
    """Run one scenario: ``n_operations`` CCM sessions on a shared clock.

    ``trajectory`` is a name (``static``/``aisle``/``uav``/``waypoint``)
    scaled to the deployment, or an explicit
    :class:`~repro.scenario.trajectory.ReaderTrajectory`.
    ``power_threshold_dbm`` is the convenience form of ``link_budget``
    (a default :class:`~repro.scenario.power.LinkBudget` at that
    threshold); ``None`` for both means always-powered.  ``max_step_m``
    and ``relocate_frac`` drive tag mobility *between* operations
    (Sec. II: tags are stationary during an operation).

    All randomness is a pure function of ``seed`` under the
    ``repro-scenario-rng-v1`` contract — equal calls produce
    byte-identical journals and metrics.
    """
    if n_operations <= 0:
        raise ValueError("n_operations must be positive")
    if not 0.0 <= participation <= 1.0:
        raise ValueError("participation must be in [0, 1]")
    if not (math.isfinite(op_gap_s) and op_gap_s >= 0):
        raise ValueError(
            f"op_gap_s must be finite and non-negative, got {op_gap_s!r}"
        )

    obs = obs_metrics.OBS
    dep = deployment or PaperDeployment(n_tags=n_tags)
    gen = np.random.default_rng(seed)
    timing = timing or default_slot_timing()

    if isinstance(trajectory, str):
        traj: ReaderTrajectory = make_trajectory(
            trajectory, field_radius=dep.field_radius, speed_mps=speed_mps
        )
    else:
        traj = trajectory
    if link_budget is None and power_threshold_dbm is not None:
        link_budget = LinkBudget(threshold_dbm=power_threshold_dbm)
    if channel is None:
        channel = LossyChannel(loss) if loss > 0.0 else PerfectChannel()

    from repro.net.geometry import uniform_disk

    positions = uniform_disk(dep.n_tags, dep.field_radius, rng=gen)
    net = Network.build(positions, [dep.reader()], tag_range)

    journal = EventJournal()
    sched = EventScheduler()
    ledger = EnergyLedger(net.n_tags)
    config = CCMConfig(frame_size=frame_size, max_rounds=max_rounds)
    operations: List[OperationRecord] = []
    session_results: List[SessionResult] = []
    end_time = 0.0

    journal.record(
        0.0,
        "scenario_start",
        contract="repro-scenario-rng-v1",
        n_tags=net.n_tags,
        tag_range=tag_range,
        frame_size=frame_size,
        n_operations=n_operations,
        trajectory=type(traj).__name__,
        powered_radius_m=(
            link_budget.powered_radius_m()
            if link_budget is not None and not link_budget.always_powered
            else None
        ),
        seed=seed,
    )
    sched.push(0.0, "op_start", op=1)

    with obs.span("scenario"):
        while sched:
            event = sched.pop()
            if event.kind == "op_start":
                k = event.payload["op"]
                picks = frame_picks(
                    net.tag_ids, frame_size, participation,
                    derive_seed(seed, _PICKS_STREAM, k),
                )
                participants = int(np.count_nonzero(picks >= 0))
                journal.record(
                    event.time_s, "op_start", op=k, participants=participants
                )
                engine = ScenarioSessionEngine(
                    ScenarioConfig(
                        trajectory=traj,
                        link_budget=link_budget,
                        timing=timing,
                        start_time_s=event.time_s,
                    )
                )
                engine.journal = journal
                with obs.span("scenario_op"):
                    result = engine.run(
                        net, picks[:, None], config, channel=channel,
                        rng=gen, ledger=ledger,
                    )
                obs.inc("scenario_operations_total")
                info = engine.last_run_info
                t_end = info["end_time_s"]
                operations.append(
                    OperationRecord(
                        index=k,
                        t_start_s=event.time_s,
                        t_end_s=t_end,
                        rounds=result.rounds,
                        total_slots=result.total_slots,
                        busy_slots=result.bitmap.popcount(),
                        participants=participants,
                        terminated_cleanly=result.terminated_cleanly,
                        relinks=info["relinks"],
                        powered_fraction_mean=info["powered_fraction_mean"],
                        min_powered=info["min_powered"],
                    )
                )
                session_results.append(result)
                sched.push(
                    t_end,
                    "op_end",
                    op=k,
                    rounds=result.rounds,
                    clean=result.terminated_cleanly,
                    busy_slots=result.bitmap.popcount(),
                )
            elif event.kind == "op_end":
                k = event.payload["op"]
                journal.record(event.time_s, "op_end", **event.payload)
                end_time = event.time_s
                if k < n_operations:
                    if max_step_m > 0.0 or relocate_frac > 0.0:
                        sched.push(
                            event.time_s + op_gap_s, "mobility", op=k + 1
                        )
                    else:
                        sched.push(
                            event.time_s + op_gap_s, "op_start", op=k + 1
                        )
            elif event.kind == "mobility":
                k = event.payload["op"]
                old = net.positions
                moved = old
                if max_step_m > 0.0:
                    moved = displace(
                        moved, max_step_m, dep.field_radius, rng=gen
                    )
                if relocate_frac > 0.0:
                    moved = relocate_fraction(
                        moved, relocate_frac, dep.field_radius, rng=gen
                    )
                with obs.span("scenario_mobility"):
                    net = Network.build(moved, [dep.reader()], tag_range)
                mean_step = float(
                    np.mean(np.hypot(*(moved - old).T))
                ) if old.size else 0.0
                journal.record(
                    event.time_s,
                    "mobility",
                    op=k,
                    mean_step_m=mean_step,
                    num_tiers=net.num_tiers,
                )
                obs.inc("scenario_mobility_events_total")
                sched.push(event.time_s, "op_start", op=k)
            else:  # pragma: no cover - no other kinds are scheduled
                raise RuntimeError(f"unhandled scenario event {event.kind!r}")

    journal.record(
        end_time,
        "scenario_end",
        operations=len(operations),
        clean_operations=sum(
            1 for op in operations if op.terminated_cleanly
        ),
    )
    return ScenarioResult(
        operations=operations,
        journal=journal,
        ledger=ledger,
        duration_s=end_time,
        n_tags=net.n_tags,
        frame_size=frame_size,
        session_results=session_results,
    )
