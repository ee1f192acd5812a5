"""The scenario session engine: Algorithm 1 under motion and power-cycling.

:class:`ScenarioSessionEngine` runs the kernel of :mod:`repro.core.batch`
at B = 1 and supplies its per-round hook; the kernel picks its
propagation step by channel only (the bitset step on a perfect channel,
the CSR step on a lossy one, with the same hook semantics).  It is not an ``engine=`` name of
:func:`~repro.core.session.run_session`:
:func:`~repro.scenario.run.run_scenario` builds it with the scenario's
config, and its :meth:`~ScenarioSessionEngine.run` takes the validated
slot matrix and an optional ledger to fold into.  The hook does three
things:

1. **Reader motion** — at each round's start time (accumulated slot count
   × :class:`~repro.net.timing.SlotTiming`, Gen2-derived by default) the
   reader is moved along the configured
   :class:`~repro.scenario.trajectory.ReaderTrajectory` and the network is
   relinked via :meth:`~repro.net.topology.Network.with_readers` — an O(n)
   pass for reader distances and tier 1 that shares the tag adjacency.
   The kernel reads tier 1 every round; at the session end it reads
   reachability only when every pending tag lies outside tier 1, so a
   relink runs the tier BFS at most once, and usually never.
2. **Power-cycling** — the :class:`~repro.scenario.power.LinkBudget`
   turns each tag's distance-to-reader into a powered mask.  The kernel
   applies it: unpowered tags neither transmit, listen, learn, respond in
   checking frames, nor accrue energy; their pending data is *retained*
   until they regain power — data parks on a sleeping tag, it does not
   vanish.
3. **Journal** — when :attr:`journal` is set, one record per round with
   the absolute time, reader position, powered count and relink flag.

With the hooks disabled (no trajectory or a static one, no link budget —
the default ``ScenarioConfig()``), the hook returns the fixed network and
no mask, and the kernel runs its static round: bit-identical
bitmap, rounds, slots, round stats, and ledger floats — the
static-equivalence pin the tests and CI smoke assert against
``run_session``.

A session that terminates while a *sleeping* reachable tag still holds
pending data reports ``terminated_cleanly=False``: the reader cannot hear
what is powered down, which is exactly the completion-rate degradation
the motion experiment measures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.core.batch import _run_kernel
from repro.core.session import CCMConfig, SessionResult, _fold_ledger
from repro.net.channel import Channel
from repro.net.energy import EnergyLedger
from repro.net.geometry import Point
from repro.net.timing import SlotCount, SlotTiming, default_slot_timing
from repro.net.topology import Network
from repro.obs import metrics as obs_metrics
from repro.scenario.events import EventJournal
from repro.scenario.power import LinkBudget
from repro.scenario.trajectory import ReaderTrajectory
from repro.sim.trace import SessionTracer

__all__ = ["ScenarioConfig", "ScenarioSessionEngine"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Within-session dynamics of a scenario run.

    The default — no trajectory, no link budget — is the static
    configuration, under which the engine is bit-identical to the plain
    engines (the static-equivalence pin).

    Parameters
    ----------
    trajectory:
        Reader path sampled at each round's start time; ``None`` (or any
        trajectory whose ``is_static`` is true) keeps the network fixed.
        With several readers, the trajectory moves ``readers[0]`` and the
        rest hold position.
    link_budget:
        Power-cycling model; ``None`` (or a budget with
        ``threshold_dbm=None``) keeps every tag powered.
    timing:
        Slot durations mapping slot counts to wall-clock round times;
        ``None`` uses the Gen2-derived
        :func:`~repro.net.timing.default_slot_timing`.
    start_time_s:
        Scenario time at which this session's round 1 begins (operations
        later in a scenario start later on the shared timeline).
    move_epsilon_m:
        Minimum reader displacement that triggers a tier relink.
    """

    trajectory: Optional[ReaderTrajectory] = None
    link_budget: Optional[LinkBudget] = None
    timing: Optional[SlotTiming] = None
    start_time_s: float = 0.0
    move_epsilon_m: float = 1e-9

    def is_static(self) -> bool:
        """True when both hooks are disabled (the equivalence-pin case)."""
        motion = self.trajectory is not None and not self.trajectory.is_static
        power = self.link_budget is not None and not self.link_budget.always_powered
        return not motion and not power


class ScenarioSessionEngine:
    """The CCM kernel with per-round motion/power hooks."""

    def __init__(self, scenario: Optional[ScenarioConfig] = None) -> None:
        self.scenario = scenario or ScenarioConfig()
        #: optional :class:`EventJournal` receiving one record per round
        self.journal: Optional[EventJournal] = None
        #: per-run observables (set by :meth:`run`): relinks,
        #: powered-fraction mean over rounds, minimum powered count.
        self.last_run_info: dict = {}

    def run(
        self,
        network: Network,
        slots: np.ndarray,
        config: CCMConfig,
        *,
        channel: Optional[Channel] = None,
        rng: Optional[np.random.Generator] = None,
        ledger: Optional[EnergyLedger] = None,
        tracer: Optional[SessionTracer] = None,
    ) -> SessionResult:
        obs = obs_metrics.OBS
        scenario = self.scenario
        timing = scenario.timing or default_slot_timing()
        trajectory = scenario.trajectory
        eps = scenario.move_epsilon_m

        def moved_to(net: Network, pos: Point) -> Network:
            reader0 = net.readers[0].position
            if abs(pos.x - reader0.x) <= eps and abs(pos.y - reader0.y) <= eps:
                return net
            return net.with_readers(
                [replace(net.readers[0], position=pos)]
                + list(net.readers[1:])
            )

        if trajectory is not None and trajectory.is_static:
            # A static trajectory elsewhere than the deployed reader still
            # needs one relink; after that it behaves like None.
            network = moved_to(
                network, trajectory.position(scenario.start_time_s)
            )
            trajectory = None
        budget = scenario.link_budget
        if budget is not None and budget.always_powered:
            budget = None

        n = network.n_tags
        net = network
        relinks = 0
        powered_counts: List[int] = []

        def hook(round_index: int, slots: SlotCount):
            nonlocal net, relinks
            t_round = scenario.start_time_s + slots.seconds(timing)
            moved = False
            if trajectory is not None:
                with obs.span("scenario_motion"):
                    relinked = moved_to(net, trajectory.position(t_round))
                if relinked is not net:
                    net = relinked
                    moved = True
                    relinks += 1
                    obs.inc("scenario_relinks_total")
            powered = None
            if budget is not None:
                powered = budget.powered_mask(net.reader_distance)
                powered_counts.append(int(np.count_nonzero(powered)))
                obs.set_gauge("scenario_powered_tags", powered_counts[-1])
            if self.journal is not None:
                pos = net.readers[0].position
                entry = {
                    "round": round_index,
                    "reader_x": pos.x,
                    "reader_y": pos.y,
                    "relinked": moved,
                }
                if powered is not None:
                    entry["powered"] = powered_counts[-1]
                self.journal.record(t_round, "round", **entry)
            return net, powered

        result = _run_kernel(
            network,
            slots[None],
            config,
            channel=channel,
            rngs=None if rng is None else [rng],
            tracer=tracer,
            hook=hook,
        )[0]
        self.last_run_info = {
            "relinks": relinks,
            "powered_fraction_mean": (
                float(np.mean([c / n if n else 1.0 for c in powered_counts]))
                if powered_counts
                else 1.0
            ),
            "min_powered": min(powered_counts, default=n),
            "end_time_s": scenario.start_time_s + result.slots.seconds(timing),
        }
        return _fold_ledger(result, ledger)
