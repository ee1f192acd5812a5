"""The CCM session API — Algorithm 1 of the paper.

One *session* collects an f-bit bitmap from every tag in a multi-hop,
state-free tag network.  It proceeds in *rounds*; each round is:

1. the reader broadcasts a request (round 1 carries the frame size f and
   any application parameters);
2. an f-slot *data frame* runs: every tag transmits a one-bit pulse in each
   slot it has pending, and carrier-senses the others (half duplex — it
   cannot hear a slot it is transmitting in).  Simultaneous transmissions
   in a slot merge benignly into "busy";
3. the reader broadcasts the *indicator vector* V — the slots it has
   confirmed busy so far — and every tag goes to sleep in those slots for
   the rest of the session (Sec. III-D, stops the snowball flooding);
4. a *checking frame* of L_c one-bit slots runs: a tag with data still to
   relay responds in slot 1; any tag hearing slot j-1 responds in slot j;
   if the reader hears any response the session continues with another
   round, otherwise it terminates (Sec. III-E).

The information wave moves exactly one tier toward the reader per round, so
a K-tier network finishes in K rounds (plus the final, silent checking
frame).  The union of the reader's per-round busy maps is the session
bitmap B, which Theorem 1 proves identical to the bitmap a traditional
single-hop RFID system would produce — a property our integration tests
check directly.

Implementation notes
--------------------
This module is the *API*: parameter objects, result objects, validation,
and the single entry point :func:`run_session`.  Validation turns the
caller's picks into one *slot matrix* (:func:`slot_matrix`), the only
initial-state form the engines take.  The per-round mechanics run on one
of two engines, named by the keyword-only ``engine=`` argument
(:data:`ENGINE_NAMES`): ``"bigint"``, the big-int oracle
:func:`repro.core.engine.run_bigint`, or ``"packed"``, the bit-packed
uint64 kernel of :mod:`repro.core.batch` at B = 1; the default
``"auto"`` picks the kernel for the built-in channels and the
channel-agnostic oracle otherwise.  Tags are *state-free*: the per-tag
state the engines carry (pending/known/done masks) exists only *within*
one session, exactly as in the protocol, and nothing survives between
sessions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.bitmap import Bitmap
from repro.net.channel import Channel, LossyChannel, PerfectChannel
from repro.net.energy import EnergyLedger
from repro.net.timing import SlotCount
from repro.net.topology import Network
from repro.obs import metrics as obs_metrics
from repro.sim.trace import SessionTracer


#: The ``engine=`` names :func:`run_session` accepts (and every
#: ``--engine`` choice list): ``"auto"`` is the kernel for the built-in
#: channel types and the oracle otherwise.
ENGINE_NAMES = ("auto", "bigint", "packed")


def default_checking_frame_length(network: Network) -> int:
    """L_c = 2 × (1 + ⌈(R − r') / r⌉), the paper's empirical setting.

    (1 + ⌈(R − r')/r⌉) estimates the number of tiers from the communication
    ranges alone — the reader cannot know the true K because the tags are
    state-free.  The factor 2 is safety margin: the checking-frame response
    wave may need up to K−1 hops to reach tier 1.

    With several readers the estimate is taken per reader and the maximum
    wins: a checking frame sized for the shallowest reader would terminate
    sessions early on the reader whose coverage reaches deepest.
    """
    tier_estimate = 0
    for reader in network.readers:
        spread = reader.reader_to_tag_range - reader.tag_to_reader_range
        tier_estimate = max(
            tier_estimate,
            1 + math.ceil(max(spread, 0.0) / network.tag_range),
        )
    return 2 * tier_estimate


@dataclass(frozen=True)
class CCMConfig:
    """Parameters of one CCM session.

    Parameters
    ----------
    frame_size:
        f — number of one-bit slots per data frame; chosen by the
        application (GMLE and TRP size it for their accuracy targets).
    checking_frame_length:
        L_c; defaults to the paper's range-based estimate.
    max_rounds:
        Upper bound on rounds.  Algorithm 1 uses L_c; leave ``None`` for
        that behaviour.
    use_indicator_vector:
        Ablation switch (Sec. III-D).  With ``False`` the reader never
        silences slots, so information floods outward as well as inward.
    """

    frame_size: int
    checking_frame_length: Optional[int] = None
    max_rounds: Optional[int] = None
    use_indicator_vector: bool = True

    def __post_init__(self) -> None:
        if self.frame_size <= 0:
            raise ValueError("frame_size must be positive")
        if self.checking_frame_length is not None and self.checking_frame_length <= 0:
            raise ValueError("checking_frame_length must be positive")
        if self.max_rounds is not None and self.max_rounds <= 0:
            raise ValueError("max_rounds must be positive")


@dataclass
class RoundStats:
    """Observables of one round (used by experiments and tests)."""

    round_index: int
    transmitting_tags: int
    bits_new_at_reader: int
    checking_slots_executed: int
    reader_heard_checking: bool


@dataclass
class SessionResult:
    """Everything a CCM session produces.

    ``bitmap`` is B of Algorithm 1.  ``slots`` counts execution time the
    way Eq. (3) does (data-frame slots + indicator-vector reader slots +
    executed checking-frame slots; reader request broadcasts are not
    counted, matching Eq. 3).  ``ledger`` holds per-tag bits sent/received
    under the counting rules of DESIGN.md §6.
    """

    bitmap: Bitmap
    rounds: int
    slots: SlotCount
    ledger: EnergyLedger
    round_stats: List[RoundStats] = field(default_factory=list)
    #: True if the session ended because the checking frame stayed silent;
    #: False if it hit the round bound with data still pending (a protocol
    #: failure mode the ablations explore).
    terminated_cleanly: bool = True

    @property
    def total_slots(self) -> int:
        return self.slots.total_slots


def slot_matrix(
    n: int,
    frame_size: int,
    picks: Sequence,
    *,
    trial: Optional[int] = None,
) -> np.ndarray:
    """Validate one trial's initial slots and return them as the engines'
    slot matrix.

    The matrix is an ``(n, k)`` int64 array: row i lists the distinct
    slots tag i initially sets busy, ascending, padded with -1 ("no
    slot").  A 1-D ``picks`` (one slot per tag, negative = silent) is the
    k = 1 case and is used as is.  A 2-D ``(n, k)`` pick matrix (Sec.
    III-B: "Each tag chooses one or multiple bits") may repeat a slot in
    a row, list it in any order and hold any negative value for "no
    slot".  ``trial`` prefixes error messages for batched calls.
    """
    where = "" if trial is None else f"trial {trial}: "
    try:
        arr = np.asarray(picks, dtype=np.int64)
    except OverflowError:
        raise ValueError(
            f"{where}pick out of range for frame {frame_size}"
        ) from None
    if arr.ndim not in (1, 2) or arr.shape[0] != n:
        size = arr.shape[0] if arr.ndim == 1 else arr.shape
        raise ValueError(f"{where}picks has {size} entries for {n} tags")
    if arr.max(initial=-1) >= frame_size:
        bad = int(arr[arr >= frame_size][0])
        raise ValueError(
            f"{where}pick {bad} out of range for frame {frame_size}"
        )
    if arr.ndim == 1:
        return arr.reshape(n, 1)
    # Sort "no slot" past every slot, drop repeats, then trim the padding.
    rows = np.sort(np.where(arr < 0, frame_size, arr), axis=1)
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = frame_size
    rows.sort(axis=1)
    rows = rows[:, : int((rows < frame_size).sum(axis=1).max(initial=0))]
    rows[rows == frame_size] = -1
    return rows


def run_session(
    network: Network,
    picks: Sequence,
    *,
    config: CCMConfig,
    channel: Optional[Channel] = None,
    rng: Optional[np.random.Generator] = None,
    ledger: Optional[EnergyLedger] = None,
    tracer: Optional[SessionTracer] = None,
    engine: str = "auto",
) -> SessionResult:
    """Execute one CCM session (Algorithm 1) and account time and energy.

    ``picks`` describes the tags' initial slots; everything else is
    keyword-only.  It is validated and converted once, by
    :func:`slot_matrix`, into the one form every engine receives.

    Parameters
    ----------
    network:
        The deployed tag network (positions, links, tiers, readers).
    picks:
        Per-tag initial slot choice: ``picks[i]`` is the frame slot tag i
        transmits in, or -1 if it does not participate (e.g. not sampled by
        GMLE).  A 2-D ``(n, k)`` pick matrix gives each tag a slot *set*
        instead (Sec. III-B: "Each tag chooses one or multiple bits and
        sets those bits to 1") — one slot for estimation/detection,
        several for tag search.  Applications derive these
        deterministically from (tag ID, seed) via
        :class:`repro.sim.rng.TagHasher`.
    config:
        Session parameters.
    channel:
        Slot-level channel model; defaults to the paper's perfect
        busy/idle sensing.
    rng:
        Randomness source, required only by lossy channels.
    ledger:
        Optional pre-existing ledger to accumulate into (multi-session
        protocols pass the same ledger to every session).
    tracer:
        Optional :class:`~repro.sim.trace.SessionTracer` receiving one
        structured event per protocol step.
    engine:
        One of :data:`ENGINE_NAMES`: ``"packed"`` (the bit-packed uint64
        kernel), ``"bigint"`` (f-bit Python integers) or ``"auto"``
        (packed for the exact :class:`PerfectChannel` and
        :class:`LossyChannel` types, bigint for any other channel, whose
        subclass may override propagation).  The two engines are
        bit-identical.
    """
    obs = obs_metrics.OBS
    # The session span covers the whole entry point (validation, engine
    # resolution, the run, metric recording), so its cumulative time is
    # the session wall time a caller measures around this call.
    with obs.span("session"):
        slots = slot_matrix(network.n_tags, config.frame_size, picks)
        if engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown session engine {engine!r}; expected one of "
                f"{', '.join(ENGINE_NAMES)}"
            )
        if engine == "auto":
            builtin = channel is None or type(channel) in (
                PerfectChannel,
                LossyChannel,
            )
            engine = "packed" if builtin else "bigint"
        started = time.perf_counter()
        if engine == "packed":
            from repro.core.batch import _run_kernel

            result = _run_kernel(
                network,
                slots[None],
                config,
                channel=channel,
                rngs=None if rng is None else [rng],
                tracer=tracer,
            )[0]
        else:
            from repro.core.engine import run_bigint

            result = run_bigint(
                network, slots, config, channel=channel, rng=rng,
                tracer=tracer,
            )
        _fold_ledger(result, ledger)
        if obs.enabled:
            obs.inc("ccm_sessions_total")
            obs.inc("ccm_session_slots_total", result.total_slots)
            obs.observe("ccm_session_seconds", time.perf_counter() - started)
            obs.set_gauge("ccm_last_session_rounds", result.rounds)
            obs.set_gauge(
                "ccm_last_session_busy_slots", result.bitmap.popcount()
            )
    return result


def _fold_ledger(
    result: SessionResult, ledger: Optional[EnergyLedger]
) -> SessionResult:
    """Add a session's per-tag counts into a caller's ``ledger`` (if any)
    and make it the result's ledger.

    Every count an engine posts is an integer-valued float64, so the
    session's totals are exact and the fold lands on the floats that
    adding round by round into ``ledger`` would (whenever those sums are
    exact, as they are for integer or half-integer counts).
    """
    if ledger is not None:
        ledger.merge(result.ledger)
        result.ledger = ledger
    return result
