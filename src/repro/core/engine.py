"""The bigint oracle: Algorithm 1 over f-bit Python integers.

:func:`repro.core.session.run_session` runs a session on one of two
engines, named by its ``engine=`` argument (:data:`~repro.core.session.
ENGINE_NAMES`):

* ``"bigint"`` — :func:`run_bigint`, defined here: each tag's frame is an
  f-bit Python integer, and propagation is one big-int OR per edge.
  Works with any :class:`~repro.net.channel.Channel` implementation, so it
  is also the executable reference for the channel contract.
* ``"packed"`` — the vectorized kernel of :mod:`repro.core.batch` at
  B = 1: knowledge is bit-packed uint64 per-slot tag bitsets and every
  per-tag loop is a NumPy kernel.  Under the exact
  :class:`~repro.net.channel.PerfectChannel` propagation ORs cached
  neighbour bitsets; otherwise it expands the round's transmit pairs
  over the CSR adjacency and keeps the events the channel's
  ``propagate_packed``/``reader_senses_packed`` let through.

The two are bit-identical — same bitmap, rounds, slot tally, round
statistics, per-tag ledger floats and tracer NDJSON — under both
:class:`~repro.net.channel.PerfectChannel` and
:class:`~repro.net.channel.LossyChannel`, which ``tests/test_engine.py``
asserts across a deployment/frame-size/loss/mask grid.  Lossy parity
rests on the ``repro-channel-rng-v1`` draw contract (see
:mod:`repro.net.channel`): both consume the channel's Bernoulli stream in
the same pinned order, the bigint path one scalar draw at a time and the
kernel in batched-but-identical ``Generator`` calls.  The default
``engine="auto"`` therefore selects the kernel for the exact built-in
channel types (including ``LossyChannel(loss=0.0)``, which is routed to
the silent bitset step) and bigint for anything else — third-party
channel subclasses may override propagation or not implement the
packed-word interface at all.

Engine names go into every trial key, so the set of names is part of the
store's addressing, not an extension point.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitmap import Bitmap
from repro.core.session import (
    CCMConfig,
    RoundStats,
    SessionResult,
    default_checking_frame_length,
)
from repro.net.channel import Channel, PerfectChannel
from repro.net.energy import EnergyLedger
from repro.net.timing import SlotCount, indicator_vector_slots
from repro.net.topology import Network
from repro.obs import metrics as obs_metrics
from repro.sim.trace import SessionTracer

# -- shared helpers -----------------------------------------------------------

if hasattr(np, "bitwise_count"):

    def _word_counts(words: np.ndarray) -> np.ndarray:
        """Per-word popcount of a uint64 array (same shape)."""
        return np.bitwise_count(words)

else:  # pragma: no cover - NumPy < 2.0 fallback
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)

    def _word_counts(words: np.ndarray) -> np.ndarray:
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        return _POP8[as_bytes].reshape(*words.shape, 8).sum(axis=-1)


def masks_to_words(masks: Sequence[int], frame_size: int) -> np.ndarray:
    """Pack per-tag f-bit integers into an ``(n, ceil(f/64))`` uint64 array.

    Word w of row i holds bits ``64w .. 64w+63`` of ``masks[i]`` (slot s is
    bit ``s % 64`` of word ``s // 64``).
    """
    n = len(masks)
    n_words = max(1, (frame_size + 63) // 64)
    n_bytes = n_words * 8
    buf = b"".join(int(m).to_bytes(n_bytes, "little") for m in masks)
    packed = np.frombuffer(buf, dtype="<u8").reshape(n, n_words)
    return packed.astype(np.uint64)


def words_to_int(words: np.ndarray) -> int:
    """Inverse of :func:`masks_to_words` for one row (or any 1-D word run)."""
    return int.from_bytes(
        np.ascontiguousarray(words, dtype="<u8").tobytes(), "little"
    )


def _any_neighbor(
    flags: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """``out[t]`` — does any CSR neighbour of ``t`` have ``flags`` set?"""
    if indices.size == 0:
        return np.zeros(indptr.shape[0] - 1, dtype=bool)
    hits = np.concatenate(
        ([0], np.cumsum(flags[indices], dtype=np.int64))
    )
    return (hits[indptr[1:]] - hits[indptr[:-1]]) > 0


def run_checking_frame(
    network: Network,
    has_pending: np.ndarray,
    l_c: int,
    ledger: EnergyLedger,
) -> Tuple[int, bool]:
    """Run the checking frame (Alg. 1 lines 14–24) for the bigint engine.

    Tags with pending data respond in slot 1; a tag that detects a response
    in slot j-1 responds (once) in slot j; the reader stops the frame at the
    first slot in which it hears a tier-1 response.  Returns the number of
    slots actually executed and whether the reader heard anything.

    Energy: each response is one sent bit; every tag that has not yet
    responded listens in each executed slot (one received bit per slot).
    Each tag responds at most once, so over the whole frame a tag's
    received bits are (slots executed) − (1 if it responded), posted as
    one bulk ledger update after the BFS wave instead of per slot —
    integer-valued float64 sums, so bit-identical to the per-slot tally.
    """
    n = network.n_tags
    tier1 = network.tier1_mask
    indptr, indices = network.indptr, network.indices

    responded = np.zeros(n, dtype=bool)
    frontier = has_pending.copy()
    executed = 0
    heard = False
    for _slot in range(1, l_c + 1):
        responders = frontier & ~responded
        if not responders.any():
            # Nothing transmitted; the wave is dead, but per Alg. 1 the
            # reader keeps listening through the rest of the frame (it
            # cannot know the wave died), so the whole l_c counts.
            break
        executed += 1
        responded |= responders
        if bool(np.any(responders & tier1)):
            heard = True
            break
        # Propagate: neighbours of this slot's responders hear the pulse.
        frontier = _any_neighbor(responders, indptr, indices)
    listened_slots = float(executed if heard else l_c)
    resp = responded.astype(np.float64)
    ledger.add_received_bulk(np.full(n, listened_slots) - resp)
    if responded.any():
        ledger.add_sent_bulk(resp)
    return (executed if heard else l_c), heard


# -- the big-int engine -------------------------------------------------------


def run_bigint(
    network: Network,
    slots: np.ndarray,
    config: CCMConfig,
    *,
    channel: Optional[Channel] = None,
    rng: Optional[np.random.Generator] = None,
    tracer: Optional[SessionTracer] = None,
) -> SessionResult:
    """Run one session on the scalar oracle: f-bit Python integers, one
    OR per edge.

    ``slots`` is the ``(n, k)`` slot matrix of
    :func:`~repro.core.session.slot_matrix`.  Channel-agnostic — it
    drives the abstract :meth:`~repro.net.channel.Channel.propagate` /
    :meth:`~repro.net.channel.Channel.reader_senses` interface, so any
    custom channel model works here, and it is the reference the
    vectorized kernel is checked against.  The result carries a fresh
    ledger; :func:`~repro.core.session.run_session` folds it into a
    caller's.
    """
    obs = obs_metrics.OBS
    n = network.n_tags
    f = config.frame_size
    channel = channel or PerfectChannel()
    ledger = EnergyLedger(n)
    l_c = config.checking_frame_length or default_checking_frame_length(
        network
    )
    max_rounds = config.max_rounds if config.max_rounds is not None else l_c

    with obs.span("setup"):
        tier1 = network.tier1_mask
        indptr, indices = network.indptr, network.indices
        frame_mask = (1 << f) - 1
        # Tags with no path to the reader can hold pending bits forever
        # (they relay among themselves); only pending data on *reachable*
        # tags means the session lost information.
        reachable_idx = np.flatnonzero(network.reachable_mask).tolist()

        # Per-tag session state (exists only for the session; tags stay
        # state-free across sessions).
        pending = [0] * n  # to transmit next data frame
        tags, cols = np.nonzero(slots >= 0)
        for t, slot in zip(tags.tolist(), slots[tags, cols].tolist()):
            pending[t] |= 1 << slot
        known = list(pending)  # ever picked/heard/transmitted
        n_words = max(1, (f + 63) // 64)
        # transmitted already -> sleep in those slots; kept bit-packed
        # so the per-round monitor popcount is one NumPy reduction.
        done_words = np.zeros((n, n_words), dtype=np.uint64)
        silenced = 0  # indicator vector accumulated at the reader
        reader_bitmap = 0  # B
        iv_slots = indicator_vector_slots(f)

    def _lost_data(pending_masks: List[int]) -> bool:
        return any(pending_masks[t] for t in reachable_idx)

    slots = SlotCount()
    round_stats: List[RoundStats] = []
    terminated_cleanly = False
    rounds_run = 0

    for round_index in range(1, max_rounds + 1):
        rounds_run = round_index
        obs.inc("ccm_rounds_total")
        if tracer is not None:
            tracer.emit("round_start", round_index)
        with obs.span("round"):
            # --- data frame -----------------------------------------
            with obs.span("data_frame"):
                live = ~silenced & frame_mask
                transmit = [pending[t] & live for t in range(n)]
                transmitting = sum(1 for m in transmit if m)
                with obs.span("propagate"):
                    heard = channel.propagate(
                        transmit, indptr, indices, rng
                    )
                reader_busy = channel.reader_senses(transmit, tier1, rng)

                # Energy for the frame: 1 bit per transmitted slot; 1
                # bit per carrier-sensed slot (tags monitor every slot
                # not silenced, not already relayed by them, and not
                # currently transmitted).  Popcounts run word-parallel
                # over the packed view.
                tx_words = masks_to_words(transmit, f)
                silenced_words = masks_to_words([silenced], f)[0]
                sent = _word_counts(tx_words).sum(axis=1)
                done_words |= tx_words
                monitored = _word_counts(
                    silenced_words | done_words | tx_words
                ).sum(axis=1)
                ledger.add_sent_bulk(sent.astype(np.float64))
                ledger.add_received_bulk(
                    (f - monitored).astype(np.float64)
                )
                slots += SlotCount(short_slots=f)
                obs.inc("ccm_data_frame_slots_total", f)

                # Knowledge update: a tag learns a slot it heard,
                # unless it was transmitting in it (half duplex),
                # already knew it, or the reader had silenced it.
                # (done_words already absorbed this frame's transmits.)
                not_silenced = ~silenced
                new_pending = [0] * n
                for t in range(n):
                    learned = (
                        heard[t] & ~known[t] & ~transmit[t] & not_silenced
                    )
                    known[t] |= learned | transmit[t]
                    new_pending[t] = learned

            # --- indicator vector -----------------------------------
            bits_new = (reader_busy & ~reader_bitmap).bit_count()
            reader_bitmap |= reader_busy
            if tracer is not None:
                tracer.emit(
                    "frame",
                    round_index,
                    transmitters=transmitting,
                    bits_new_at_reader=bits_new,
                    reader_busy_total=reader_bitmap.bit_count(),
                )
            if config.use_indicator_vector:
                with obs.span("indicator"):
                    silenced = reader_bitmap
                    # The reader ships V in ceil(f/96) 96-bit slots;
                    # every tag receives the full f bits.
                    slots += SlotCount(id_slots=iv_slots)
                    ledger.add_received_to_all(float(f))
                    keep = ~silenced
                    new_pending = [m & keep for m in new_pending]
                    obs.inc("ccm_indicator_slots_total", iv_slots)
                if tracer is not None:
                    tracer.emit(
                        "indicator",
                        round_index,
                        silenced_total=silenced.bit_count(),
                    )
            pending = new_pending

            # --- checking frame -------------------------------------
            with obs.span("checking"):
                has_pending = np.array(
                    [bool(pending[t]) for t in range(n)]
                )
                executed, reader_heard = run_checking_frame(
                    network, has_pending, l_c, ledger
                )
                slots += SlotCount(short_slots=executed)
                obs.inc("ccm_checking_slots_total", executed)
        if tracer is not None:
            tracer.emit(
                "checking",
                round_index,
                slots_executed=executed,
                reader_heard=reader_heard,
                pending_tags=int(has_pending.sum()),
            )
        round_stats.append(
            RoundStats(
                round_index=round_index,
                transmitting_tags=transmitting,
                bits_new_at_reader=bits_new,
                checking_slots_executed=executed,
                reader_heard_checking=reader_heard,
            )
        )
        if not reader_heard:
            terminated_cleanly = not _lost_data(pending)
            break
    else:
        # Round bound exhausted with the checking frame still reporting
        # pending data (can only happen with a non-default max_rounds or
        # a pathological L_c — surfaced to the caller, not swallowed).
        terminated_cleanly = not _lost_data(pending)

    if tracer is not None:
        tracer.emit(
            "session_end",
            rounds_run,
            rounds=rounds_run,
            clean=terminated_cleanly,
            busy_slots=reader_bitmap.bit_count(),
        )
    return SessionResult(
        bitmap=Bitmap(f, reader_bitmap),
        rounds=rounds_run,
        slots=slots,
        ledger=ledger,
        round_stats=round_stats,
        terminated_cleanly=terminated_cleanly,
    )


__all__ = [
    "run_bigint",
    "run_checking_frame",
    "masks_to_words",
    "words_to_int",
]
