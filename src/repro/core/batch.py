"""Algorithm 1 as one vectorized kernel: B independent CCM sessions per call.

This module is the only vectorized implementation of the CCM round (data
frame, indicator vector, propagation, checking frame).  Knowledge state
is a 3-D uint64 array — trial x slot x tag-word on the slot-major path,
trial x tag x slot-word on the channel-driven tag-major path — and every
protocol step advances all B sessions in one numpy call.  Finished
sessions are masked inert (their state freezes, their ledger stops
accumulating) rather than forcing ragged per-trial loops.

A single session is the same kernel at B = 1:
:func:`~repro.core.session.run_session` with ``engine="packed"`` calls
:func:`_run_kernel` on a one-trial stack, and the kernel also emits the
per-round tracer events.  :class:`~repro.scenario.engine.
ScenarioSessionEngine` drives the kernel through one per-round hook that
returns the round's network (relinked after reader motion) and its
powered-tag mask; both loops apply the mask themselves.

Routing depends on the channel and size only: the exact perfect channel
(and ``LossyChannel(loss=0.0)``, which draws nothing) runs slot-major,
hooked or not, while the neighbour-bitset table fits under
:data:`SLOT_MAJOR_MAX_ADJ_BYTES`; every other packed-capable channel and
larger networks go tag-major, through the channel's packed interface.

The slot-major kernel never transposes the transmit matrix: because
every (tag, slot) bit is transmitted at most once per session, per-tag
energy accounting reduces to exact integer counting identities
(``|V ∪ done| = |V| + |done| − |V ∩ done|``) maintained incrementally
from the round's (trial, slot, tag) transmit pairs — the same pairs the
propagation step needs anyway.  All ledger contributions stay
integer-valued, so the counts are bit-identical to the bigint engine's
popcounts.

Determinism: the ``repro-batch-rng-v1`` contract
------------------------------------------------
The executable reference for a batched trial is B = 1 of the same
kernel, checked against the scalar ``bigint`` engine: running trial k
alone and running it inside any batch must produce bit-identical results
(bitmap, rounds, slots, round stats, energy floats), and the B = 1 run
must match ``bigint`` bit for bit, tracer NDJSON included.  The contract
that pins this:

* Each trial owns a private :class:`numpy.random.Generator` seeded from
  the existing campaign stream (``trial_seed(base_seed, k)``) — exactly
  the generator the per-trial path would receive.
* Within every round, channel draws are made per trial in **ascending
  trial order**, each against its own generator, with the per-trial draw
  order of ``repro-channel-rng-v1`` unchanged.  Independent generators
  make the interleaving irrelevant: trial k's stream is identical
  whether its neighbours in the batch exist or not (trial-order
  independence), so any sub-batch, tail batch, or B=1 run replays the
  same bits.
* The perfect-channel path draws nothing, also per the channel contract.

:data:`BATCH_RNG_CONTRACT` names this contract and is mixed into
:func:`repro.store.fingerprint.code_fingerprint`, so bumping it
invalidates every memoized trial key by construction.

Bit-identity holds because every batched step is the same arithmetic
per trial: segment ORs are order-independent, and the energy ledger
only ever adds integer-valued float64 (sums below 2^53 are exact in any
association).  The equivalence-grid tests assert it directly.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bitmap import Bitmap
from repro.core.engine import _word_counts, words_to_int
from repro.core.session import (
    CCMConfig,
    RoundStats,
    SessionResult,
    default_checking_frame_length,
    slot_matrix,
)
from repro.net.channel import Channel, PerfectChannel, or_reduce_segments
from repro.net.energy import EnergyLedger
from repro.net.timing import SlotCount, indicator_vector_slots
from repro.net.topology import Network
from repro.obs import metrics as obs_metrics
from repro.sim.trace import SessionTracer

__all__ = [
    "BATCH_RNG_CONTRACT",
    "batch_trial_rngs",
    "run_session_batch",
]

#: Version tag of the batched RNG-draw contract documented above.  Bump
#: when the derivation, ordering, or interleaving of per-trial streams
#: changes; :func:`repro.store.fingerprint.code_fingerprint` mixes it in,
#: so stale cache keys invalidate by construction.
BATCH_RNG_CONTRACT = "repro-batch-rng-v1"

#: Upper bound on the cached neighbour-bitset size (n x ceil(n/64) words)
#: for the slot-major path; bigger networks run tag-major, whose memory
#: is proportional to the edge count rather than n^2/8.  Module-level
#: (read at call time) so large-memory hosts can raise it for headline
#: runs.
SLOT_MAJOR_MAX_ADJ_BYTES = 1 << 27

#: Shared empty pair array — the "no transmits" state between rounds.
_EMPTY_PAIRS = np.empty(0, dtype=np.int32)

#: The per-round scenario hook of both kernels: called at the start of
#: each round with the round index and the slots run so far (trial 0's —
#: hooks drive B = 1 runs); returns the round's network and its
#: powered-tag mask (``None`` = every tag powered).
RoundHook = Callable[[int, SlotCount], Tuple[Network, Optional[np.ndarray]]]


def batch_trial_rngs(
    base_seed: int, trial_indices: Sequence[int]
) -> List[np.random.Generator]:
    """The per-trial generators of ``repro-batch-rng-v1``.

    One private generator per trial, seeded from the campaign seed
    stream — byte-for-byte the generator a per-trial dispatch of the
    same ``(base_seed, trial_index)`` would construct.
    """
    from repro.sim.runner import trial_seed

    return [
        np.random.default_rng(trial_seed(base_seed, int(k)))
        for k in trial_indices
    ]


def _pack_rows(mat: np.ndarray, n_words: int) -> np.ndarray:
    """Pack each row of a boolean matrix into ``n_words`` uint64 words."""
    rows = mat.shape[0]
    out = np.zeros((rows, n_words * 8), dtype=np.uint8)
    packed = np.packbits(mat, axis=1, bitorder="little")
    out[:, : packed.shape[1]] = packed
    return out.view(np.uint64)


def _unpack_rows(words: np.ndarray, count: int) -> np.ndarray:
    """Unpack each uint64 word row back to ``count`` booleans."""
    return np.unpackbits(
        words.view(np.uint8), axis=1, bitorder="little", count=count
    ).view(bool)


def _run_checking_frame_batch(
    network: Network,
    has_pending: np.ndarray,
    active: np.ndarray,
    l_c: int,
    sent_bits: np.ndarray,
    recv_bits: np.ndarray,
    powered: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """All B checking frames at once (Alg. 1 lines 14-24, trial-bit packed).

    Mirrors :func:`repro.core.engine.run_checking_frame` per trial: the
    state is transposed into trial-bit bytes — ``frontier[t]`` holds one
    bit per *trial* for tag ``t`` — so each BFS step is a single
    :func:`~repro.net.channel.or_reduce_segments` over the CSR adjacency
    for every trial simultaneously.  The live-trial set is a byte run
    too; it is unpacked only in the slot where some trial is heard, not
    on every slot.  A trial leaves the wave when its responders die out
    (the reader listens out the remaining slots) or when a tier-1
    response is heard.

    ``powered`` (scenario runs) restricts the wave to powered tags: an
    unpowered tag neither responds nor relays, and accrues no energy.

    Energy (active trials only): posts the same bulk updates as the
    scalar frame — every tag listens ``listened - responded`` slots and a
    responder sends one bit.  Inactive trials add exact zeros.  Returns
    ``(slots, heard)`` per trial; ``slots`` is 0 for inactive trials.
    """
    B = has_pending.shape[0]
    asleep = None if powered is None else ~powered
    seeds = has_pending & active[:, None]
    if asleep is not None:
        seeds[:, asleep] = False
    heard = np.zeros(B, dtype=bool)
    slots = np.where(active, l_c, 0)
    if not seeds.any():
        # No wave at all: every active trial listens out the frame.
        recv = np.full(has_pending.shape[1], float(l_c))
        if asleep is not None:
            recv[asleep] = 0.0
        recv_bits[active] += recv
        return slots, heard

    tier1_idx = network.tier1_mask.nonzero()[0]
    indptr, indices = network.indptr, network.indices
    frontier = np.packbits(seeds.T, axis=1, bitorder="little")
    responded = np.zeros_like(frontier)
    live = np.packbits(active, bitorder="little")
    for slot in range(1, l_c + 1):
        responders = frontier & ~responded & live
        if asleep is not None:
            responders[asleep] = 0
        # Wave died in trials without responders; per Alg. 1 their reader
        # keeps listening through the rest of the frame (whole l_c counts).
        live = live & np.bitwise_or.reduce(responders, axis=0)
        if not live.any():
            break
        responded |= responders
        heard_now = np.bitwise_or.reduce(responders[tier1_idx], axis=0) & live
        if heard_now.any():
            # A trial stays live from its first slot until it leaves, so
            # one heard in this slot has executed exactly ``slot`` slots.
            now = np.unpackbits(
                heard_now, count=B, bitorder="little"
            ).view(bool)
            heard |= now
            slots[now] = slot
            live = live & ~heard_now
        if live.any():
            # One BFS hop for every still-live trial at once.
            frontier = or_reduce_segments(
                responders,
                indptr,
                indices,
                row_filter=responders.any(axis=1),
            )

    resp = np.unpackbits(
        responded, axis=1, count=B, bitorder="little"
    ).T.astype(np.float64)
    recv = slots[:, None] - resp
    if asleep is not None:
        recv[:, asleep] = 0.0
    recv_bits += recv
    sent_bits += resp
    return slots, heard


def _finalize(
    frame_size: int,
    bitmap_words: np.ndarray,
    rounds_run: np.ndarray,
    short_slots: np.ndarray,
    id_slots: np.ndarray,
    sent_bits: np.ndarray,
    recv_bits: np.ndarray,
    stats: List[List[RoundStats]],
    clean: np.ndarray,
) -> List[SessionResult]:
    """Assemble per-trial :class:`SessionResult` objects from batch state."""
    results: List[SessionResult] = []
    n = sent_bits.shape[1]
    for b in range(len(stats)):
        ledger = EnergyLedger(n)
        ledger.bits_sent[:] = sent_bits[b]
        ledger.bits_received[:] = recv_bits[b]
        results.append(
            SessionResult(
                bitmap=Bitmap(frame_size, words_to_int(bitmap_words[b])),
                rounds=int(rounds_run[b]),
                slots=SlotCount(
                    short_slots=int(short_slots[b]), id_slots=int(id_slots[b])
                ),
                ledger=ledger,
                round_stats=stats[b],
                terminated_cleanly=bool(clean[b]),
            )
        )
    return results


def _append_stats(
    stats: List[List[RoundStats]],
    active: np.ndarray,
    round_index: int,
    transmitting: np.ndarray,
    bits_new: np.ndarray,
    chk_slots: np.ndarray,
    chk_heard: np.ndarray,
) -> None:
    for b in np.flatnonzero(active):
        stats[b].append(
            RoundStats(
                round_index=round_index,
                transmitting_tags=int(transmitting[b]),
                bits_new_at_reader=int(bits_new[b]),
                checking_slots_executed=int(chk_slots[b]),
                reader_heard_checking=bool(chk_heard[b]),
            )
        )


def _trace_round(
    tracer: SessionTracer,
    round_index: int,
    use_iv: bool,
    stats: RoundStats,
    busy_total: int,
    pending_tags: int,
) -> None:
    """Trial 0's protocol events for one round, in the bigint order."""
    tracer.emit("round_start", round_index)
    tracer.emit(
        "frame",
        round_index,
        transmitters=stats.transmitting_tags,
        bits_new_at_reader=stats.bits_new_at_reader,
        reader_busy_total=busy_total,
    )
    if use_iv:
        tracer.emit("indicator", round_index, silenced_total=busy_total)
    tracer.emit(
        "checking",
        round_index,
        slots_executed=stats.checking_slots_executed,
        reader_heard=stats.reader_heard_checking,
        pending_tags=pending_tags,
    )


def _trace_end(
    tracer: SessionTracer, rounds: int, clean: bool, busy_total: int
) -> None:
    tracer.emit(
        "session_end", rounds, rounds=rounds, clean=clean,
        busy_slots=busy_total,
    )


def _initial_pairs(
    slots: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The initial (trial, slot, tag) transmit pairs of a ``(B, n, k)``
    stack of slot matrices, sorted by (trial, slot, tag)."""
    b_idx, t_idx, col = np.nonzero(slots >= 0)
    s_idx = slots[b_idx, t_idx, col]
    order = np.lexsort((t_idx, s_idx, b_idx))
    return b_idx[order], s_idx[order], t_idx[order]


def _extract_pairs(
    learned_rows: np.ndarray,
    surv_b: np.ndarray,
    surv_s: np.ndarray,
    n: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero (trial, slot, tag) coordinates of packed learned rows.

    Unpacks in L2-sized chunks so the boolean matrix never round-trips
    through RAM, takes flat nonzero positions, and splits them back into
    (row, tag).  Row-major order keeps the result sorted by (trial,
    slot, tag) because the rows themselves arrive sorted.
    """
    parts: List[np.ndarray] = []
    step = max(1, (1 << 22) // max(1, n))
    for c0 in range(0, learned_rows.shape[0], step):
        flat = np.flatnonzero(_unpack_rows(learned_rows[c0 : c0 + step], n))
        if flat.size:
            parts.append(flat + c0 * n)
    if not parts:
        return _EMPTY_PAIRS, _EMPTY_PAIRS, _EMPTY_PAIRS
    flat = parts[0] if len(parts) == 1 else np.concatenate(parts)
    r_idx = flat // n
    r_tag = (flat - r_idx * n).astype(np.int32)
    return surv_b[r_idx], surv_s[r_idx], r_tag


def _bit_words(
    shape: Tuple[int, int, int], b: np.ndarray, row: np.ndarray,
    bit: np.ndarray,
) -> np.ndarray:
    """A ``(B, rows, W)`` uint64 array with bit ``bit[i]`` of row
    ``row[i]`` set in trial ``b[i]`` for every i, and nothing else."""
    _, rows, w = shape
    out = np.zeros(shape, dtype=np.uint64)
    if b.size:
        np.bitwise_or.at(
            out.reshape(-1),
            (b.astype(np.int64) * rows + row) * w + (bit >> 6),
            np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64)),
        )
    return out


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in sorted, non-empty ``keys`` starts."""
    edge = np.empty(keys.size, dtype=bool)
    edge[0] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:])
    return edge.nonzero()[0]


def _or_runs(
    adjacency: np.ndarray, tags: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """OR of the adjacency rows of each run of ``tags`` (runs begin at
    ``starts``): one slot's audience per run.

    Runs are taken in chunks whose gathered rows fit in ~256 KB, so the
    gathered block stays cache-resident: a chunk of short runs is one
    gather plus ``reduceat``, and a run too long to share a chunk is
    reduced on its own.
    """
    bounds = np.append(starts, tags.size)
    budget = max(1, (1 << 15) // adjacency.shape[1])
    # The run a chunk starting at run r would end before.
    ends = (np.searchsorted(bounds, starts + budget, "right") - 1).tolist()
    bounds_l = bounds.tolist()
    out = np.empty((starts.size, adjacency.shape[1]), dtype=np.uint64)
    r0 = 0
    while r0 < starts.size:
        r1 = max(ends[r0], r0 + 1)
        lo, hi = bounds_l[r0], bounds_l[r1]
        rows = adjacency[tags[lo:hi]]
        if r1 == r0 + 1:
            out[r0] = np.bitwise_or.reduce(rows, axis=0)
        else:
            out[r0:r1] = np.bitwise_or.reduceat(
                rows, bounds[r0:r1] - lo, axis=0
            )
        r0 = r1
    return out


def _call_hook(
    hook: RoundHook,
    round_index: int,
    short_slots: np.ndarray,
    id_slots: np.ndarray,
    network: Network,
) -> Tuple[Network, Optional[np.ndarray]]:
    """Round ``round_index``'s network and powered mask from ``hook``.

    A hook may move readers, not tags: a round network whose tag graph
    differs from ``network``'s raises :class:`ValueError`.
    """
    net, powered = hook(
        round_index,
        SlotCount(
            short_slots=int(short_slots[0]), id_slots=int(id_slots[0])
        ),
    )
    if not all(
        x is y or np.array_equal(x, y)
        for x, y in (
            (net.indptr, network.indptr), (net.indices, network.indices)
        )
    ):
        raise ValueError(
            f"round {round_index}: hooks may move readers, not tags"
        )
    return net, powered


def _bitsets_fit(n: int) -> bool:
    """Whether n tags' bitsets fit :data:`SLOT_MAJOR_MAX_ADJ_BYTES`."""
    return n * max(1, (n + 63) // 64) * 8 <= SLOT_MAJOR_MAX_ADJ_BYTES


def _batch_slot_major(
    network: Network,
    slots: np.ndarray,
    config: CCMConfig,
    tracer: Optional[SessionTracer] = None,
    hook: Optional[RoundHook] = None,
) -> List[SessionResult]:
    """The perfect-channel kernel: per-slot tag bitsets, no channel calls.

    The round state is the (trial, slot, tag-word) ``known`` bitset plus
    the current round's transmit *pairs* ``(pb, ps, pt)``.  Each (tag,
    slot) bit transmits at most once per session (pending is always new
    knowledge), so per-tag accounting is pure integer counting:

    * ``dcount[b, t]`` — cumulative slots tag t has transmitted in
      (= popcount of the bigint engine's ``done`` row);
    * ``overlap[b, t]`` — ``|done ∩ V|`` against the *previous* round's
      indicator vector, maintained from two deltas: this round's pairs
      that land in already-busy slots, and the pair *history* (every
      pair transmitted so far — exactly the done set) restricted to
      slots that just turned busy;
    * ``monitored = |V| + dcount − overlap = |V ∪ done|`` — the exact
      popcount the bigint engine computes, so the float64 ledger adds
      are bit-identical (integer-valued, far below 2^53).

    Propagation runs after the indicator vector, and only for slots that
    survive it: ``heard`` feeds only ``learned``, which is zeroed for
    every slot in the (updated) indicator vector.  (The bigint engine
    also grows ``known`` on freshly-silenced slots, but such slots never
    transmit or learn again, so skipping them is observationally
    identical.)  It gathers adjacency rows per surviving (trial, slot)
    run — the adjacency table is shared across trials and
    cache-resident, so the per-run reduction beats one batch-wide gather
    that would materialize gigabytes.  The learned rows are unpacked in
    cache-sized chunks and their nonzero coordinates *are* the next
    round's pairs (int32: every flat key here is bounded by the
    ``known`` array's element count, which memory already caps far
    below 2**31).

    ``hook`` has the tag-major kernel's semantics: each round's tier 1,
    checking frame and (at the end) reachability come from the hook's
    network.  The pairs of sleeping tags are held back, not transmitted;
    after the round's indicator-vector filter they rejoin the next
    round's pairs (re-sorted, as :func:`_run_starts` needs) and count as
    pending.  Sleeping tags learn nothing and receive nothing.
    """
    obs = obs_metrics.OBS
    B = len(slots)
    n = network.n_tags
    f = config.frame_size
    l_c = config.checking_frame_length or default_checking_frame_length(
        network
    )
    max_rounds = config.max_rounds if config.max_rounds is not None else l_c
    use_iv = config.use_indicator_vector

    with obs.span("setup"):
        wn = max(1, (n + 63) // 64)
        wf = max(1, (f + 63) // 64)
        adjacency = network.packed_adjacency()
        iv_slots = indicator_vector_slots(f)

        pb, ps, pt = _initial_pairs(slots)
        pb = pb.astype(np.int32)
        ps = ps.astype(np.int32)
        pt = pt.astype(np.int32)
        known = _bit_words((B, f, wn), pb, ps, pt)
        bitmap = np.zeros((B, f), dtype=bool)
        dcount = np.zeros((B, n), dtype=np.int64)
        overlap = np.zeros((B, n), dtype=np.int64)
        sil_prev = np.zeros(B, dtype=np.int64)
        # Every (trial*f + slot, trial*n + tag) key pair transmitted so
        # far — the done set in pair form, appended to as rounds transmit.
        hist_bs = np.empty(0, dtype=np.int32)
        hist_bt = np.empty(0, dtype=np.int32)

        sent_bits = np.zeros((B, n), dtype=np.float64)
        recv_bits = np.zeros((B, n), dtype=np.float64)
        short_slots = np.zeros(B, dtype=np.int64)
        id_slots = np.zeros(B, dtype=np.int64)
        stats: List[List[RoundStats]] = [[] for _ in range(B)]
        active = np.ones(B, dtype=bool)
        rounds_run = np.zeros(B, dtype=np.int64)
        clean = np.zeros(B, dtype=bool)

    net = network
    powered: Optional[np.ndarray] = None
    asleep: Optional[np.ndarray] = None
    for round_index in range(1, max_rounds + 1):
        if not active.any():
            break
        act = active
        n_act = int(np.count_nonzero(act))
        # Basic slicing when every trial still runs (always at B = 1):
        # boolean row selection allocates on every use.
        sel = act if n_act < B else slice(None)
        rounds_run[sel] = round_index
        obs.inc("ccm_rounds_total", n_act)
        round_span = obs.span("round")
        round_span.__enter__()
        if hook is not None:
            net, powered = _call_hook(
                hook, round_index, short_slots, id_slots, network
            )
            asleep = None if powered is None else ~powered
        # Pairs held back by sleeping tags this round.
        hb = hs = ht = _EMPTY_PAIRS
        if asleep is not None:
            held = asleep[pt]
            hb, hs, ht = pb[held], ps[held], pt[held]
            pb, ps, pt = pb[~held], ps[~held], pt[~held]
        tier1 = net.tier1_mask

        # --- data frame -------------------------------------------------
        with obs.span("data_frame"):
            key_bs = pb * np.int32(f) + ps
            key_bt = pb * np.int32(n) + pt
            delta = np.bincount(key_bt, minlength=B * n).reshape(B, n)
            transmitting = np.count_nonzero(delta, axis=1)
            sent_bits += delta  # zero rows for finished trials
            dcount += delta  # transmits only happen in active trials
            if use_iv:
                # This round's transmits that land in already-silenced
                # slots (V is still the previous round's vector at listen
                # time).
                in_v = bitmap.reshape(-1)[key_bs]
                overlap += np.bincount(
                    key_bt[in_v], minlength=B * n
                ).reshape(B, n)
                monitored = sil_prev[:, None] + dcount - overlap
            else:
                monitored = dcount
            recv = (f - monitored[sel]).astype(np.float64)
            if asleep is not None:
                recv[:, asleep] = 0.0
            recv_bits[sel] += recv
            short_slots[sel] += f
            hist_bs = np.concatenate((hist_bs, key_bs))
            hist_bt = np.concatenate((hist_bt, key_bt))
            obs.inc("ccm_data_frame_slots_total", f * n_act)

        # --- indicator vector -------------------------------------------
        t1p = tier1[pt]
        reader_busy = np.zeros((B, f), dtype=bool)
        reader_busy.reshape(-1)[key_bs[t1p]] = True
        newbusy = reader_busy & ~bitmap
        bits_new = newbusy.sum(axis=1)
        bitmap |= reader_busy
        if use_iv:
            with obs.span("indicator"):
                sil_prev = bitmap.sum(axis=1)
                id_slots[sel] += iv_slots
                recv_bits[sel] += (
                    float(f) if asleep is None
                    else np.where(powered, float(f), 0.0)
                )
                # Done slots that just turned busy: the pair history holds
                # exactly initial ∪ learned_{<r} ∪ this round = the done
                # set, so its newly-busy members are the |done ∩ V|
                # correction.
                in_new = newbusy.reshape(-1)[hist_bs]
                overlap += np.bincount(
                    hist_bt[in_new], minlength=B * n
                ).reshape(B, n)
                obs.inc("ccm_indicator_slots_total", iv_slots * n_act)

        # --- propagation + knowledge update -----------------------------
        with obs.span("propagate"):
            if use_iv and pb.size:
                keep = ~bitmap.reshape(-1)[key_bs]
                qb, qs, qt = pb[keep], ps[keep], pt[keep]
                qkey = key_bs[keep]
            else:
                qb, qs, qt, qkey = pb, ps, pt, key_bs
            next_pb = next_ps = next_pt = _EMPTY_PAIRS
            has_pending = np.zeros((B, n), dtype=bool)
            if qb.size:
                starts = _run_starts(qkey)
                surv_b, surv_s = qb[starts], qs[starts]
                known_rows = known[surv_b, surv_s]
                learned_rows = _or_runs(adjacency, qt, starts)
                learned_rows &= ~known_rows
                if powered is not None:
                    learned_rows &= _pack_rows(powered[None], wn)
                known[surv_b, surv_s] = known_rows | learned_rows
                # Per-trial pending-tags union straight off the packed
                # rows (rows are sorted by trial): feeds the checking
                # frame without materializing next pairs first.
                b_starts = _run_starts(surv_b)
                pend_words = np.zeros((B, wn), dtype=np.uint64)
                pend_words[surv_b[b_starts]] = np.bitwise_or.reduceat(
                    learned_rows, b_starts, axis=0
                )
                has_pending = _unpack_rows(pend_words, n)
                next_pb, next_ps, next_pt = _extract_pairs(
                    learned_rows, surv_b, surv_s, n
                )
            if use_iv and hb.size:
                keep = ~bitmap.reshape(-1)[hb * np.int32(f) + hs]
                hb, hs, ht = hb[keep], hs[keep], ht[keep]
            if hb.size:
                has_pending[hb, ht] = True
                nb, ns, nt = (
                    np.concatenate(pair)
                    for pair in ((next_pb, hb), (next_ps, hs), (next_pt, ht))
                )
                order = np.lexsort((nt, ns, nb))
                next_pb, next_ps, next_pt = nb[order], ns[order], nt[order]

        # --- checking frame ---------------------------------------------
        with obs.span("checking"):
            chk_slots, chk_heard = _run_checking_frame_batch(
                net, has_pending, active, l_c, sent_bits, recv_bits,
                powered=powered,
            )
            short_slots += chk_slots
            obs.inc("ccm_checking_slots_total", int(chk_slots.sum()))
        round_span.__exit__(None, None, None)
        _append_stats(
            stats, act, round_index, transmitting, bits_new, chk_slots,
            chk_heard,
        )
        if tracer is not None:
            _trace_round(
                tracer, round_index, use_iv, stats[0][-1],
                int(np.count_nonzero(bitmap[0])),
                int(np.count_nonzero(has_pending[0])),
            )

        finishing = act & ~chk_heard
        if finishing.any():
            clean[finishing] = ~(
                has_pending[finishing] & net.reachable_mask
            ).any(axis=1)
            active = act & chk_heard
            if next_pb.size:
                keepn = active[next_pb]
                next_pb = next_pb[keepn]
                next_ps = next_ps[keepn]
                next_pt = next_pt[keepn]
        pb, ps, pt = next_pb, next_ps, next_pt

    if active.any():  # hit the round bound with sessions still running
        hp = np.zeros((B, n), dtype=bool)
        if pb.size:
            hp[pb, pt] = True
        clean[active] = ~(hp[active] & net.reachable_mask).any(axis=1)

    if tracer is not None:
        _trace_end(
            tracer, int(rounds_run[0]), bool(clean[0]),
            int(np.count_nonzero(bitmap[0])),
        )
    bitmap_words = _pack_rows(bitmap, wf)
    return _finalize(
        f, bitmap_words, rounds_run, short_slots, id_slots, sent_bits,
        recv_bits, stats, clean,
    )


def _batch_tag_major(
    network: Network,
    slots: np.ndarray,
    config: CCMConfig,
    *,
    channel: Channel,
    rngs: Optional[Sequence[np.random.Generator]],
    tracer: Optional[SessionTracer] = None,
    hook: Optional[RoundHook] = None,
) -> List[SessionResult]:
    """The channel-driven kernel: per-tag frames through the channel.

    Channel draws happen per trial in ascending trial order against each
    trial's private generator (the ``repro-batch-rng-v1`` interleaving);
    everything else is word-parallel across the whole batch.

    ``hook`` (the scenario engine's) is called at the start of every
    round and returns that round's network and powered mask.  Unpowered
    tags transmit, hear, learn and respond nothing and accrue no energy;
    a sleeping tag's pending data is *retained* until it wakes — data
    parks on a sleeping tag, it does not vanish.  Termination is judged
    on the last round's network.  A hook may move readers, not tags
    (another tag graph raises :class:`ValueError`).
    """
    obs = obs_metrics.OBS
    B = len(slots)
    n = network.n_tags
    f = config.frame_size
    l_c = config.checking_frame_length or default_checking_frame_length(
        network
    )
    max_rounds = config.max_rounds if config.max_rounds is not None else l_c
    use_iv = config.use_indicator_vector

    with obs.span("setup"):
        wf = max(1, (f + 63) // 64)
        iv_slots = indicator_vector_slots(f)
        pb, ps, pt = _initial_pairs(slots)
        pending = _bit_words((B, n, wf), pb, pt, ps)
        known = pending.copy()
        # Hooks keep the tag graph (checked per round).
        indptr, indices = network.indptr, network.indices
        done = np.zeros((B, n, wf), dtype=np.uint64)
        silenced = np.zeros((B, wf), dtype=np.uint64)
        reader_bitmap = np.zeros((B, wf), dtype=np.uint64)

        sent_bits = np.zeros((B, n), dtype=np.float64)
        recv_bits = np.zeros((B, n), dtype=np.float64)
        short_slots = np.zeros(B, dtype=np.int64)
        id_slots = np.zeros(B, dtype=np.int64)
        stats: List[List[RoundStats]] = [[] for _ in range(B)]
        active = np.ones(B, dtype=bool)
        rounds_run = np.zeros(B, dtype=np.int64)
        clean = np.zeros(B, dtype=bool)

    net = network
    powered: Optional[np.ndarray] = None
    asleep: Optional[np.ndarray] = None
    for round_index in range(1, max_rounds + 1):
        if not active.any():
            break
        act = active
        n_act = int(np.count_nonzero(act))
        # Basic slicing when every trial still runs (always at B = 1):
        # boolean row selection allocates on every use.
        sel = act if n_act < B else slice(None)
        rounds_run[sel] = round_index
        obs.inc("ccm_rounds_total", n_act)
        round_span = obs.span("round")
        round_span.__enter__()
        if hook is not None:
            net, powered = _call_hook(
                hook, round_index, short_slots, id_slots, network
            )
            asleep = None if powered is None else ~powered
        tier1 = net.tier1_mask

        # --- data frame -------------------------------------------------
        with obs.span("data_frame"):
            # pending bits are within the frame by construction (validated
            # initial slots; learned bits come from transmissions), so no
            # frame-mask clip is needed.
            transmit = pending & ~silenced[:, None, :]
            if asleep is not None:
                transmit[:, asleep] = 0
            transmitting = np.count_nonzero(transmit.any(axis=2), axis=1)
            heard = np.zeros_like(transmit)
            reader_busy = np.zeros((B, wf), dtype=np.uint64)
            with obs.span("propagate"):
                for b in np.flatnonzero(act):
                    # Ascending trial order, private generators: the
                    # contract's interleaving (each stream is unchanged by
                    # its neighbours).
                    rng_b = rngs[b] if rngs is not None else None
                    heard[b] = channel.propagate_packed(
                        transmit[b], indptr, indices, rng_b
                    )
                    reader_busy[b] = channel.reader_senses_packed(
                        transmit[b], tier1, rng_b
                    )
            if asleep is not None:
                heard[:, asleep] = 0

            with obs.span("transpose_popcount"):
                sent = _word_counts(transmit).sum(axis=2)
                monitored = _word_counts(
                    silenced[:, None, :] | done | transmit
                ).sum(axis=2)
            recv = (f - monitored).astype(np.float64)
            if asleep is not None:
                recv[:, asleep] = 0.0
            sent_bits += sent  # zero rows for finished trials
            recv_bits[sel] += recv[sel]
            short_slots[sel] += f
            obs.inc("ccm_data_frame_slots_total", f * n_act)

            # Knowledge update (half duplex + silencing), word-parallel.
            learned = heard & ~known & ~transmit & ~silenced[:, None, :]
            known |= learned | transmit
            done |= transmit
            if asleep is not None:
                learned[:, asleep] = pending[:, asleep]

        # --- indicator vector -------------------------------------------
        bits_new = _word_counts(reader_busy & ~reader_bitmap).sum(axis=1)
        reader_bitmap |= reader_busy
        if use_iv:
            with obs.span("indicator"):
                silenced[sel] = reader_bitmap[sel]
                id_slots[sel] += iv_slots
                recv_bits[sel] += (
                    float(f) if asleep is None
                    else np.where(powered, float(f), 0.0)
                )
                # Masking retained (sleeping-tag) pending with the new V is
                # observationally identical to masking at wake time: V
                # only grows, and a woken tag applies the then-current V
                # before transmitting anyway.
                learned &= ~silenced[:, None, :]
                obs.inc("ccm_indicator_slots_total", iv_slots * n_act)
        pending = learned

        # --- checking frame ---------------------------------------------
        with obs.span("checking"):
            has_pending = pending.any(axis=2)
            chk_slots, chk_heard = _run_checking_frame_batch(
                net, has_pending, active, l_c, sent_bits, recv_bits,
                powered=powered,
            )
            short_slots += chk_slots
            obs.inc("ccm_checking_slots_total", int(chk_slots.sum()))
        round_span.__exit__(None, None, None)
        _append_stats(
            stats, act, round_index, transmitting, bits_new, chk_slots,
            chk_heard,
        )
        if tracer is not None:
            _trace_round(
                tracer, round_index, use_iv, stats[0][-1],
                int(_word_counts(reader_bitmap[0]).sum()),
                int(np.count_nonzero(has_pending[0])),
            )

        finishing = act & ~chk_heard
        if finishing.any():
            clean[finishing] = ~pending[finishing][
                :, net.reachable_mask
            ].any(axis=(1, 2))
            active = act & chk_heard
            pending[~active] = 0

    if active.any():
        clean[active] = ~pending[active][:, net.reachable_mask].any(
            axis=(1, 2)
        )

    if tracer is not None:
        _trace_end(
            tracer, int(rounds_run[0]), bool(clean[0]),
            int(_word_counts(reader_bitmap[0]).sum()),
        )
    return _finalize(
        f, reader_bitmap, rounds_run, short_slots, id_slots, sent_bits,
        recv_bits, stats, clean,
    )


def _run_kernel(
    network: Network,
    slots: np.ndarray,
    config: CCMConfig,
    *,
    channel: Optional[Channel] = None,
    rngs: Optional[Sequence[np.random.Generator]] = None,
    tracer: Optional[SessionTracer] = None,
    hook: Optional[RoundHook] = None,
) -> List[SessionResult]:
    """Route a validated ``(B, n, k)`` slot-matrix stack to a kernel.

    The route depends on the channel and size only: an ``is_perfect``
    channel whose neighbour bitsets fit runs slot-major, hooked or not;
    every other channel and larger networks run tag-major.
    """
    channel = channel or PerfectChannel()
    if not getattr(channel, "supports_packed", False):
        raise ValueError(
            f"channel {type(channel).__name__} does not implement the "
            "packed-word interface required by the batched kernel; use "
            "engine='bigint'"
        )
    if channel.is_perfect and _bitsets_fit(network.n_tags):
        return _batch_slot_major(
            network, slots, config, tracer=tracer, hook=hook
        )
    return _batch_tag_major(
        network,
        slots,
        config,
        channel=channel,
        rngs=rngs,
        tracer=tracer,
        hook=hook,
    )


def run_session_batch(
    network: Network,
    picks_batch: Sequence,
    config: CCMConfig,
    *,
    channel: Optional[Channel] = None,
    rngs: Optional[Sequence[np.random.Generator]] = None,
) -> List[SessionResult]:
    """Run B independent CCM sessions over one topology in lockstep.

    ``picks_batch[b]`` is trial b's ``picks`` (the 1-D per-tag picks or
    2-D pick matrix of :func:`~repro.core.session.run_session`), validated
    and converted by :func:`~repro.core.session.slot_matrix`.  ``rngs``
    supplies each trial's private generator per the
    ``repro-batch-rng-v1`` contract (required only when the channel
    draws randomness — see :func:`batch_trial_rngs`).

    Every returned :class:`~repro.core.session.SessionResult` is
    bit-identical to running that trial alone (B = 1, e.g.
    ``run_session(..., engine="packed")``) with the same picks and
    generator, and therefore to the ``bigint`` engine.
    """
    B = len(picks_batch)
    if B == 0:
        raise ValueError("picks_batch must contain at least one trial")
    if rngs is not None and len(rngs) != B:
        raise ValueError(
            f"rngs has {len(rngs)} generators for {B} trials"
        )
    n, f = network.n_tags, config.frame_size
    mats = [
        slot_matrix(n, f, picks, trial=b)
        for b, picks in enumerate(picks_batch)
    ]
    slots = np.full((B, n, max(m.shape[1] for m in mats)), -1, np.int64)
    for b, mat in enumerate(mats):
        slots[b, :, : mat.shape[1]] = mat
    obs = obs_metrics.OBS
    with obs.span("session_batch"):
        results = _run_kernel(
            network, slots, config, channel=channel, rngs=rngs
        )
        if obs.enabled:
            obs.inc("ccm_batch_sessions_total", B)
            obs.inc("ccm_batch_calls_total")
    return results
