"""Algorithm 1 as one vectorized kernel: B independent CCM sessions per call.

This module is the only vectorized implementation of the CCM round (data
frame, indicator vector, propagation, checking frame).  One round driver,
:func:`_run_kernel`, runs every round of every trial: the reader bitmap
and indicator vector, the slot tallies and energy ledger, the checking
frame, termination, round stats and tracer events.  Every protocol step
advances all B sessions in one numpy call; finished sessions are masked
inert (their state freezes, their ledger stops accumulating) rather than
forcing ragged per-trial loops.

Tag knowledge lives in one layout, :class:`_SlotMajor`: trial x slot x
tag-word bitsets plus the round's (trial, slot, tag) transmit pairs.  It
owns its state, its data frame and propagation, and the retirement of
finished trials.  Propagation has two steps, chosen from the input only:
an ``is_perfect`` channel (the exact perfect channel, and
``LossyChannel(loss=0.0)``, which draws nothing) whose neighbour-bitset
table fits under :data:`SLOT_MAJOR_MAX_ADJ_BYTES` ORs cached adjacency
rows (the bitset step), hooked or not; every other packed-capable
channel, and larger networks, expand the pairs over the CSR adjacency
and keep the events the channel lets through (the CSR step).

A single session is the same kernel at B = 1:
:func:`~repro.core.session.run_session` with ``engine="packed"`` calls
the driver on a one-trial stack, and the driver also emits the
per-round tracer events.  :class:`~repro.scenario.engine.
ScenarioSessionEngine` drives the kernel through one per-round hook that
returns the round's network (relinked after reader motion) and its
powered-tag mask; the driver and the layout apply the mask.

The layout never transposes the transmit matrix: because
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
  order of ``repro-channel-rng-v1`` unchanged: the channel draws the
  trial's whole propagation block, then its reader block, and the CSR
  step later looks up only the events of slots that survive the round's
  indicator vector.  Independent generators make the interleaving
  irrelevant: trial k's stream is identical
  whether its neighbours in the batch exist or not (trial-order
  independence), so any sub-batch, tail batch, or B=1 run replays the
  same bits.
* An ``is_perfect`` channel draws nothing, also per the channel
  contract.

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
from repro.core.engine import words_to_int
from repro.core.session import (
    CCMConfig,
    RoundStats,
    SessionResult,
    default_checking_frame_length,
    slot_matrix,
)
from repro.net import channel as channel_mod
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
#: for the bitset propagation step; bigger networks take the CSR step,
#: which reads the edge list rather than an n^2/8-byte table.
#: Module-level (read at call time) so tests can set it to 0 to force
#: the CSR step.
SLOT_MAJOR_MAX_ADJ_BYTES = 1 << 27

#: Shared empty pair array — the "no transmits" state between rounds.
_EMPTY_PAIRS = np.empty(0, dtype=np.int32)

#: The per-round scenario hook of the round driver: called at the start of
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


def _initial_pairs(
    slots: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The initial int32 (trial, slot, tag) transmit pairs of a
    ``(B, n, k)`` stack of slot matrices, sorted by (trial, slot, tag)."""
    b_idx, t_idx, col = np.nonzero(slots >= 0)
    s_idx = slots[b_idx, t_idx, col]
    order = np.lexsort((t_idx, s_idx, b_idx))
    return tuple(a[order].astype(np.int32) for a in (b_idx, s_idx, t_idx))


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


def _merge_pairs(
    a: Tuple[np.ndarray, np.ndarray, np.ndarray],
    b: Tuple[np.ndarray, np.ndarray, np.ndarray],
    f: int,
    n: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of two disjoint (trial, slot, tag) pair lists, each
    sorted by (trial, slot, tag), in the same order.

    Each pair of ``b`` goes before the first pair of ``a`` with a larger
    int64 ``(trial*f + slot)*n + tag`` key (B·f·n can pass 2**31).
    """
    def key(p):
        return (p[0].astype(np.int64) * f + p[1]) * n + p[2]

    from_b = np.zeros(a[0].size + b[0].size, dtype=bool)
    from_b[np.searchsorted(key(a), key(b)) + np.arange(b[0].size)] = True
    from_a = ~from_b

    def merged(x, y):
        z = np.empty(from_b.size, dtype=x.dtype)
        z[from_a], z[from_b] = x, y
        return z

    return tuple(map(merged, a, b))


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


class _SlotMajor:
    """Tag knowledge: per-slot tag bitsets and the round's transmit pairs.

    The state is the (trial, slot, tag-word) ``known`` bitset plus the
    current round's transmit *pairs* ``(pb, ps, pt)``, sorted by (trial,
    slot, tag).  Each (tag, slot) bit transmits at most once per session
    (pending is always new knowledge), so per-tag accounting is pure
    integer counting:

    * ``dcount[b, t]`` — cumulative slots tag t has transmitted in
      (= popcount of the bigint engine's ``done`` row);
    * ``overlap[b, t]`` — ``|done ∩ V|`` against the indicator vector V
      the tags hold, maintained from one delta: the pair *history*
      (every pair transmitted so far — exactly the done set) restricted
      to slots that just turned busy.  A round's own pairs never land in
      the V they transmit under: learned and held pairs were filtered by
      it, and round 1 starts with an empty one;
    * ``monitored = |V| + dcount − overlap = |V ∪ done|`` — the exact
      popcount the bigint engine computes, so the float64 ledger adds
      are bit-identical (integer-valued, far below 2^53).

    A channel that is not ``is_perfect`` is called in the data frame,
    per active trial in ascending trial order against the trial's own
    generator: ``propagate_packed`` draws the trial's propagation block
    and ``reader_senses_packed`` its reader block.  An ``is_perfect``
    channel draws nothing and is never called.

    Propagation runs after the indicator vector, and only for slots that
    survive it: ``heard`` feeds only ``learned``, which is zeroed for
    every slot in the (updated) indicator vector.  (The bigint engine
    also grows ``known`` on freshly-silenced slots, but such slots never
    transmit or learn again, so skipping them is observationally
    identical.)  What each surviving (trial, slot) run hears comes from
    one of two steps:

    * the **bitset step** (an ``is_perfect`` channel whose bitsets fit
      :data:`SLOT_MAJOR_MAX_ADJ_BYTES`) ORs the run's adjacency rows —
      the table is shared across trials and cache-resident, so the
      per-run reduction beats one batch-wide gather that would
      materialize gigabytes;
    * the **CSR step** (everything else) expands the run's pairs over
      the CSR adjacency and keeps the events the channel lets through
      (:meth:`_csr_heard`).

    The learned rows are unpacked in cache-sized chunks and their
    nonzero coordinates *are* the next round's pairs (int32: every flat
    key here is bounded by the ``known`` array's element count, which
    memory already caps far below 2**31).

    The pairs of sleeping tags are held back, not transmitted; after the
    round's indicator-vector filter they are merged into the next round's
    pairs (:func:`_merge_pairs` keeps the (trial, slot, tag) order
    :func:`_run_starts` needs) and count as pending.  Sleeping tags learn
    nothing and receive nothing, so a held pair is never also learned.
    """

    def __init__(
        self,
        network: Network,
        slots: np.ndarray,
        f: int,
        channel: Channel,
        rngs: Optional[Sequence[np.random.Generator]],
    ) -> None:
        B, n = len(slots), network.n_tags
        self.f, self.wn = f, max(1, (n + 63) // 64)
        bitsets_fit = n * self.wn * 8 <= SLOT_MAJOR_MAX_ADJ_BYTES
        self.adjacency = (
            network.packed_adjacency()
            if channel.is_perfect and bitsets_fit else None
        )
        # Hooks keep the tag graph (checked per round).
        self.indptr, self.indices = network.indptr, network.indices
        self.channel = None if channel.is_perfect else channel
        self.rngs = rngs
        # Trial -> this round's ``survives`` (absent or None: all heard).
        self.survival: dict = {}
        pb, ps, pt = _initial_pairs(slots)
        self.known = _bit_words((B, f, self.wn), pb, ps, pt)
        self.pairs = pb, ps, pt
        self.dcount = np.zeros((B, n), dtype=np.int64)
        self.overlap = np.zeros((B, n), dtype=np.int64)
        # Every (trial*f + slot, trial*n + tag) key pair transmitted so
        # far — the done set in pair form, appended to as rounds transmit.
        self.hist_bs = np.empty(0, dtype=np.int32)
        self.hist_bt = np.empty(0, dtype=np.int32)

    def data_frame(self, net, act, silenced, asleep):
        pb, ps, pt = self.pairs
        self.held = _EMPTY_PAIRS, _EMPTY_PAIRS, _EMPTY_PAIRS
        if asleep is not None:
            held = asleep[pt]
            self.held = pb[held], ps[held], pt[held]
            self.pairs = pb, ps, pt = pb[~held], ps[~held], pt[~held]
        B, n = self.dcount.shape
        self.key_bs = key_bs = pb * np.int32(self.f) + ps
        key_bt = pb * np.int32(n) + pt
        sent = np.bincount(key_bt, minlength=B * n).reshape(B, n)
        self.dcount += sent  # transmits only happen in active trials
        self.hist_bs = np.concatenate((self.hist_bs, key_bs))
        self.hist_bt = np.concatenate((self.hist_bt, key_bt))
        monitored = silenced.sum(axis=1)[:, None] + self.dcount - self.overlap
        sensed = (
            net.tier1_mask[pt] if self.channel is None
            else self._draw(net, act)
        )
        reader_busy = np.zeros(silenced.shape, dtype=bool)
        reader_busy.reshape(-1)[key_bs[sensed]] = True
        return sent, monitored, np.count_nonzero(sent, axis=1), reader_busy

    def _draw(self, net, act):
        """Each active trial's channel draws, in ascending trial order
        (``repro-batch-rng-v1``): keeps the trial's ``survives`` lookup
        for :meth:`_csr_heard` and returns the pairs the reader senses."""
        pb, ps, pt = self.pairs
        bounds = np.searchsorted(pb, np.arange(len(act) + 1))
        sensed = np.zeros(pb.size, dtype=bool)
        for b in np.flatnonzero(act):
            lo, hi = bounds[b], bounds[b + 1]
            rng = None if self.rngs is None else self.rngs[b]
            self.survival[b] = self.channel.propagate_packed(
                pt[lo:hi], ps[lo:hi], self.indptr, rng
            )
            sensed[lo:hi] = self.channel.reader_senses_packed(
                pt[lo:hi], ps[lo:hi], net.tier1_mask, rng
            )
        return sensed

    def indicator(self, silenced, newbusy):
        # Done slots that just turned busy: the pair history holds exactly
        # initial ∪ learned_{<r} ∪ this round = the done set, so its
        # newly-busy members are the |done ∩ V| correction.
        in_new = newbusy.reshape(-1)[self.hist_bs]
        self.overlap += np.bincount(
            self.hist_bt[in_new], minlength=self.overlap.size
        ).reshape(self.overlap.shape)

    def next_pending(self, silenced, powered):
        with obs_metrics.OBS.span("propagate"):
            B, n = self.dcount.shape
            pb, ps, pt = self.pairs
            keep = ~silenced.reshape(-1)[self.key_bs]
            qb, qs, qt = pb[keep], ps[keep], pt[keep]
            nb = ns = nt = _EMPTY_PAIRS
            has_pending = np.zeros((B, n), dtype=bool)
            if qb.size:
                starts = _run_starts(self.key_bs[keep])
                surv_b, surv_s = qb[starts], qs[starts]
                known_rows = self.known[surv_b, surv_s]
                learned_rows = (
                    _or_runs(self.adjacency, qt, starts)
                    if self.adjacency is not None
                    else self._csr_heard(np.flatnonzero(keep), starts)
                )
                learned_rows &= ~known_rows
                if powered is not None:
                    learned_rows &= _pack_rows(powered[None], self.wn)
                self.known[surv_b, surv_s] = known_rows | learned_rows
                # Per-trial pending-tags union straight off the packed
                # rows (rows are sorted by trial): feeds the checking
                # frame without materializing next pairs first.
                b_starts = _run_starts(surv_b)
                pend_words = np.zeros((B, self.wn), dtype=np.uint64)
                pend_words[surv_b[b_starts]] = np.bitwise_or.reduceat(
                    learned_rows, b_starts, axis=0
                )
                has_pending = _unpack_rows(pend_words, n)
                nb, ns, nt = _extract_pairs(learned_rows, surv_b, surv_s, n)
            hb, hs, ht = self.held
            if hb.size:
                keep = ~silenced.reshape(-1)[hb * np.int32(self.f) + hs]
                hb, hs, ht = hb[keep], hs[keep], ht[keep]
                has_pending[hb, ht] = True
                nb, ns, nt = _merge_pairs(
                    (nb, ns, nt), (hb, hs, ht), self.f, n
                )
            self.pairs = nb, ns, nt
            self.survival = {}
        return has_pending

    def _csr_heard(self, at: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """What each surviving (trial, slot) run hears over the CSR
        adjacency: ``at`` indexes the surviving pairs in ``self.pairs``,
        and their runs begin at ``starts``.

        Pairs are taken in blocks of one trial, at most a draw chunk of
        (pair, neighbour) events (a pair with more goes alone) and ~2 MB
        of one-byte-per-tag rows; a block sets one byte per event its
        trial's ``survives`` keeps and ORs its packed rows into the
        result.
        """
        pb, _, pt = self.pairs
        indptr, indices = self.indptr, self.indices
        n8 = self.wn * 64
        tags = pt[at]
        first = indptr[tags]
        degree = indptr[tags + 1] - first
        ends = np.cumsum(degree)
        begin = ends - degree
        row = np.zeros(at.size, dtype=np.int64)
        row[starts[1:]] = 1
        np.cumsum(row, out=row)
        heard = np.zeros((starts.size, self.wn), dtype=np.uint64)
        max_events = channel_mod._LOSSY_DRAW_CHUNK
        max_rows = max(1, (1 << 21) // n8)
        trial = pb[at]
        cuts = np.append(_run_starts(trial), at.size).tolist()
        for s0, s1 in zip(cuts[:-1], cuts[1:]):
            survives = self.survival.get(trial[s0])
            lo = np.searchsorted(pb, trial[s0])
            a = s0
            while a < s1:
                c = min(
                    int(np.searchsorted(ends, begin[a] + max_events, "right")),
                    int(np.searchsorted(row, row[a] + max_rows)),
                    s1,
                )
                c = max(c, a + 1)
                d, r0 = degree[a:c], row[a]
                edge = np.arange(begin[a], ends[c - 1]) + np.repeat(
                    first[a:c] - begin[a:c], d
                )
                key = np.repeat((row[a:c] - r0) * n8, d) + indices[edge]
                if survives is not None:
                    key = key[survives(
                        np.repeat(at[a:c] - lo, d),
                        edge - np.repeat(first[a:c], d),
                    )]
                block = np.zeros((row[c - 1] - r0 + 1, n8), dtype=np.uint8)
                block.reshape(-1)[key] = 1
                heard[r0 : r0 + len(block)] |= np.packbits(
                    block, axis=1, bitorder="little"
                ).view(np.uint64)
                a = c
        return heard

    def retire(self, active):
        pb, ps, pt = self.pairs
        keep = active[pb]
        self.pairs = pb[keep], ps[keep], pt[keep]


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
    """Algorithm 1's rounds for a validated ``(B, n, k)`` slot-matrix
    stack: the one round driver.

    The driver owns everything the protocol defines independently of how
    knowledge is stored: the reader bitmap and indicator vector, the
    slot tallies and the energy ledger, the checking frame, termination,
    the round stats and the tracer events.  :class:`_SlotMajor` holds the
    knowledge state (its propagation step chosen by channel and size)
    and runs a round in four steps:

    * ``data_frame(net, act, silenced, asleep)`` transmits the pending
      bits not in the indicator vector ``silenced`` and returns per-tag
      ``(sent, monitored)`` bit counts, the transmitting-tag count and
      the reader's ``(B, f)`` busy slots;
    * ``indicator(silenced, newbusy)`` applies the round's (grown)
      indicator vector to knowledge;
    * ``next_pending(silenced, powered)`` returns the ``(B, n)`` tags
      with data left to relay;
    * ``retire(active)`` drops the pending data of finished trials.

    ``hook`` (the scenario engine's) is called at the start of every
    round and returns that round's network and powered mask.  Unpowered
    tags transmit, hear, learn and respond nothing and accrue no energy;
    each round's tier 1, checking frame and termination come from the
    hook's network.  A hook may move readers, not tags (another tag
    graph raises :class:`ValueError`).
    """
    channel = channel or PerfectChannel()
    if not getattr(channel, "supports_packed", False):
        raise ValueError(
            f"channel {type(channel).__name__} does not implement the "
            "packed pair interface required by the batched kernel; use "
            "engine='bigint'"
        )
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
        knowledge = _SlotMajor(network, slots, f, channel, rngs)
        iv_slots = indicator_vector_slots(f)
        bitmap = np.zeros((B, f), dtype=bool)
        # The indicator vector the tags hold: the reader bitmap itself
        # (grown in place) when it is broadcast, else never any slot.
        silenced = bitmap if use_iv else np.zeros_like(bitmap)
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

        # --- data frame -------------------------------------------------
        with obs.span("data_frame"):
            sent, monitored, transmitting, reader_busy = (
                knowledge.data_frame(net, act, silenced, asleep)
            )
            recv = (f - monitored[sel]).astype(np.float64)
            if asleep is not None:
                recv[:, asleep] = 0.0
            sent_bits += sent  # zero rows for finished trials
            recv_bits[sel] += recv
            short_slots[sel] += f
            obs.inc("ccm_data_frame_slots_total", f * n_act)

        # --- indicator vector -------------------------------------------
        newbusy = reader_busy & ~bitmap
        bits_new = newbusy.sum(axis=1)
        bitmap |= reader_busy
        if use_iv:
            with obs.span("indicator"):
                id_slots[sel] += iv_slots
                recv_bits[sel] += (
                    float(f) if asleep is None
                    else np.where(powered, float(f), 0.0)
                )
                knowledge.indicator(silenced, newbusy)
                obs.inc("ccm_indicator_slots_total", iv_slots * n_act)
        has_pending = knowledge.next_pending(silenced, powered)

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

        # A session ends when its checking frame hears nothing, or at the
        # round bound; either way pending data on a tag that can reach
        # the reader means it lost information.  Tier 1 is reachable, so
        # only a trial whose pending tags all lie outside it reads the
        # reachable set (on a relinked network, that runs the tier BFS).
        ending = act & ~chk_heard if round_index < max_rounds else act
        if ending.any():
            pending = has_pending[ending]
            lost = (pending & net.tier1_mask).any(axis=1)
            unsure = ~lost & pending.any(axis=1)
            if unsure.any():
                lost[unsure] = (
                    pending[unsure] & net.reachable_mask
                ).any(axis=1)
            clean[ending] = ~lost
            active = act & ~ending
            knowledge.retire(active)

    if tracer is not None:
        tracer.emit(
            "session_end", int(rounds_run[0]), rounds=int(rounds_run[0]),
            clean=bool(clean[0]), busy_slots=int(np.count_nonzero(bitmap[0])),
        )
    return _finalize(
        f, _pack_rows(bitmap, max(1, (f + 63) // 64)), rounds_run,
        short_slots, id_slots, sent_bits, recv_bits, stats, clean,
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
