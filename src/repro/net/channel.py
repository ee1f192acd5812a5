"""Slot-level channel models.

CCM's physical-layer requirement is deliberately minimal (Sec. I): a tag
need only tell *busy* from *idle* in a slot.  When several neighbours
transmit in the same slot, the listener senses "busy" — the collision is
benign because busy is exactly the information being conveyed.  The channel
therefore reduces, per slot, to an OR over each listener's neighbourhood.

Two implementations are provided:

* :class:`PerfectChannel` — every transmission within range is sensed.
  This is the paper's model.
* :class:`LossyChannel` — each (transmitter, listener, slot) sensing fails
  independently with probability ``loss``.  Used by robustness experiments
  to study CCM under unreliable channels (a paper-adjacent extension; the
  paper assumes reliable sensing).

Each channel speaks two frame representations, matching the two session
engines (:mod:`repro.core.engine`, :mod:`repro.core.batch`):

* the **big-int** interface (:meth:`Channel.propagate` /
  :meth:`Channel.reader_senses`): ``transmit[u]`` is an f-bit Python
  integer, and propagation is one OR per edge;
* the **pair** interface (:meth:`Channel.propagate_packed` /
  :meth:`Channel.reader_senses_packed`): one trial's frame is its
  ``(tag, slot)`` transmit pairs.  The kernel expands each pair over the
  tag's CSR neighbours itself; the channel only decides which of those
  (pair, neighbour) events, and which tier-1 pairs, are sensed.

Third-party channels only have to implement the big-int interface; the
pair methods default to "unsupported" and the vectorized kernel refuses
such channels with a clear error.

The channel RNG-draw contract (``repro-channel-rng-v1``)
--------------------------------------------------------

Randomized channels consume their ``rng`` in a pinned order so both frame
representations produce *bit-identical* results from the same seed.  Per
data frame:

1. **Propagation.**  Transmitters are visited in ascending tag index; for
   each transmitter ``u`` with a non-zero mask, its CSR neighbours are
   visited in row order, and each edge ``(u, t)`` consumes exactly
   ``popcount(transmit[u])`` uniform draws — one per set bit, in
   LSB-to-MSB order.  Bit ``b`` survives the edge iff its draw is
   ``>= loss``.  Silent transmitters (zero mask) consume nothing.
2. **Reader sensing.**  Immediately after propagation, tier-1 tags are
   visited in ascending index; each non-zero mask again consumes one draw
   per set bit, LSB first, kept iff ``>= loss``.

``loss == 0.0`` consumes no draws at all.  The big-int interface is the
executable reference of this contract (scalar ``rng.random()`` per draw);
the pair interface draws the identical stream in chunks, relying on the
NumPy ``Generator`` guarantee that ``rng.random(k)`` equals ``k``
successive scalar draws, and addresses each (pair, neighbour) event's
draw by its position in that order.  The contract version participates in
:func:`repro.store.fingerprint.code_fingerprint`, so changing it
invalidates memoized trial results.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Sequence

import numpy as np

#: Version tag of the pinned RNG-draw order above.  Bump it whenever the
#: order, shape, or keep-condition of channel randomness changes — cached
#: trial keys are derived from it and must move with the stream.
CHANNEL_RNG_CONTRACT = "repro-channel-rng-v1"


def or_reduce_segments(
    rows: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    row_filter: Optional[np.ndarray] = None,
    chunk_words: int = 1 << 22,
) -> np.ndarray:
    """Segment-wise OR over a CSR adjacency: ``out[t] = OR rows[u]`` for
    every neighbour ``u`` of ``t``.

    This is one hop of the perfect channel as a word-parallel kernel:
    ``rows`` is an ``(n, W)`` array of per-tag transmit words and the
    result is what every tag hears (the batched checking frame sends
    one bit per trial this way).

    ``row_filter`` (a boolean per-row mask, typically "row transmits
    anything") drops edges whose source row is all-zero before gathering —
    in late rounds only a handful of tags still transmit, so this turns an
    O(edges) gather into an O(active edges) one.  ``chunk_words`` bounds
    the temporary gather buffer (in 8-byte words), keeping peak memory
    flat regardless of edge count.
    """
    n = int(indptr.shape[0]) - 1
    n_words = int(rows.shape[1])
    out = np.zeros((n, n_words), dtype=rows.dtype)
    if n == 0 or indices.size == 0:
        return out
    if row_filter is not None:
        keep = row_filter[indices]
        if not keep.any():
            return out
        kept_before = np.concatenate(
            ([0], np.cumsum(keep, dtype=np.int64))
        )
        indices = indices[keep]
        indptr = kept_before[indptr]
    if indices.size == 0:
        return out

    max_edges = max(1, chunk_words // max(n_words, 1))
    sentinel = np.zeros((1, n_words), dtype=rows.dtype)
    start = 0
    while start < n:
        # Grow the row block until its edge count hits the buffer budget
        # (always at least one row, however large its neighbourhood).
        end = int(
            np.searchsorted(indptr, indptr[start] + max_edges, side="right")
        ) - 1
        end = min(max(end, start + 1), n)
        lo, hi = int(indptr[start]), int(indptr[end])
        if lo == hi:
            start = end
            continue
        gathered = rows[indices[lo:hi]]
        # The sentinel zero row makes every reduceat start index valid
        # (rows whose segment is empty land on it) and pads the final
        # segment with an OR-identity.
        gathered = np.concatenate([gathered, sentinel], axis=0)
        starts = np.asarray(indptr[start:end] - lo, dtype=np.intp)
        segment = np.bitwise_or.reduceat(gathered, starts, axis=0)
        degree = np.diff(indptr[start : end + 1])
        segment[degree == 0] = 0
        out[start:end] = segment
        start = end
    return out


class Channel(abc.ABC):
    """Propagation semantics for one frame (all f slots of one round)."""

    #: True when the pair interface below is implemented; the
    #: vectorized kernel (:mod:`repro.core.batch`) checks this before
    #: dispatching.
    supports_packed = False

    @property
    def is_perfect(self) -> bool:
        """True when this channel is *exactly* reliable busy/idle sensing.

        The vectorized kernel never calls such a channel and never draws
        randomness for it (propagating with its bitset step while the
        bitsets fit) — so it must hold only for channels whose
        propagation is the plain neighbourhood OR.  Deliberately strict
        about types: a subclass may override propagation, so it reports
        False and the kernel asks its pair interface.
        """
        return False

    @abc.abstractmethod
    def propagate(
        self,
        transmit: Sequence[int],
        indptr: np.ndarray,
        indices: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> List[int]:
        """Compute what every tag hears during one frame.

        Parameters
        ----------
        transmit:
            ``transmit[u]`` is the f-bit integer of slots in which tag ``u``
            transmits this round.
        indptr, indices:
            CSR adjacency of the tag-to-tag graph (symmetric).
        rng:
            Randomness source for lossy channels.

        Returns
        -------
        ``heard`` where ``heard[t]`` is the f-bit integer of slots in which
        tag ``t`` senses a busy channel (before half-duplex masking — the
        session engine removes the slots ``t`` itself transmitted in).
        """

    @abc.abstractmethod
    def reader_senses(
        self,
        transmit: Sequence[int],
        tier1: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> int:
        """Slots the reader senses busy, given tier-1 transmissions."""

    # -- pair interface (optional) -------------------------------------------

    def propagate_packed(
        self,
        tags: np.ndarray,
        slots: np.ndarray,
        indptr: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]]:
        """Draw one trial's data frame of ``(tags[j], slots[j])`` transmit
        pairs over the CSR adjacency ``indptr``.

        Returns ``survives(pair, rank)``: whether the event of pair
        ``pair`` reaching the ``rank``-th CSR neighbour of its tag is
        sensed (elementwise over index arrays), or ``None`` when every
        event is.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the packed pair "
            "interface; run sessions with engine='bigint'"
        )

    def reader_senses_packed(
        self,
        tags: np.ndarray,
        slots: np.ndarray,
        tier1: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Which transmit pairs the reader senses: a boolean per pair,
        False for every pair whose tag is not in ``tier1``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the packed pair "
            "interface; run sessions with engine='bigint'"
        )


class PerfectChannel(Channel):
    """Reliable busy/idle sensing — the model evaluated in the paper."""

    supports_packed = True

    @property
    def is_perfect(self) -> bool:
        return type(self) is PerfectChannel

    def propagate(
        self,
        transmit: Sequence[int],
        indptr: np.ndarray,
        indices: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> List[int]:
        heard = [0] * len(transmit)
        # Iterate over transmitters only: each pushes its slot mask to its
        # neighbours.  Big-int OR makes this one word-parallel op per edge.
        for u, mask in enumerate(transmit):
            if not mask:
                continue
            for t in indices[indptr[u] : indptr[u + 1]].tolist():
                heard[t] |= mask
        return heard

    def reader_senses(
        self,
        transmit: Sequence[int],
        tier1: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> int:
        busy = 0
        for u in np.flatnonzero(tier1).tolist():
            busy |= transmit[u]
        return busy

    def propagate_packed(
        self,
        tags: np.ndarray,
        slots: np.ndarray,
        indptr: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]]:
        return None

    def reader_senses_packed(
        self,
        tags: np.ndarray,
        slots: np.ndarray,
        tier1: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        return tier1[tags]


#: Per-chunk bound on the number of Bernoulli draws the lossy pair path
#: materializes at once (8 bytes each), and on the (pair, neighbour)
#: events the kernel's CSR step expands at once (one draw each).
_LOSSY_DRAW_CHUNK = 1 << 17


class LossyChannel(Channel):
    """Independent per-link, per-slot sensing failures.

    ``loss`` is the probability that a given listener fails to sense a given
    transmitter in a given slot.  Multiple simultaneous transmitters in one
    slot each get an independent chance to be sensed, so collisions *help*
    reliability under this model — another benign-collision effect.

    Both frame interfaces consume the ``repro-channel-rng-v1`` draw stream
    (see the module docstring): the big-int methods are the scalar
    reference implementation, and the pair methods draw the identical
    stream in chunks and look each event's draw up by its position — so
    for a fixed seed the two produce bit-identical results, which is what
    lets ``engine="auto"`` route lossy sessions onto the vectorized
    kernel.
    """

    supports_packed = True

    def __init__(self, loss: float):
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        self.loss = loss

    @property
    def is_perfect(self) -> bool:
        """``loss == 0.0`` degenerates to the perfect channel: the contract
        consumes no draws, so never calling the channel is exact."""
        return type(self) is LossyChannel and self.loss == 0.0

    def _thin(self, mask: int, rng: np.random.Generator) -> int:
        """Randomly clear each set bit of ``mask`` with probability loss.

        One scalar draw per set bit, LSB first — the reference consumer of
        the ``repro-channel-rng-v1`` stream for one edge (or one tier-1
        reader sensing).
        """
        if self.loss == 0.0 or not mask:
            return mask
        out = 0
        bits = mask
        while bits:
            low = bits & -bits
            if rng.random() >= self.loss:
                out |= low
            bits ^= low
        return out

    def propagate(
        self,
        transmit: Sequence[int],
        indptr: np.ndarray,
        indices: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> List[int]:
        if rng is None:
            raise ValueError("LossyChannel.propagate requires an rng")
        heard = [0] * len(transmit)
        for u, mask in enumerate(transmit):
            if not mask:
                continue
            for t in indices[indptr[u] : indptr[u + 1]].tolist():
                heard[t] |= self._thin(mask, rng)
        return heard

    def reader_senses(
        self,
        transmit: Sequence[int],
        tier1: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> int:
        if rng is None:
            raise ValueError("LossyChannel.reader_senses requires an rng")
        busy = 0
        for u in np.flatnonzero(tier1).tolist():
            busy |= self._thin(transmit[u], rng)
        return busy

    def propagate_packed(
        self,
        tags: np.ndarray,
        slots: np.ndarray,
        indptr: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]]:
        """Draw the frame's whole propagation block in contract order.

        Stream-identical to :meth:`propagate` from the same rng state:
        transmitter ``u``'s ``c`` pairs (slots ascending = LSB first) and
        ``d`` neighbours own ``d * c`` consecutive draws, neighbour-major,
        after every lower-indexed transmitter's.  The draws are taken
        :data:`_LOSSY_DRAW_CHUNK` at a time (rounded down to whole bytes)
        and kept as one bit each; ``survives`` reads pair ``j``'s event
        at ``rank`` from bit ``first[j] + rank * stride[j]``.
        """
        if rng is None:
            raise ValueError("LossyChannel.propagate_packed requires an rng")
        if self.loss == 0.0:
            return None
        order = np.lexsort((slots, tags))
        tag = tags[order]
        start = np.flatnonzero(np.diff(tag, prepend=-1))
        count = np.diff(np.append(start, tag.size))
        degree = indptr[tag[start] + 1] - indptr[tag[start]]
        block = degree * count
        offset = np.cumsum(block) - block
        run = np.repeat(np.arange(start.size), count)
        first = np.empty(tag.size, dtype=np.int64)
        stride = np.empty(tag.size, dtype=np.int64)
        first[order] = offset[run] + np.arange(tag.size) - start[run]
        stride[order] = count[run]
        total = int(block.sum())
        kept = np.empty((total + 7) // 8, dtype=np.uint8)
        step = max(8, _LOSSY_DRAW_CHUNK - _LOSSY_DRAW_CHUNK % 8)
        for lo in range(0, total, step):
            kept[lo // 8 : lo // 8 + step // 8] = np.packbits(
                rng.random(min(step, total - lo)) >= self.loss,
                bitorder="little",
            )

        def survives(pair: np.ndarray, rank: np.ndarray) -> np.ndarray:
            at = first[pair] + rank * stride[pair]
            return (kept[at >> 3] >> (at & 7).astype(np.uint8)) & 1 == 1

        return survives

    def reader_senses_packed(
        self,
        tags: np.ndarray,
        slots: np.ndarray,
        tier1: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Contract-ordered tier-1 sensing: one draw per tier-1 pair, tags
        ascending and slots ascending within a tag (see :meth:`_thin`)."""
        if rng is None:
            raise ValueError(
                "LossyChannel.reader_senses_packed requires an rng"
            )
        sensed = tier1[tags]
        if self.loss > 0.0:
            at = np.flatnonzero(sensed)
            at = at[np.lexsort((slots[at], tags[at]))]
            sensed[at] = rng.random(at.size) >= self.loss
        return sensed
