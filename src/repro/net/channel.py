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
* the **packed-word** interface (:meth:`Channel.propagate_packed` /
  :meth:`Channel.reader_senses_packed`): ``transmit`` is an
  ``(n, ceil(f/64))`` uint64 array, and propagation is a segment-wise
  ``np.bitwise_or.reduceat`` over the CSR adjacency
  (:func:`or_reduce_segments`).

Third-party channels only have to implement the big-int interface; the
packed methods default to "unsupported" and the vectorized kernel refuses
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
the packed interface batches the identical stream, relying on the NumPy
``Generator`` guarantee that ``rng.random(k)`` equals ``k`` successive
scalar draws.  The contract version participates in
:func:`repro.store.fingerprint.code_fingerprint`, so changing it
invalidates memoized trial results.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

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

    This is one CCM data frame's physical layer as a word-parallel kernel:
    ``rows`` is the ``(n, W)`` uint64 transmit array and the result is what
    every tag hears (before half-duplex masking).

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

    #: True when the packed-word interface below is implemented; the
    #: vectorized kernel (:mod:`repro.core.batch`) checks this before
    #: dispatching.
    supports_packed = False

    @property
    def is_perfect(self) -> bool:
        """True when this channel is *exactly* reliable busy/idle sensing.

        The vectorized kernel uses this to route sessions onto the slot-major
        fast path, which never calls the channel and never draws
        randomness — so it must hold only for channels whose propagation
        is the plain neighbourhood OR.  Deliberately strict about types:
        a subclass may override propagation, so it reports False and stays
        on the channel-driven path.
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

    # -- packed-word interface (optional) -----------------------------------

    def propagate_packed(
        self,
        transmit: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """:meth:`propagate` over an ``(n, ceil(f/64))`` uint64 array."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the packed-word "
            "channel interface; run sessions with engine='bigint'"
        )

    def reader_senses_packed(
        self,
        transmit: np.ndarray,
        tier1: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """:meth:`reader_senses` over packed words -> a ``(W,)`` word run."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the packed-word "
            "channel interface; run sessions with engine='bigint'"
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
        transmit: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        return or_reduce_segments(
            transmit, indptr, indices, row_filter=transmit.any(axis=1)
        )

    def reader_senses_packed(
        self,
        transmit: np.ndarray,
        tier1: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        rows = transmit[tier1]
        if rows.shape[0] == 0:
            return np.zeros(transmit.shape[1], dtype=transmit.dtype)
        return np.bitwise_or.reduce(rows, axis=0)


def _set_bits(words: np.ndarray):
    """``(row, column)`` of every set bit of a 2-D unsigned word array, in
    row-major order with bits LSB first within a row (for uint64 words,
    column ``64 * w + b`` is bit ``b`` of word ``w``).

    Scans the words first and unpacks only the non-zero ones, so a sparse
    frame costs O(non-zero words), not O(rows × bits).  Both scans run
    over boolean arrays, numpy's fast nonzero path.
    """
    width = 8 * words.dtype.itemsize
    cells = np.flatnonzero(words != 0)
    bits = np.unpackbits(
        words.reshape(-1)[cells].view(np.uint8), bitorder="little"
    ).view(bool)
    hit = np.flatnonzero(bits)
    row, col = np.divmod(cells[hit // width], words.shape[1])
    return row, col * width + hit % width


#: Per-chunk bound on the number of Bernoulli draws the packed lossy path
#: materializes at once (each draw carries a float64 plus a few int64
#: scratch columns, so this is ~200 MB peak at the default).
_LOSSY_DRAW_CHUNK = 1 << 22


class LossyChannel(Channel):
    """Independent per-link, per-slot sensing failures.

    ``loss`` is the probability that a given listener fails to sense a given
    transmitter in a given slot.  Multiple simultaneous transmitters in one
    slot each get an independent chance to be sensed, so collisions *help*
    reliability under this model — another benign-collision effect.

    Both frame interfaces consume the ``repro-channel-rng-v1`` draw stream
    (see the module docstring): the big-int methods are the scalar
    reference implementation, and the packed methods batch the identical
    draws with word-level masking — so for a fixed seed the two produce
    bit-identical results, which is what lets ``engine="auto"`` route
    lossy sessions onto the vectorized kernel.
    """

    supports_packed = True

    def __init__(self, loss: float, frame_size_hint: Optional[int] = None):
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {loss}")
        self.loss = loss
        self._frame_size_hint = frame_size_hint

    @property
    def is_perfect(self) -> bool:
        """``loss == 0.0`` degenerates to the perfect channel: the contract
        consumes no draws, so the silent slot-major fast path is exact."""
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
        transmit: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Contract-ordered batched thinning over the CSR adjacency.

        Bit-identical to :meth:`propagate` from the same rng state: draws
        are taken with ``rng.random(k)`` calls batched across whole
        transmitter rows (stream-equivalent to one scalar draw per bit),
        and each row's survivors scatter into a flat per-(tag, slot) bit
        matrix through one broadcast ``targets × set-bit-columns`` linear
        index — no per-draw index arithmetic, no per-tag Python-int work.
        """
        if rng is None:
            raise ValueError("LossyChannel.propagate_packed requires an rng")
        if self.loss == 0.0:
            return or_reduce_segments(
                transmit, indptr, indices, row_filter=transmit.any(axis=1)
            )
        n, n_words = transmit.shape
        f_bits = n_words * 64
        heard_flat = np.zeros(n * f_bits, dtype=np.uint8)
        active = np.flatnonzero(transmit.any(axis=1))
        if active.size:
            # Set-bit positions of every active transmitter, row-major and
            # LSB first within a row: the order the contract draws them.
            pos_row, pos_col = _set_bits(transmit[active])
            counts = np.bincount(pos_row, minlength=active.size)
            pos_start = np.zeros(active.size + 1, dtype=np.int64)
            np.cumsum(counts, out=pos_start[1:])
            deg = (indptr[active + 1] - indptr[active]).astype(np.int64)
            # Row i consumes deg[i] * counts[i] draws (edge-major, then
            # bit within edge).  Batch the rng over runs of whole rows so
            # chunked rng.random calls read the stream exactly as one big
            # call would, then process each row from its slice of the
            # buffer.
            row_bounds = np.zeros(active.size + 1, dtype=np.int64)
            np.cumsum(deg * counts, out=row_bounds[1:])
            loss = self.loss
            a = 0
            while a < active.size:
                b = int(
                    np.searchsorted(
                        row_bounds, row_bounds[a] + _LOSSY_DRAW_CHUNK, "right"
                    )
                ) - 1
                b = min(max(b, a + 1), active.size)
                n_draws = int(row_bounds[b] - row_bounds[a])
                if n_draws == 0:
                    a = b
                    continue
                keep = rng.random(n_draws) >= loss
                offset = 0
                for i in range(a, b):
                    d = deg[i]
                    c = counts[i]
                    nd = int(d) * int(c)
                    if nd == 0:
                        continue
                    row_keep = keep[offset : offset + nd]
                    offset += nd
                    u = active[i]
                    targets = indices[indptr[u] : indptr[u] + d]
                    cols = pos_col[pos_start[i] : pos_start[i] + c]
                    # (d, c) broadcast in C order matches the draw order;
                    # duplicate (tag, slot) survivors from different edges
                    # just set the same bit — the OR of the big-int path.
                    lin = (
                        targets[:, None] * f_bits + cols[None, :]
                    ).reshape(-1)
                    heard_flat[lin[row_keep]] = 1
                a = b
        return np.packbits(
            heard_flat.reshape(n, f_bits), axis=1, bitorder="little"
        ).view(np.uint64)

    def reader_senses_packed(
        self,
        transmit: np.ndarray,
        tier1: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Contract-ordered batched tier-1 sensing (see :meth:`_thin`)."""
        if rng is None:
            raise ValueError(
                "LossyChannel.reader_senses_packed requires an rng"
            )
        n_words = transmit.shape[1]
        if self.loss == 0.0:
            rows = transmit[tier1]
            if rows.shape[0] == 0:
                return np.zeros(n_words, dtype=transmit.dtype)
            return np.bitwise_or.reduce(rows, axis=0)
        _, pos_col = _set_bits(transmit[tier1])
        busy_bits = np.zeros(n_words * 64, dtype=np.uint8)
        if pos_col.size:
            keep = rng.random(pos_col.size) >= self.loss
            busy_bits[pos_col[keep]] = 1
        return np.packbits(busy_bits, bitorder="little").view(np.uint64)
