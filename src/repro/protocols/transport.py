"""Frame transports: how a status bitmap physically gets to the reader.

The system-level protocols (GMLE estimation, TRP missing-tag detection) are
defined over an abstract primitive: *the reader issues a request (f, p, seed)
and receives back an f-bit status bitmap*.  Theorem 1 of the paper says CCM
realises this primitive in a multi-hop networked-tag system with a bitmap
identical to the traditional single-hop one.  We encode that structure
directly: each protocol takes a :class:`FrameTransport`, and we provide

* :class:`TraditionalTransport` — the classic one-hop RFID reader (all tags
  in direct range); the reference for Theorem-1 equivalence tests;
* :class:`CCMTransport` — a CCM session (Algorithm 1) over a multi-hop
  :class:`~repro.net.topology.Network`;
* :class:`MultiReaderCCMTransport` — Sec. III-G's round-robin multi-reader
  variant.

Transports accumulate per-tag energy and slot counts across every frame
they carry, which is what the evaluation tables measure.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.bitmap import Bitmap
from repro.core.multireader import run_multireader_session
from repro.core.session import CCMConfig, SessionResult, run_session, slot_matrix
from repro.net.channel import Channel
from repro.net.energy import EnergyLedger
from repro.net.timing import SlotCount
from repro.net.topology import Network, Reader, tag_id_array
from repro.sim.rng import TagHasher, as_uint64


@dataclass
class FrameOutcome:
    """What one request/frame exchange produced."""

    bitmap: Bitmap
    slots: SlotCount
    rounds: int = 1
    terminated_cleanly: bool = True


def frame_picks(
    tag_ids: Sequence[int], frame_size: int, probability: float, seed: int
) -> np.ndarray:
    """Per-tag slot picks for a request (f, p, seed), as an int64 array.

    A tag participates with probability ``p`` and, if so, pseudo-randomly
    selects one slot — both decisions are deterministic functions of
    (tag ID, seed), evaluated identically by tags and by a predicting
    reader.  Non-participants get -1.  Evaluated over the whole ID array
    at once; the values are those of :meth:`TagHasher.participates` and
    :meth:`TagHasher.slot_of` per tag.  (Frames beyond 2**63 slots, whose
    picks may not fit int64, get an object array of Python ints.)
    """
    hasher = TagHasher(seed)
    ids = as_uint64(tag_ids)
    # object dtype only when a slot may not fit in int64
    picks = np.full(ids.size, -1, dtype=np.int64 if frame_size <= 2**63 else object)
    if not ids.size:
        return picks
    if probability >= 1.0:
        picks[:] = hasher.slot_of_array(ids, frame_size)
        return picks
    joins = hasher.participates_array(ids, probability)
    if joins.any():
        picks[joins] = hasher.slot_of_array(ids[joins], frame_size)
    return picks


def search_slots(
    tag_ids: Sequence[int], frame_size: int, k_hashes: int, seed: int
) -> np.ndarray:
    """Per-tag slots for a search request (f, k, seed), as an ``(n, k)``
    pick matrix: row i holds tag i's ``k_hashes`` hashed slots (Sec.
    III-B), in hash order, repeats included — the values of
    :meth:`TagHasher.slots_of` per tag.  (Frames beyond 2**63 slots get
    an object array of Python ints, as in :func:`frame_picks`.)
    """
    ids = as_uint64(tag_ids)
    dtype = np.int64 if frame_size <= 2**63 else object
    if not ids.size:
        return np.empty((0, k_hashes), dtype=dtype)
    slots = TagHasher(seed).slots_of_array(ids, frame_size, k_hashes)
    return slots.T.astype(dtype)


class FrameTransport(abc.ABC):
    """A channel between the reader and a fixed tag population."""

    def __init__(self, n_tags: int):
        self._ledger = EnergyLedger(n_tags)
        self._slots = SlotCount()
        self.frames_run = 0

    @property
    @abc.abstractmethod
    def tag_ids(self) -> np.ndarray:
        """IDs of the tags this transport serves."""

    @abc.abstractmethod
    def run_pick_frame(self, frame_size: int, picks: Sequence) -> FrameOutcome:
        """Execute one frame with the given per-tag picks: 1-D (one slot
        per tag, -1 = silent) or a 2-D pick matrix (a slot set per tag),
        validated by :func:`~repro.core.session.slot_matrix`.  Protocols
        whose slot distribution is not uniform (e.g. LoF's geometric
        hashing) call this directly.  The picks must still be a
        deterministic function of (tag ID, seed) computed by the caller,
        or the transports stop being interchangeable."""

    def run_frame(
        self, frame_size: int, probability: float, seed: int
    ) -> FrameOutcome:
        """Execute one request (f, p, seed) and return the status bitmap."""
        return self.run_pick_frame(
            frame_size, frame_picks(self.tag_ids, frame_size, probability, seed)
        )

    def run_search_frame(
        self, frame_size: int, k_hashes: int, seed: int
    ) -> FrameOutcome:
        """Execute one multi-bit search request (f, k, seed): every tag
        sets its k hashed slots."""
        return self.run_pick_frame(
            frame_size, search_slots(self.tag_ids, frame_size, k_hashes, seed)
        )

    @property
    def ledger(self) -> EnergyLedger:
        """Per-tag energy accumulated over all frames so far."""
        return self._ledger

    @property
    def slots(self) -> SlotCount:
        """Execution time accumulated over all frames so far."""
        return self._slots

    def _record(self, outcome: FrameOutcome) -> FrameOutcome:
        self._slots += outcome.slots
        self.frames_run += 1
        return outcome


class TraditionalTransport(FrameTransport):
    """Single-hop reader covering every tag directly (the classic model).

    The status bitmap is simply the union of the participants' picks — a
    busy slot is a slot some tag transmitted in, collisions included.  Each
    tag spends one transmitted bit per distinct slot it sets; there is no
    relaying and no idle listening (traditional tags only talk to the
    reader).
    """

    def __init__(self, tag_ids: Sequence[int]):
        ids = tag_id_array(tag_ids)
        super().__init__(len(ids))
        self._tag_ids = ids

    @property
    def tag_ids(self) -> np.ndarray:
        return self._tag_ids

    def run_pick_frame(self, frame_size: int, picks: Sequence) -> FrameOutcome:
        slots = slot_matrix(len(self._tag_ids), frame_size, picks)
        self._ledger.add_sent_bulk((slots >= 0).sum(axis=1, dtype=np.float64))
        return self._record(
            FrameOutcome(
                bitmap=_union_bitmap(frame_size, slots),
                slots=SlotCount(short_slots=frame_size),
            )
        )


class CCMTransport(FrameTransport):
    """A CCM session per frame over a multi-hop networked-tag system."""

    def __init__(
        self,
        network: Network,
        checking_frame_length: Optional[int] = None,
        use_indicator_vector: bool = True,
        channel: Optional[Channel] = None,
        rng: Optional[np.random.Generator] = None,
        engine: str = "auto",
    ):
        super().__init__(network.n_tags)
        self.network = network
        self.checking_frame_length = checking_frame_length
        self.use_indicator_vector = use_indicator_vector
        self.channel = channel
        self.rng = rng
        self.engine = engine
        self.sessions: List[SessionResult] = []

    @property
    def tag_ids(self) -> np.ndarray:
        return self.network.tag_ids

    def run_pick_frame(self, frame_size: int, picks: Sequence) -> FrameOutcome:
        config = CCMConfig(
            frame_size=frame_size,
            checking_frame_length=self.checking_frame_length,
            use_indicator_vector=self.use_indicator_vector,
        )
        result = run_session(
            self.network,
            picks,
            config=config,
            channel=self.channel,
            rng=self.rng,
            ledger=self._ledger,
            engine=self.engine,
        )
        self.sessions.append(result)
        return self._record(
            FrameOutcome(
                bitmap=result.bitmap,
                slots=result.slots,
                rounds=result.rounds,
                terminated_cleanly=result.terminated_cleanly,
            )
        )


class MultiReaderCCMTransport(FrameTransport):
    """Round-robin multi-reader CCM (Sec. III-G, Eq. 1)."""

    def __init__(
        self,
        positions: np.ndarray,
        readers: Sequence[Reader],
        tag_range: float,
        tag_ids: Optional[Sequence[int]] = None,
        checking_frame_length: Optional[int] = None,
        channel: Optional[Channel] = None,
        rng: Optional[np.random.Generator] = None,
        engine: str = "auto",
    ):
        positions = np.asarray(positions, dtype=np.float64)
        n = positions.shape[0]
        super().__init__(n)
        self.positions = positions
        self.readers = list(readers)
        self.tag_range = tag_range
        self._tag_ids = tag_id_array(tag_ids, n)
        self.checking_frame_length = checking_frame_length
        self.channel = channel
        self.rng = rng
        self.engine = engine

    @property
    def tag_ids(self) -> np.ndarray:
        return self._tag_ids

    def run_pick_frame(self, frame_size: int, picks: Sequence) -> FrameOutcome:
        result = run_multireader_session(
            self.positions,
            self.readers,
            self.tag_range,
            picks,
            CCMConfig(
                frame_size=frame_size,
                checking_frame_length=self.checking_frame_length,
            ),
            tag_ids=self._tag_ids,
            channel=self.channel,
            rng=self.rng,
            engine=self.engine,
        )
        self._ledger.merge(result.ledger)
        return self._record(
            FrameOutcome(bitmap=result.bitmap, slots=result.slots)
        )


def ideal_bitmap(
    tag_ids: Sequence[int], frame_size: int, probability: float, seed: int
) -> Bitmap:
    """The bitmap a perfect observer of all tags would record — used by
    Theorem-1 tests and by TRP's reader-side prediction."""
    return _union_bitmap(
        frame_size, frame_picks(tag_ids, frame_size, probability, seed)
    )


def _union_bitmap(frame_size: int, picks: np.ndarray) -> Bitmap:
    """The busy slots of a single-hop frame: the union of the picks
    (1-D picks or a slot matrix)."""
    return Bitmap.from_indices(
        frame_size, np.unique(picks[picks >= 0]).tolist()
    )
