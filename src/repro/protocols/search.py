"""Tag search — the third system-level function of the information model.

Sec. III-B: "If each tag chooses multiple random slots in the time frame,
we can perform tag search based on the bitmap [14], [15]."  The reader
holds a *wanted list* (e.g. a recall notice) and asks: which wanted tags
are in the field?  Every present tag sets its k hashed slots; the reader
tests each wanted ID against the collected bitmap — exactly a Bloom-filter
membership query:

* if **any** of a wanted tag's k slots is idle, the tag is *definitively
  absent* (it would have set that slot);
* if **all** k slots are busy, the tag is *probably present*; an absent
  tag survives by accident with probability ≈ (1 − e^(−kn/f))^k — the
  Bloom false-positive rate, driven arbitrarily low by repeating rounds
  with fresh seeds and intersecting the candidate sets.

Unlike estimation and detection, this function is not evaluated in the
paper — it is the third application its information model explicitly
anticipates, so we provide it as a documented extension, layered on the
same transports (Theorem 1 makes CCM and single-hop interchangeable here
too, which the tests check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.core.bitmap import Bitmap
from repro.net.timing import SlotCount
from repro.protocols.transport import FrameTransport, search_slots


def optimal_hash_count(frame_size: int, n_present: float) -> int:
    """Bloom-optimal k = (f/n) ln 2, clamped to at least 1."""
    if frame_size <= 0:
        raise ValueError("frame_size must be positive")
    if n_present <= 0:
        raise ValueError("n_present must be positive")
    return max(1, round(frame_size / n_present * math.log(2.0)))


def false_positive_probability(
    frame_size: int, n_present: float, k_hashes: int
) -> float:
    """Probability an absent wanted tag tests 'present' in one round."""
    if k_hashes <= 0:
        raise ValueError("k_hashes must be positive")
    fill = 1.0 - (1.0 - 1.0 / frame_size) ** (k_hashes * n_present)
    return fill**k_hashes


def search_frame_size(
    n_present: float, fp_target: float, k_hashes: Optional[int] = None
) -> int:
    """Smallest frame meeting a per-round false-positive target.

    With the Bloom-optimal k this is the classic f = −n ln(fp)/(ln 2)²;
    with a fixed k we solve (1 − e^(−kn/f))^k ≤ fp for f.
    """
    if not 0.0 < fp_target < 1.0:
        raise ValueError("fp_target must be in (0, 1)")
    if n_present <= 0:
        raise ValueError("n_present must be positive")
    if k_hashes is None:
        return math.ceil(
            -n_present * math.log(fp_target) / (math.log(2.0) ** 2)
        )
    fill = fp_target ** (1.0 / k_hashes)
    if fill >= 1.0:
        raise ValueError("infeasible target for this k")
    return math.ceil(-k_hashes * n_present / math.log(1.0 - fill))


@dataclass
class SearchResult:
    """Outcome of a (possibly multi-round) tag search."""

    #: Wanted IDs whose slots were all busy in every round.
    present_candidates: List[int]
    #: Wanted IDs proven absent (some hashed slot idle) — never wrong.
    definitely_absent: List[int]
    rounds: int
    k_hashes: int
    frame_size: int
    slots: SlotCount
    #: Analytic per-survivor residual false-positive probability.
    residual_fp: float
    bitmaps: List[Bitmap] = field(default_factory=list)


@dataclass
class TagSearchProtocol:
    """Bloom-style wanted-tag search over any frame transport.

    Parameters
    ----------
    frame_size:
        f; default sized from the population estimate and ``fp_target``.
    k_hashes:
        Slots set per tag; default Bloom-optimal for (f, n estimate).
    fp_target:
        Residual false-positive probability the whole search (all rounds
        together) should meet.
    """

    frame_size: Optional[int] = None
    k_hashes: Optional[int] = None
    fp_target: float = 0.01

    def plan(self, n_present: float) -> "tuple[int, int, int]":
        """Resolve (f, k, rounds) for a population estimate."""
        f = self.frame_size or search_frame_size(
            n_present, max(self.fp_target, 0.05), self.k_hashes
        )
        k = self.k_hashes or optimal_hash_count(f, n_present)
        per_round = false_positive_probability(f, n_present, k)
        if per_round <= 0.0:
            rounds = 1
        elif per_round >= 1.0:
            raise ValueError(
                "frame too small for the population: every test would be "
                "a false positive"
            )
        else:
            rounds = max(
                1, math.ceil(math.log(self.fp_target) / math.log(per_round))
            )
        return f, k, rounds

    def search(
        self,
        transport: FrameTransport,
        wanted_ids: Sequence[int],
        n_present: Optional[float] = None,
        seed: int = 0,
    ) -> SearchResult:
        """Run search rounds until the residual FP target is met.

        ``n_present`` is the population estimate used for sizing (run
        GMLE first if unknown); it defaults to the transport's population.
        """
        wanted = [int(w) for w in wanted_ids]
        if not wanted:
            raise ValueError("wanted list is empty")
        estimate = float(
            n_present if n_present is not None else len(transport.tag_ids)
        )
        f, k, rounds = self.plan(estimate)

        candidates: Set[int] = set(wanted)
        absent: Set[int] = set()
        total_slots = SlotCount()
        bitmaps: List[Bitmap] = []
        for j in range(rounds):
            round_seed = seed + 104_729 * j
            outcome = transport.run_search_frame(f, k, round_seed)
            bitmaps.append(outcome.bitmap)
            total_slots += outcome.slots
            bits = outcome.bitmap.bits.to_bytes(-(-f // 8), "little")
            busy = np.unpackbits(np.frombuffer(bits, np.uint8), bitorder="little")
            ids = sorted(candidates)
            hit = busy[search_slots(ids, f, k, round_seed)].all(axis=1)
            gone = {tid for tid, found in zip(ids, hit) if not found}
            candidates -= gone
            absent |= gone
            if not candidates:
                break
        per_round = false_positive_probability(f, estimate, k)
        return SearchResult(
            present_candidates=sorted(candidates),
            definitely_absent=sorted(absent),
            rounds=len(bitmaps),
            k_hashes=k,
            frame_size=f,
            slots=total_slots,
            residual_fp=per_round ** len(bitmaps),
            bitmaps=bitmaps,
        )
