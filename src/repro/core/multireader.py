"""Multi-reader CCM (Sec. III-G).

With M readers, each reader runs Algorithm 1 in its own time window (the
paper schedules readers round-robin when their signals would collide, or in
parallel when not), and the session bitmap is the bitwise OR of the
per-reader bitmaps (Eq. 1):

    B = B_1 | B_2 | ... | B_M

Each reader's window involves exactly the tags inside its broadcast range R
(only they hear its request); a tag covered by several readers participates
in each window with the *same* slot pick, because picks are a deterministic
hash of (tag ID, session seed) — repeated participation just re-asserts the
same busy slots, which the OR absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.bitmap import Bitmap
from repro.core.session import CCMConfig, SessionResult, run_session, slot_matrix
from repro.net.channel import Channel
from repro.net.energy import EnergyLedger
from repro.net.geometry import check_positions, pairwise_distance
from repro.net.timing import SlotCount
from repro.net.topology import Network, Reader, tag_id_array


@dataclass
class MultiReaderResult:
    """Combined outcome of one multi-reader CCM session."""

    bitmap: Bitmap
    per_reader: List[SessionResult]
    slots: SlotCount
    ledger: EnergyLedger
    #: Tags not covered (within R) of any reader — "not in the system".
    uncovered: np.ndarray

    @property
    def total_slots(self) -> int:
        return self.slots.total_slots


def run_multireader_session(
    positions: np.ndarray,
    readers: Sequence[Reader],
    tag_range: float,
    picks: Sequence,
    config: CCMConfig,
    tag_ids: Optional[Sequence[int]] = None,
    channel: Optional[Channel] = None,
    rng: Optional[np.random.Generator] = None,
    engine: str = "auto",
) -> MultiReaderResult:
    """Round-robin the readers, each collecting a bitmap via Algorithm 1.

    ``picks`` (as for :func:`~repro.core.session.run_session`) and
    ``tag_ids`` are indexed by the global tag population; ``picks`` is
    validated over all of it, uncovered tags included.  The combined
    ledger is too, so energy per physical tag aggregates across every
    window it participates in.  ``engine`` selects the per-window
    session engine (see :mod:`repro.core.engine`).
    """
    positions = check_positions(positions)
    n = positions.shape[0]
    slots = slot_matrix(n, config.frame_size, picks)
    if not readers:
        raise ValueError("at least one reader is required")
    ids = tag_id_array(tag_ids, n)

    combined_ledger = EnergyLedger(n)
    combined_slots = SlotCount()
    combined_bits = 0
    per_reader: List[SessionResult] = []
    covered_any = np.zeros(n, dtype=bool)

    for reader in readers:
        # tags that hear this request (Network.covered_by's test)
        in_window = (
            pairwise_distance(positions, reader.position)
            <= reader.reader_to_tag_range
        )
        covered_any |= in_window
        window_idx = np.flatnonzero(in_window)
        if window_idx.size == 0:
            per_reader.append(
                SessionResult(
                    bitmap=Bitmap(config.frame_size),
                    rounds=0,
                    slots=SlotCount(),
                    ledger=EnergyLedger(0),
                )
            )
            continue
        window_net = Network.build(
            positions[window_idx],
            [reader],
            tag_range,
            tag_ids=ids[window_idx],
        )
        result = run_session(
            window_net,
            slots[window_idx],
            config=config,
            channel=channel,
            rng=rng,
            engine=engine,
        )
        per_reader.append(result)
        combined_bits |= result.bitmap.bits
        combined_slots += result.slots
        combined_ledger.bits_sent[window_idx] += result.ledger.bits_sent
        combined_ledger.bits_received[window_idx] += result.ledger.bits_received

    return MultiReaderResult(
        bitmap=Bitmap(config.frame_size, combined_bits),
        per_reader=per_reader,
        slots=combined_slots,
        ledger=combined_ledger,
        uncovered=~covered_any,
    )
