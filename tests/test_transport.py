"""Tests for repro.protocols.transport — the frame-transport abstraction."""

import numpy as np
import pytest

from repro.net.geometry import Point
from repro.net.topology import Network, Reader
from repro.protocols.transport import (
    CCMTransport,
    MultiReaderCCMTransport,
    TraditionalTransport,
    frame_picks,
    ideal_bitmap,
    search_slots,
)


def search_masks(tag_ids, frame_size, k_hashes, seed):
    """Each tag's ``search_slots`` row as an f-bit mask (its slot set)."""
    rows = search_slots(tag_ids, frame_size, k_hashes, seed).tolist()
    return [sum(1 << s for s in set(row)) for row in rows]


class TestFramePicks:
    def test_full_participation(self):
        picks = frame_picks([1, 2, 3], 16, 1.0, seed=0)
        assert all(0 <= s < 16 for s in picks)

    def test_zero_participation(self):
        assert frame_picks([1, 2, 3], 16, 0.0, seed=0).tolist() == [-1, -1, -1]

    def test_deterministic(self):
        assert (
            frame_picks([5, 6], 100, 0.5, 9).tolist()
            == frame_picks([5, 6], 100, 0.5, 9).tolist()
        )

    def test_partial_participation_rate(self):
        ids = list(range(1, 5001))
        picks = frame_picks(ids, 64, 0.3, seed=2)
        rate = sum(s >= 0 for s in picks) / len(picks)
        assert abs(rate - 0.3) < 0.03

    def test_ideal_bitmap_matches_picks(self):
        ids = [10, 20, 30]
        picks = frame_picks(ids, 32, 1.0, seed=4)
        bm = ideal_bitmap(ids, 32, 1.0, seed=4)
        assert sorted(set(picks)) == list(bm.indices())


class TestTraditionalTransport:
    def test_bitmap_is_union_of_picks(self):
        transport = TraditionalTransport([1, 2, 3, 4])
        outcome = transport.run_frame(16, 1.0, seed=7)
        assert outcome.bitmap == ideal_bitmap([1, 2, 3, 4], 16, 1.0, 7)

    def test_slots_counted(self):
        transport = TraditionalTransport([1, 2])
        transport.run_frame(16, 1.0, seed=1)
        transport.run_frame(16, 1.0, seed=2)
        assert transport.slots.total_slots == 32
        assert transport.frames_run == 2

    def test_energy_one_bit_per_participant(self):
        transport = TraditionalTransport([1, 2, 3])
        transport.run_frame(16, 1.0, seed=1)
        assert transport.ledger.bits_sent.tolist() == [1.0, 1.0, 1.0]
        assert transport.ledger.bits_received.sum() == 0.0

    def test_non_participants_send_nothing(self):
        transport = TraditionalTransport(list(range(1, 101)))
        transport.run_frame(64, 0.0, seed=1)
        assert transport.ledger.bits_sent.sum() == 0.0


class TestCCMTransport:
    def test_equivalence_with_traditional(self, small_network):
        ccm = CCMTransport(small_network)
        out = ccm.run_frame(128, 1.0, seed=3)
        reachable = small_network.tag_ids[small_network.reachable_mask]
        assert out.bitmap == ideal_bitmap(reachable, 128, 1.0, 3)
        assert out.terminated_cleanly

    def test_sessions_recorded(self, small_network):
        ccm = CCMTransport(small_network)
        ccm.run_frame(64, 0.5, seed=1)
        ccm.run_frame(64, 0.5, seed=2)
        assert len(ccm.sessions) == 2
        assert ccm.frames_run == 2

    def test_ledger_accumulates_across_frames(self, small_network):
        ccm = CCMTransport(small_network)
        ccm.run_frame(64, 1.0, seed=1)
        after_one = ccm.ledger.bits_received.sum()
        ccm.run_frame(64, 1.0, seed=2)
        assert ccm.ledger.bits_received.sum() > after_one

    def test_indicator_ablation_passthrough(self, small_network):
        ccm = CCMTransport(small_network, use_indicator_vector=False)
        out = ccm.run_frame(64, 1.0, seed=1)
        reachable = small_network.tag_ids[small_network.reachable_mask]
        assert out.bitmap == ideal_bitmap(reachable, 64, 1.0, 1)

    def test_tag_ids_exposed(self, small_network):
        ccm = CCMTransport(small_network)
        assert np.array_equal(ccm.tag_ids, small_network.tag_ids)


class TestMultiReaderTransport:
    def test_covers_split_field(self):
        positions = np.array(
            [[1.0, 0.0], [2.0, 0.0], [21.0, 0.0], [22.0, 0.0]]
        )
        readers = [
            Reader(Point(0, 0), 5.0, 1.5),
            Reader(Point(20, 0), 5.0, 1.5),
        ]
        transport = MultiReaderCCMTransport(
            positions, readers, tag_range=1.2
        )
        out = transport.run_frame(32, 1.0, seed=5)
        assert out.bitmap == ideal_bitmap([1, 2, 3, 4], 32, 1.0, 5)

    def test_requires_reader(self):
        positions = np.array([[1.0, 0.0]])
        transport = MultiReaderCCMTransport(positions, [], tag_range=1.0)
        with pytest.raises(ValueError):
            transport.run_frame(8, 1.0, seed=0)


# Reader A at the origin reaches tags 1-2; tag 3 is inside its range R but
# out of hop range of them; reader B reaches tags 4-5; tag 6 is outside
# every reader's range.
_FIELD = np.array(
    [[1.0, 0.0], [2.0, 0.0], [4.5, 0.0], [21.0, 0.0], [22.0, 0.0], [50.0, 0.0]]
)
_READERS = [Reader(Point(0, 0), 5.0, 1.5), Reader(Point(20, 0), 5.0, 1.5)]
_FIELD_IDS = [1, 2, 3, 4, 5, 6]


def _field_transports():
    """The three transports over the same six tags."""
    return [
        TraditionalTransport(_FIELD_IDS),
        CCMTransport(
            Network.build(_FIELD, _READERS[:1], 1.2, tag_ids=_FIELD_IDS)
        ),
        MultiReaderCCMTransport(_FIELD, _READERS, tag_range=1.2),
    ]


class TestPickValidation:
    """Every transport validates picks once, through ``slot_matrix``, and
    rejects bad ones with the same ValueError."""

    @pytest.mark.parametrize(
        "picks, message",
        [
            ([0, 1, 2], r"picks has 3 entries for 6 tags"),
            ([0, 1, 8, -1, -1, -1], r"pick 8 out of range for frame 8"),
            (np.zeros((6, 1, 1)), r"picks has \(6, 1, 1\) entries for 6 tags"),
            ([0, 1, 2, 3, 4, 999], r"pick 999 out of range for frame 8"),
        ],
        ids=["wrong length", "pick >= f", "3-D", "uncovered tag"],
    )
    def test_bad_picks_raise_alike(self, picks, message):
        for transport in _field_transports():
            with pytest.raises(ValueError, match=f"^{message}$"):
                transport.run_pick_frame(8, picks)
            assert transport.frames_run == 0


class TestOptionalTransportMethods:
    def test_multireader_search_frame_matches_traditional(self):
        """Eq. 1 with Theorem 1: the OR of the reader windows' search
        bitmaps is the single-hop search bitmap of the tags some reader
        reaches (tags 1, 2, 4 and 5)."""
        multi = MultiReaderCCMTransport(_FIELD, _READERS, tag_range=1.2)
        reached = TraditionalTransport([1, 2, 4, 5])
        for seed in range(5):
            out = multi.run_search_frame(64, 3, seed)
            assert out.bitmap == reached.run_search_frame(64, 3, seed).bitmap
            assert out.bitmap.popcount() > 0

    def test_pick_frame_traditional(self):
        transport = TraditionalTransport([1, 2, 3])
        out = transport.run_pick_frame(8, [0, 0, 5])
        assert list(out.bitmap.indices()) == [0, 5]
        assert transport.ledger.bits_sent.tolist() == [1.0, 1.0, 1.0]

    def test_pick_frame_silent_tags(self):
        transport = TraditionalTransport([1, 2])
        out = transport.run_pick_frame(8, [-1, 3])
        assert list(out.bitmap.indices()) == [3]
        assert transport.ledger.bits_sent.tolist() == [0.0, 1.0]

    def test_pick_frame_length_check(self):
        with pytest.raises(ValueError):
            TraditionalTransport([1, 2]).run_pick_frame(8, [0])

    def test_pick_frame_ccm_equivalence(self, small_network):
        """External picks over CCM equal the single-hop union (Theorem 1
        for arbitrary pick distributions)."""
        import numpy as _np

        rng = _np.random.default_rng(3)
        picks = rng.integers(0, 64, size=small_network.n_tags).tolist()
        ccm = CCMTransport(small_network)
        out = ccm.run_pick_frame(64, picks)
        reachable = small_network.reachable_mask
        expected = sorted(
            {picks[i] for i in range(small_network.n_tags) if reachable[i]}
        )
        assert list(out.bitmap.indices()) == expected


class TestPicksGolden:
    """``frame_picks`` and ``search_slots`` (as per-tag slot-set masks) on
    a fixed ID list, pinned.

    The list mixes small IDs, int64 extremes, negative IDs and Python
    ints at and beyond 2**63 and 2**64 (hashed masked to 64 bits), so the
    tag-side hash stays the same function of (ID, seed) however it is
    evaluated.
    """

    IDS = (
        list(range(1, 301))
        + [2**31 - 1, 2**32, 2**62 + 17, 2**63 - 1, -1, -(2**63), -12345]
        + [2**63, 2**63 + 99, 2**64 - 1, 2**64, 2**64 + 7, 2**96 - 3]
    )

    GOLDEN = {
        "picks_p1": (
            "6a865a735aa061714a7a175c2142698d"
            "fa2a36b165a5002aa05d1bea5b0221fe"
        ),
        "picks_p03": (
            "8fb03455737db44132f83120cbe71173"
            "9343c296f92dd35b0bd6e3164eb79d43"
        ),
        "picks_bigseed": (
            "71c9f3ad8490ef8a70150795bf965ef3"
            "463f5d25ed9fe63e07f30ea1d8213c13"
        ),
        "masks": (
            "97d09e678161ee03e081ac40f6739f77"
            "945e5747fe0e6704af063511da805297"
        ),
        "masks_bigseed": (
            "21e83f8be35358a437e99027dcfbf914"
            "25fa3e5fa34b6098d9f343b9f038a584"
        ),
    }

    @staticmethod
    def _digest(values):
        import hashlib

        return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()

    @pytest.mark.parametrize(
        "name, fn, args",
        [
            ("picks_p1", frame_picks, (1671, 1.0, 5)),
            ("picks_p03", frame_picks, (1671, 0.3, 5)),
            ("picks_bigseed", frame_picks, (97, 0.3, 2**63 + 12345)),
            ("masks", search_masks, (257, 3, 11)),
            ("masks_bigseed", search_masks, (64, 4, 2**64 - 5)),
        ],
    )
    def test_digest_pinned(self, name, fn, args):
        assert self._digest(fn(self.IDS, *args)) == self.GOLDEN[name]
