"""Tests for repro.core.multireader — Sec. III-G / Eq. (1)."""

import numpy as np
import pytest

from repro.core.multireader import run_multireader_session
from repro.core.session import CCMConfig
from repro.net.geometry import Point
from repro.net.topology import Reader
from repro.protocols.transport import ideal_bitmap


def _reader(x, y, big_r=5.0, r_prime=1.5):
    return Reader(Point(x, y), reader_to_tag_range=big_r,
                  tag_to_reader_range=r_prime)


class TestValidation:
    def test_requires_readers(self):
        with pytest.raises(ValueError):
            run_multireader_session(
                np.zeros((1, 2)), [], 1.0, [0], CCMConfig(frame_size=8)
            )

    def test_picks_length(self):
        with pytest.raises(ValueError):
            run_multireader_session(
                np.zeros((2, 2)), [_reader(0, 0)], 1.0, [0],
                CCMConfig(frame_size=8),
            )


    def test_out_of_range_pick_on_uncovered_tag(self):
        """Picks are validated over the whole population, not per window:
        tag 2 is outside the reader's range and still may not pick 999."""
        positions = np.array([[1.0, 0.0], [50.0, 0.0]])
        with pytest.raises(
            ValueError, match="^pick 999 out of range for frame 8$"
        ):
            run_multireader_session(
                positions, [_reader(0, 0)], 1.2, [0, 999],
                CCMConfig(frame_size=8),
            )


class TestTwoReaderField:
    """Two separate clusters, one reader each; no single reader covers both."""

    def setup_method(self):
        # Cluster A near (0,0); cluster B near (20,0).
        self.positions = np.array(
            [[1.0, 0.0], [2.0, 0.0], [21.0, 0.0], [22.0, 0.0]]
        )
        self.readers = [_reader(0.0, 0.0), _reader(20.0, 0.0)]
        self.picks = [0, 1, 2, 3]

    def test_combined_bitmap_is_or_of_windows(self):
        result = run_multireader_session(
            self.positions, self.readers, 1.2, self.picks,
            CCMConfig(frame_size=8),
        )
        assert list(result.bitmap.indices()) == [0, 1, 2, 3]
        # Each per-reader window saw only its cluster.
        assert result.per_reader[0].bitmap.popcount() == 2
        assert result.per_reader[1].bitmap.popcount() == 2

    def test_single_reader_misses_far_cluster(self):
        result = run_multireader_session(
            self.positions, [self.readers[0]], 1.2, self.picks,
            CCMConfig(frame_size=8),
        )
        assert list(result.bitmap.indices()) == [0, 1]
        assert result.uncovered.tolist() == [False, False, True, True]

    def test_slots_are_round_robin_sum(self):
        result = run_multireader_session(
            self.positions, self.readers, 1.2, self.picks,
            CCMConfig(frame_size=8),
        )
        assert result.total_slots == sum(
            p.slots.total_slots for p in result.per_reader
        )

    def test_uncovered_empty_when_both_readers(self):
        result = run_multireader_session(
            self.positions, self.readers, 1.2, self.picks,
            CCMConfig(frame_size=8),
        )
        assert not result.uncovered.any()

    def test_energy_indexed_by_global_tag(self):
        result = run_multireader_session(
            self.positions, self.readers, 1.2, self.picks,
            CCMConfig(frame_size=8),
        )
        assert result.ledger.n_tags == 4
        assert np.all(result.ledger.bits_sent >= 1.0)


class TestOverlappingReaders:
    def test_shared_tag_charged_per_window(self):
        """A tag covered by both readers participates twice; its picks are
        identical, so the OR stays correct while energy doubles."""
        positions = np.array([[2.0, 0.0]])
        readers = [_reader(0.0, 0.0), _reader(4.0, 0.0)]
        # tag is 2.0 from both readers -> covered (R=5) but outside r'
        # (1.5); give it a relay to each reader.
        positions = np.array([[2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        picks = [4, 5, 6]
        result = run_multireader_session(
            positions, readers, 1.2, picks, CCMConfig(frame_size=8)
        )
        reference = ideal_bitmap([1, 2, 3], 8, 1.0, 0)
        # picks were explicit, so compare against the explicit union
        assert list(result.bitmap.indices()) == [4, 5, 6]
        # Middle tag participated in both windows.
        single = run_multireader_session(
            positions, [readers[0]], 1.2, picks, CCMConfig(frame_size=8)
        )
        assert (
            result.ledger.bits_sent[0] >= single.ledger.bits_sent[0]
        )

    def test_reader_with_no_tags_contributes_nothing(self):
        positions = np.array([[1.0, 0.0]])
        readers = [_reader(0.0, 0.0), _reader(100.0, 0.0)]
        result = run_multireader_session(
            positions, readers, 1.0, [3], CCMConfig(frame_size=8)
        )
        assert list(result.bitmap.indices()) == [3]
        assert result.per_reader[1].rounds == 0
