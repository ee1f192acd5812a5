"""Tests for repro.protocols.search — wanted-tag search (Sec. III-B model)."""

import pytest

from repro.core.session import CCMConfig, run_session
from repro.protocols.search import (
    TagSearchProtocol,
    false_positive_probability,
    optimal_hash_count,
    search_frame_size,
)
from repro.protocols.transport import (
    CCMTransport,
    TraditionalTransport,
    search_slots,
)
from repro.sim.rng import TagHasher


class TestHashSlots:
    def test_k_slots_in_range(self):
        h = TagHasher(5)
        for tid in range(1, 50):
            slots = h.slots_of(tid, 97, 4)
            assert len(slots) == 4
            assert all(0 <= s < 97 for s in slots)

    def test_deterministic(self):
        assert TagHasher(3).slots_of(9, 64, 3) == TagHasher(3).slots_of(9, 64, 3)

    def test_positions_independent(self):
        slots = TagHasher(3).slots_of(9, 10_000, 6)
        assert len(set(slots)) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TagHasher(1).slots_of(1, 64, 0)
        with pytest.raises(ValueError):
            TagHasher(1).slots_of(1, 0, 2)


class TestSearchMasks:
    def test_mask_bits_match_slots(self):
        slots = search_slots([7, 8], 64, 3, seed=2)
        hasher = TagHasher(2)
        for tid, row in zip([7, 8], slots.tolist()):
            assert row == hasher.slots_of(tid, 64, 3)


class TestSizingMath:
    def test_optimal_k_formula(self):
        # f/n = 8 -> k = round(8 ln 2) = 6
        assert optimal_hash_count(800, 100) == 6

    def test_optimal_k_at_least_one(self):
        assert optimal_hash_count(10, 1000) == 1

    def test_fp_decreases_with_frame(self):
        assert false_positive_probability(4096, 100, 4) < (
            false_positive_probability(512, 100, 4)
        )

    def test_fp_bounds(self):
        fp = false_positive_probability(1024, 200, 3)
        assert 0.0 < fp < 1.0

    def test_frame_size_meets_target(self):
        f = search_frame_size(500, 0.01)
        k = optimal_hash_count(f, 500)
        assert false_positive_probability(f, 500, k) <= 0.015

    def test_frame_size_fixed_k(self):
        f = search_frame_size(500, 0.01, k_hashes=2)
        assert false_positive_probability(f, 500, 2) <= 0.0105

    def test_validation(self):
        with pytest.raises(ValueError):
            search_frame_size(0, 0.1)
        with pytest.raises(ValueError):
            search_frame_size(100, 1.5)
        with pytest.raises(ValueError):
            optimal_hash_count(0, 10)
        with pytest.raises(ValueError):
            false_positive_probability(64, 10, 0)


class TestSearchOverTraditional:
    def test_present_wanted_always_found(self):
        present = list(range(1, 401))
        transport = TraditionalTransport(present)
        result = TagSearchProtocol(fp_target=0.01).search(
            transport, wanted_ids=[5, 50, 333], seed=1
        )
        assert result.present_candidates == [5, 50, 333]
        assert result.definitely_absent == []

    def test_absent_wanted_rejected(self):
        present = list(range(1, 401))
        wanted = [1000, 2000, 3000, 4000, 5000]
        transport = TraditionalTransport(present)
        result = TagSearchProtocol(fp_target=1e-4).search(
            transport, wanted, seed=2
        )
        # With a 1e-4 residual target, all five absentees are cleared.
        assert result.present_candidates == []
        assert sorted(result.definitely_absent) == wanted

    def test_mixed_wanted_list(self):
        present = list(range(1, 301))
        wanted = [10, 20, 9_999, 8_888]
        result = TagSearchProtocol(fp_target=1e-3).search(
            TraditionalTransport(present), wanted, seed=3
        )
        assert 10 in result.present_candidates
        assert 20 in result.present_candidates
        assert set(result.definitely_absent) <= {9_999, 8_888}

    def test_absence_verdicts_never_wrong(self):
        """A present tag can never be declared absent (its slots are busy
        by its own transmissions)."""
        present = list(range(1, 501))
        result = TagSearchProtocol(fp_target=0.05).search(
            TraditionalTransport(present), wanted_ids=present[:50], seed=4
        )
        assert result.definitely_absent == []

    def test_residual_fp_reported(self):
        present = list(range(1, 201))
        result = TagSearchProtocol(fp_target=0.01).search(
            TraditionalTransport(present), [1, 99999], seed=5
        )
        assert 0.0 <= result.residual_fp <= 0.011 * 1.5

    def test_empty_wanted_rejected(self):
        with pytest.raises(ValueError):
            TagSearchProtocol().search(TraditionalTransport([1]), [], seed=0)


class TestSearchOverCCM:
    def test_equivalent_to_traditional(self, small_network):
        """Theorem 1 extends to multi-bit picks: the CCM search bitmap
        equals the single-hop one, hence identical verdicts."""
        reachable = [
            int(t) for t in small_network.tag_ids[small_network.reachable_mask]
        ]
        wanted = reachable[:20] + [77_777, 88_888]
        ccm = TagSearchProtocol(fp_target=0.01).search(
            CCMTransport(small_network), wanted, seed=6
        )
        trad = TagSearchProtocol(fp_target=0.01).search(
            TraditionalTransport(reachable), wanted,
            n_present=small_network.n_tags, seed=6,
        )
        # Compare bitmaps of the first round directly.
        assert ccm.bitmaps[0].bits == trad.bitmaps[0].bits
        assert set(reachable[:20]) <= set(ccm.present_candidates)

    def test_session_level_multibit_masks(self, star_network):
        """The engine relays multi-bit picks: a 2-slot outer-tag mask
        arrives intact."""
        picks = [[-1, -1]] * 4 + [[0, 2]]  # tier-2 tag sets slots 0 and 2
        result = run_session(
            star_network, picks, config=CCMConfig(frame_size=8))
        assert list(result.bitmap.indices()) == [0, 2]
        assert result.rounds == 2

    def test_mask_validation(self, star_network):
        with pytest.raises(ValueError):
            run_session(
                star_network, [[-1]] * 4 + [[9]], config=CCMConfig(frame_size=8))
        with pytest.raises(ValueError):
            run_session(star_network, [[-1]], config=CCMConfig(frame_size=8))
