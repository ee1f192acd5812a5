"""Unit tests for repro.sim.rng — the deterministic tag-side hashing.

The ``*_array`` hashes and the vectorized ``frame_picks``/``search_slots``
are held to the scalar functions and the per-tag loops they replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.protocols.transport import frame_picks, search_slots
from repro.sim.rng import (
    TagHasher,
    as_uint64,
    derive_seed,
    hash2,
    hash2_array,
    splitmix64,
    splitmix64_array,
    uniform_unit,
    uniform_unit_array,
)


# -- oracles ---------------------------------------------------------------


def oracle_frame_picks(tag_ids, frame_size, probability, seed):
    """One scalar hash per tag."""
    hasher = TagHasher(seed)
    picks = []
    for tid in tag_ids:
        tid = int(tid)
        if probability >= 1.0 or hasher.participates(tid, probability):
            picks.append(hasher.slot_of(tid, frame_size))
        else:
            picks.append(-1)
    return picks


def search_masks(tag_ids, frame_size, k_hashes, seed):
    """Each tag's ``search_slots`` row as an f-bit mask (its slot set)."""
    rows = search_slots(tag_ids, frame_size, k_hashes, seed).tolist()
    return [sum(1 << s for s in set(row)) for row in rows]


def oracle_search_masks(tag_ids, frame_size, k_hashes, seed):
    hasher = TagHasher(seed)
    masks = []
    for tid in tag_ids:
        mask = 0
        for slot in hasher.slots_of(int(tid), frame_size, k_hashes):
            mask |= 1 << slot
        masks.append(mask)
    return masks


def _outcome(fn, *args):
    """A value, or the error type and message it raised."""
    try:
        return ("ok", fn(*args))
    except (ValueError, TypeError) as exc:
        return (type(exc).__name__, str(exc))


uint64s = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]),
)
# Python ints well outside int64 and uint64, negatives included.
wide_ints = st.one_of(uint64s, st.integers(-(2**70), 2**70))
seeds = st.one_of(st.integers(0, 1000), wide_ints)
frame_sizes = st.one_of(
    st.integers(1, 5000), st.sampled_from([2**31, 2**63, 2**63 + 5, 2**64 + 3])
)


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_64_bit_output(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) < 2**64

    def test_distinct_inputs_distinct_outputs(self):
        outputs = {splitmix64(x) for x in range(1000)}
        assert len(outputs) == 1000  # splitmix64 is a bijection

    def test_avalanche(self):
        """Flipping one input bit flips roughly half the output bits."""
        flips = bin(splitmix64(42) ^ splitmix64(43)).count("1")
        assert 15 <= flips <= 49

    def test_hash2_order_sensitive(self):
        assert hash2(1, 2) != hash2(2, 1)

    def test_uniform_unit_range(self):
        for x in range(0, 2**64, 2**60):
            assert 0.0 <= uniform_unit(splitmix64(x)) < 1.0


class TestDeriveSeed:
    def test_labels_independent(self):
        assert derive_seed(7, 1) != derive_seed(7, 2)

    def test_label_order_matters(self):
        assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)

    def test_no_labels_still_mixes(self):
        assert derive_seed(0) != 0


class TestTagHasherSlots:
    def test_slot_in_range(self):
        h = TagHasher(99)
        for tid in range(1, 200):
            assert 0 <= h.slot_of(tid, 31) < 31

    def test_slot_deterministic_across_instances(self):
        assert TagHasher(5).slot_of(77, 100) == TagHasher(5).slot_of(77, 100)

    def test_slot_changes_with_seed(self):
        slots_a = [TagHasher(1).slot_of(t, 1000) for t in range(50)]
        slots_b = [TagHasher(2).slot_of(t, 1000) for t in range(50)]
        assert slots_a != slots_b

    def test_slot_roughly_uniform(self):
        h = TagHasher(42)
        frame = 10
        counts = [0] * frame
        n = 10_000
        for tid in range(n):
            counts[h.slot_of(tid, frame)] += 1
        expected = n / frame
        for c in counts:
            assert abs(c - expected) < 5 * (expected**0.5)

    def test_invalid_frame_size(self):
        with pytest.raises(ValueError):
            TagHasher(1).slot_of(5, 0)


class TestTagHasherSampling:
    def test_probability_bounds_enforced(self):
        h = TagHasher(1)
        with pytest.raises(ValueError):
            h.participates(1, -0.1)
        with pytest.raises(ValueError):
            h.participates(1, 1.1)

    def test_extremes(self):
        h = TagHasher(1)
        assert not h.participates(123, 0.0)
        # probability 1.0 - epsilon catches essentially everything
        assert all(h.participates(t, 0.999999999) for t in range(100))

    def test_empirical_rate(self):
        h = TagHasher(7)
        p = 0.3
        n = 20_000
        hits = sum(h.participates(t, p) for t in range(n))
        assert abs(hits / n - p) < 0.02

    def test_sampling_independent_of_slot_choice(self):
        """Participation and slot pick come from separate streams: tags in
        the sample must still be slot-uniform."""
        h = TagHasher(11)
        frame = 8
        counts = [0] * frame
        for tid in range(20_000):
            if h.participates(tid, 0.25):
                counts[h.slot_of(tid, frame)] += 1
        total = sum(counts)
        for c in counts:
            assert abs(c - total / frame) < 5 * ((total / frame) ** 0.5)


class TestBackoff:
    def test_backoff_in_window(self):
        h = TagHasher(3)
        for attempt in range(5):
            for tid in range(100):
                assert 0 <= h.backoff(tid, attempt, 16) < 16

    def test_backoff_varies_with_attempt(self):
        h = TagHasher(3)
        series = [h.backoff(42, attempt, 1024) for attempt in range(30)]
        assert len(set(series)) > 10

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            TagHasher(3).backoff(1, 0, 0)


class TestArrayHashes:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(uint64s, max_size=40), wide_ints)
    def test_match_scalar(self, xs, a):
        arr = np.array(xs, dtype=np.uint64)
        assert splitmix64_array(arr).tolist() == [splitmix64(x) for x in xs]
        h = hash2_array(a, arr)
        assert h.dtype == np.uint64
        assert h.tolist() == [hash2(a, x) for x in xs]
        assert uniform_unit_array(h).tolist() == [
            uniform_unit(x) for x in h.tolist()
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(wide_ints, max_size=30))
    def test_as_uint64_masks_like_hash2(self, xs):
        want = [x & (2**64 - 1) for x in xs]
        assert as_uint64(xs).tolist() == want
        assert as_uint64(iter(xs)).tolist() == want
        in_int64 = [x for x in xs if -(2**63) <= x < 2**63]
        assert as_uint64(np.array(in_int64, dtype=np.int64)).tolist() == [
            x & (2**64 - 1) for x in in_int64
        ]


class TestVectorPicksMatchOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(wide_ints, max_size=40),
        frame_sizes,
        st.one_of(
            st.sampled_from([0.0, 0.3, 1.0, 1.5, 1 - 1e-12]),
            st.floats(0.0, 1.0),
        ),
        seeds,
    )
    def test_frame_picks(self, ids, frame_size, probability, seed):
        got = frame_picks(ids, frame_size, probability, seed).tolist()
        assert got == oracle_frame_picks(ids, frame_size, probability, seed)
        assert all(type(v) is int for v in got)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40),
        st.integers(1, 3000),
        st.floats(0.0, 1.0),
        seeds,
    )
    def test_frame_picks_int64_array(self, ids, frame_size, probability, seed):
        arr = np.array(ids, dtype=np.int64)
        assert frame_picks(arr, frame_size, probability, seed).tolist() == (
            oracle_frame_picks(ids, frame_size, probability, seed)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(wide_ints, max_size=30),
        st.integers(1, 700),
        st.integers(1, 5),
        seeds,
    )
    def test_search_masks(self, ids, frame_size, k_hashes, seed):
        assert search_masks(ids, frame_size, k_hashes, seed) == (
            oracle_search_masks(ids, frame_size, k_hashes, seed)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(wide_ints, max_size=30),
        st.integers(1, 700),
        st.integers(1, 5),
        seeds,
    )
    def test_search_slots(self, ids, frame_size, k_hashes, seed):
        """Row i is tag i's ``slots_of``, in hash order, repeats kept."""
        hasher = TagHasher(seed)
        got = search_slots(ids, frame_size, k_hashes, seed)
        assert got.dtype == np.int64
        assert got.shape == (len(ids), k_hashes)
        assert got.tolist() == [
            hasher.slots_of(int(tid), frame_size, k_hashes) for tid in ids
        ]

    def test_probability_equal_to_a_tags_draw(self):
        # Participation is uniform < p, strictly: a tag whose draw equals p
        # stays silent.
        ids, seed = list(range(1, 50)), 77
        stream = derive_seed(TagHasher(seed).seed, TagHasher._SAMPLE_STREAM)
        for tid in (3, 17, 40):
            p = uniform_unit(hash2(stream, tid))
            got = frame_picks(ids, 64, p, seed).tolist()
            assert got == oracle_frame_picks(ids, 64, p, seed)
            assert got[tid - 1] == -1

    @pytest.mark.parametrize(
        "frame_size, probability",
        [(0, 1.0), (-3, 1.0), (0, 0.999), (16, -0.1), (0, -0.1), (16, math.nan),
         (0, 0.0), (16, 1.5)],
    )
    @pytest.mark.parametrize("ids", [[], [1, 2, 3], list(range(200))])
    def test_frame_picks_errors(self, ids, frame_size, probability):
        def picks_list(*args):
            return frame_picks(*args).tolist()

        assert _outcome(picks_list, ids, frame_size, probability, 3) == (
            _outcome(oracle_frame_picks, ids, frame_size, probability, 3)
        )

    @pytest.mark.parametrize("frame_size, k_hashes", [(0, 2), (16, 0), (0, 0)])
    @pytest.mark.parametrize("ids", [[], [5, 6]])
    def test_search_masks_errors(self, ids, frame_size, k_hashes):
        assert _outcome(search_masks, ids, frame_size, k_hashes, 3) == (
            _outcome(oracle_search_masks, ids, frame_size, k_hashes, 3)
        )
