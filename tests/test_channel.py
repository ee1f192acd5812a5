"""Unit tests for repro.net.channel — slot-level propagation semantics
and the repro-channel-rng-v1 draw contract."""

import numpy as np
import pytest

import repro.net.channel as channel_mod
from repro.net.channel import (
    CHANNEL_RNG_CONTRACT,
    Channel,
    LossyChannel,
    PerfectChannel,
)


def _csr(adjacency):
    """Build (indptr, indices) from a list of neighbor lists."""
    indptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    chunks = []
    for i, neigh in enumerate(adjacency):
        indptr[i + 1] = indptr[i] + len(neigh)
        chunks.extend(neigh)
    return indptr, np.array(chunks, dtype=np.int64)


class TestPerfectChannel:
    def test_single_transmitter(self):
        indptr, indices = _csr([[1], [0, 2], [1]])
        heard = PerfectChannel().propagate([0b01, 0, 0], indptr, indices)
        assert heard == [0, 0b01, 0]

    def test_collision_merges_to_busy(self):
        # tags 0 and 2 both transmit slot 0; tag 1 hears one busy slot.
        indptr, indices = _csr([[1], [0, 2], [1]])
        heard = PerfectChannel().propagate([0b1, 0, 0b1], indptr, indices)
        assert heard[1] == 0b1

    def test_different_slots_merge_to_union(self):
        indptr, indices = _csr([[1], [0, 2], [1]])
        heard = PerfectChannel().propagate([0b01, 0, 0b10], indptr, indices)
        assert heard[1] == 0b11

    def test_out_of_range_not_heard(self):
        indptr, indices = _csr([[], []])
        heard = PerfectChannel().propagate([0b1, 0], indptr, indices)
        assert heard == [0, 0]

    def test_transmitter_hears_its_own_neighbors_only(self):
        indptr, indices = _csr([[1], [0], []])
        heard = PerfectChannel().propagate([0b1, 0b10, 0b100], indptr, indices)
        assert heard[0] == 0b10
        assert heard[1] == 0b1
        assert heard[2] == 0

    def test_reader_senses_union_of_tier1(self):
        tier1 = np.array([True, False, True])
        busy = PerfectChannel().reader_senses([0b01, 0b10, 0b100], tier1)
        assert busy == 0b101

    def test_reader_ignores_outer_tiers(self):
        tier1 = np.array([False, False])
        assert PerfectChannel().reader_senses([0b1, 0b1], tier1) == 0


class TestLossyChannel:
    def test_loss_validation(self):
        with pytest.raises(ValueError):
            LossyChannel(loss=1.0)
        with pytest.raises(ValueError):
            LossyChannel(loss=-0.1)

    def test_zero_loss_equals_perfect(self):
        indptr, indices = _csr([[1], [0, 2], [1]])
        transmit = [0b101, 0, 0b10]
        rng = np.random.default_rng(0)
        lossy = LossyChannel(loss=0.0).propagate(transmit, indptr, indices, rng)
        perfect = PerfectChannel().propagate(transmit, indptr, indices)
        assert lossy == perfect

    def test_requires_rng(self):
        indptr, indices = _csr([[1], [0]])
        with pytest.raises(ValueError):
            LossyChannel(loss=0.5).propagate([0b1, 0], indptr, indices)
        with pytest.raises(ValueError):
            LossyChannel(loss=0.5).reader_senses([0b1], np.array([True]))

    def test_high_loss_drops_most_bits(self):
        indptr, indices = _csr([[1], [0]])
        rng = np.random.default_rng(42)
        heard_count = 0
        for _ in range(300):
            heard = LossyChannel(loss=0.9).propagate(
                [0b1, 0], indptr, indices, rng
            )
            heard_count += heard[1]
        assert 5 <= heard_count <= 70  # ~10% of 300

    def test_redundant_transmitters_improve_reliability(self):
        """Two transmitters of the same slot give two independent chances."""
        indptr, indices = _csr([[2], [2], [0, 1]])
        rng = np.random.default_rng(7)
        single = 0
        double = 0
        for _ in range(500):
            single += LossyChannel(loss=0.5).propagate(
                [0b1, 0, 0], indptr, indices, rng
            )[2]
            double += LossyChannel(loss=0.5).propagate(
                [0b1, 0b1, 0], indptr, indices, rng
            )[2]
        assert double > single

    def test_reader_senses_with_loss(self):
        rng = np.random.default_rng(3)
        tier1 = np.array([True])
        hits = sum(
            LossyChannel(loss=0.5).reader_senses([0b1], tier1, rng)
            for _ in range(400)
        )
        assert 120 <= hits <= 280


def _pairs(masks):
    """The ``(tag, slot)`` transmit pairs of f-bit masks, shuffled: the
    pair interface takes its pairs in any order."""
    pairs = [
        (u, s)
        for u, mask in enumerate(masks)
        for s in range(mask.bit_length())
        if mask >> s & 1
    ]
    order = np.random.default_rng(len(pairs)).permutation(len(pairs))
    pairs = np.array(pairs, dtype=np.int32).reshape(-1, 2)[order]
    return pairs[:, 0], pairs[:, 1]


def _heard_via_pairs(ch, masks, indptr, indices, rng):
    """What every tag hears, expanding each pair over its tag's CSR row
    and keeping the events ``propagate_packed`` lets through."""
    tags, slots = _pairs(masks)
    survives = ch.propagate_packed(tags, slots, indptr, rng)
    heard = [0] * len(masks)
    for j, (u, s) in enumerate(zip(tags.tolist(), slots.tolist())):
        row = indices[indptr[u] : indptr[u + 1]]
        rank = np.arange(row.size)
        if survives is not None:
            row = row[survives(np.full(row.size, j), rank)]
        for t in row.tolist():
            heard[t] |= 1 << s
    return heard


def _busy_via_pairs(ch, masks, tier1, rng):
    tags, slots = _pairs(masks)
    busy = 0
    for s in slots[ch.reader_senses_packed(tags, slots, tier1, rng)]:
        busy |= 1 << int(s)
    return busy


class TestChannelRngContract:
    """The lossy pair interface draws the *same* stream the scalar big-int
    interface consumes one call at a time."""

    def test_contract_version_exported(self):
        assert CHANNEL_RNG_CONTRACT == "repro-channel-rng-v1"

    def test_is_perfect_flags(self):
        assert PerfectChannel().is_perfect
        assert LossyChannel(0.0).is_perfect
        assert not LossyChannel(0.1).is_perfect

        class SubPerfect(PerfectChannel):
            pass

        class SubLossy(LossyChannel):
            pass

        # Strict type checks: subclasses may override propagation, so
        # they never qualify for the silent slot-major fast path.
        assert not SubPerfect().is_perfect
        assert not SubLossy(0.0).is_perfect
        assert not Channel.is_perfect.fget(object())

    @pytest.mark.parametrize("loss", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("frame_size", [37, 64, 257])
    def test_propagate_packed_matches_scalar_stream(self, loss, frame_size):
        rng = np.random.default_rng(frame_size)
        n = 60
        adjacency = [
            sorted(
                set(rng.integers(0, n, size=rng.integers(0, 5)).tolist())
                - {i}
            )
            for i in range(n)
        ]
        indptr, indices = _csr(adjacency)
        masks = [
            int(rng.integers(0, 2 ** min(frame_size, 60)))
            if rng.random() < 0.7
            else 0
            for _ in range(n)
        ]
        ch = LossyChannel(loss)
        rng_a = np.random.default_rng(99)
        rng_b = np.random.default_rng(99)
        scalar = ch.propagate(masks, indptr, indices, rng_a)
        assert _heard_via_pairs(ch, masks, indptr, indices, rng_b) == scalar
        # Both consumed exactly the same number of draws.
        assert rng_a.random() == rng_b.random()

    def test_propagate_packed_chunk_boundaries_preserve_stream(
        self, monkeypatch
    ):
        """Chunked draws must read the stream exactly as one big draw
        would — chunk boundaries fall anywhere in an edge's draws."""
        monkeypatch.setattr(channel_mod, "_LOSSY_DRAW_CHUNK", 13)
        rng = np.random.default_rng(5)
        n = 40
        adjacency = [
            sorted(
                set(rng.integers(0, n, size=rng.integers(0, 6)).tolist())
                - {i}
            )
            for i in range(n)
        ]
        indptr, indices = _csr(adjacency)
        masks = [
            int(rng.integers(0, 2**50)) if rng.random() < 0.8 else 0
            for _ in range(n)
        ]
        ch = LossyChannel(0.4)
        rng_a = np.random.default_rng(31)
        rng_b = np.random.default_rng(31)
        scalar = ch.propagate(masks, indptr, indices, rng_a)
        assert _heard_via_pairs(ch, masks, indptr, indices, rng_b) == scalar
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("loss", [0.2, 0.5])
    def test_reader_senses_packed_matches_scalar_stream(self, loss):
        rng = np.random.default_rng(77)
        n = 50
        masks = [
            int(rng.integers(0, 2**60)) if rng.random() < 0.6 else 0
            for _ in range(n)
        ]
        tier1 = rng.random(n) < 0.3
        ch = LossyChannel(loss)
        rng_a = np.random.default_rng(13)
        rng_b = np.random.default_rng(13)
        scalar = ch.reader_senses(masks, tier1, rng_a)
        assert _busy_via_pairs(ch, masks, tier1, rng_b) == scalar
        assert rng_a.random() == rng_b.random()

    def test_zero_loss_consumes_no_draws(self):
        indptr, indices = _csr([[1], [0, 2], [1]])
        masks = [0b101, 0, 0b11]
        ch = LossyChannel(0.0)
        rng = np.random.default_rng(8)
        before = rng.bit_generator.state
        tier1 = np.array([True, False, True])
        ch.propagate(masks, indptr, indices, rng)
        assert _heard_via_pairs(ch, masks, indptr, indices, rng) == (
            PerfectChannel().propagate(masks, indptr, indices)
        )
        ch.reader_senses(masks, tier1, rng)
        assert _busy_via_pairs(ch, masks, tier1, rng) == 0b111
        assert rng.bit_generator.state == before
