"""Unit tests for repro.net.topology — links, tiers, readers."""

import numpy as np
import pytest

from repro.net.geometry import Point
from repro.net.topology import (
    Network,
    PaperDeployment,
    Reader,
    UNREACHABLE,
    paper_network,
)


def _reader(r_prime=1.5, big_r=10.0, at=(0.0, 0.0)):
    return Reader(
        position=Point(*at),
        reader_to_tag_range=big_r,
        tag_to_reader_range=r_prime,
    )


class TestReader:
    def test_valid(self):
        _reader()

    def test_r_prime_exceeding_R_rejected(self):
        with pytest.raises(ValueError):
            Reader(Point(0, 0), reader_to_tag_range=5.0, tag_to_reader_range=6.0)

    def test_nonpositive_ranges_rejected(self):
        with pytest.raises(ValueError):
            Reader(Point(0, 0), reader_to_tag_range=0.0, tag_to_reader_range=0.0)


class TestBuildValidation:
    def test_requires_reader(self):
        with pytest.raises(ValueError):
            Network.build(np.zeros((2, 2)), [], tag_range=1.0)

    def test_requires_positive_range(self):
        with pytest.raises(ValueError):
            Network.build(np.zeros((2, 2)), [_reader()], tag_range=0.0)

    def test_requires_2d_positions(self):
        with pytest.raises(ValueError):
            Network.build(np.zeros(4), [_reader()], tag_range=1.0)

    def test_tag_ids_wrong_length(self):
        with pytest.raises(ValueError):
            Network.build(
                np.zeros((2, 2)), [_reader()], tag_range=1.0, tag_ids=[1]
            )

    def test_tag_ids_must_be_unique(self):
        with pytest.raises(ValueError):
            Network.build(
                np.array([[1.0, 0.0], [0.0, 1.0]]),
                [_reader()],
                tag_range=1.0,
                tag_ids=[5, 5],
            )

    @pytest.mark.parametrize("site", [
        "Network.build",
        "TraditionalTransport",
        "MultiReaderCCMTransport",
        "run_multireader_session",
    ])
    @pytest.mark.parametrize("tag_id", [2**63, 2**64])
    def test_tag_id_outside_int64_is_a_value_error(self, site, tag_id):
        from repro.core.multireader import run_multireader_session
        from repro.core.session import CCMConfig
        from repro.protocols.transport import (
            MultiReaderCCMTransport,
            TraditionalTransport,
        )

        positions = np.zeros((1, 2))
        build = {
            "Network.build": lambda ids: Network.build(
                positions, [_reader()], 1.0, tag_ids=ids
            ),
            "TraditionalTransport": TraditionalTransport,
            "MultiReaderCCMTransport": lambda ids: MultiReaderCCMTransport(
                positions, [_reader()], 1.0, tag_ids=ids
            ),
            "run_multireader_session": lambda ids: run_multireader_session(
                positions, [_reader()], 1.0, [0], CCMConfig(frame_size=8),
                tag_ids=ids,
            ),
        }[site]
        with pytest.raises(ValueError, match=f"tag ID {tag_id} "):
            build([tag_id])

    def test_default_ids_start_at_one(self):
        net = Network.build(
            np.array([[1.0, 0.0], [0.0, 1.0]]), [_reader()], tag_range=1.0
        )
        assert net.tag_ids.tolist() == [1, 2]


class TestChainTiers:
    def test_line_tiers(self, line_network):
        assert line_network.tiers.tolist() == [1, 2, 3, 4, 5]
        assert line_network.num_tiers == 5

    def test_line_neighbors(self, line_network):
        assert set(line_network.neighbors(0).tolist()) == {1}
        assert set(line_network.neighbors(2).tolist()) == {1, 3}
        assert line_network.degree(0) == 1
        assert line_network.degree(2) == 2

    def test_line_tier_sizes(self, line_network):
        assert line_network.tier_sizes().tolist() == [1, 1, 1, 1, 1]

    def test_star_tiers(self, star_network):
        assert star_network.tiers.tolist() == [1, 1, 1, 1, 2]

    def test_degrees_vector(self, line_network):
        assert line_network.degrees().tolist() == [1, 2, 2, 2, 1]


class TestReachability:
    def test_isolated_tag_unreachable(self):
        positions = np.array([[1.0, 0.0], [50.0, 50.0]])
        net = Network.build(positions, [_reader()], tag_range=1.0)
        assert net.tiers[0] == 1
        assert net.tiers[1] == UNREACHABLE
        assert not net.is_fully_reachable()
        assert net.reachable_mask.tolist() == [True, False]

    def test_num_tiers_ignores_unreachable(self):
        positions = np.array([[1.0, 0.0], [50.0, 50.0]])
        net = Network.build(positions, [_reader()], tag_range=1.0)
        assert net.num_tiers == 1

    def test_relay_restores_reachability(self):
        # tag 1 is out of r' but one hop from tag 0
        positions = np.array([[1.0, 0.0], [2.0, 0.0]])
        net = Network.build(positions, [_reader()], tag_range=1.2)
        assert net.tiers.tolist() == [1, 2]
        assert net.is_fully_reachable()


class TestCoverage:
    def test_covered_vs_heard(self):
        # R = 10, r' = 1.5; tag at 5 m is covered (hears requests) but not
        # heard directly.
        positions = np.array([[1.0, 0.0], [5.0, 0.0]])
        net = Network.build(positions, [_reader()], tag_range=1.0)
        assert net.covered_by(0).tolist() == [True, True]
        assert net.heard_by(0).tolist() == [True, False]

    def test_tier1_mask_matches_heard(self, star_network):
        assert np.array_equal(
            star_network.tier1_mask, star_network.heard_by(0)
        )


class TestMultiReaderTopology:
    def test_tier1_union_over_readers(self):
        positions = np.array([[1.0, 0.0], [9.0, 0.0]])
        readers = [_reader(at=(0.0, 0.0)), _reader(at=(10.0, 0.0))]
        net = Network.build(positions, readers, tag_range=1.0)
        assert net.tiers.tolist() == [1, 1]

    def test_reader_distance_is_minimum(self):
        positions = np.array([[2.0, 0.0]])
        readers = [_reader(at=(0.0, 0.0)), _reader(at=(3.0, 0.0))]
        net = Network.build(positions, readers, tag_range=1.0)
        assert net.reader_distance[0] == pytest.approx(1.0)


class TestSubset:
    def test_subset_recomputes_tiers(self, line_network):
        # Removing the middle tag disconnects the tail.
        keep = np.array([True, True, False, True, True])
        sub = line_network.subset(keep)
        assert sub.n_tags == 4
        assert sub.tiers.tolist() == [1, 2, UNREACHABLE, UNREACHABLE]

    def test_subset_preserves_ids(self, line_network):
        keep = np.array([False, True, True, True, True])
        sub = line_network.subset(keep)
        assert sub.tag_ids.tolist() == [2, 3, 4, 5]

    def test_subset_shape_check(self, line_network):
        with pytest.raises(ValueError):
            line_network.subset(np.array([True, False]))


class TestPaperNetwork:
    def test_paper_deployment_defaults(self):
        dep = PaperDeployment()
        assert dep.n_tags == 10_000
        assert dep.reader().tag_to_reader_range == 20.0

    def test_num_tiers_decreases_with_r(self):
        tiers = [
            paper_network(
                r, n_tags=1500, seed=11, deployment=PaperDeployment(n_tags=1500)
            ).num_tiers
            for r in (3.0, 6.0, 10.0)
        ]
        assert tiers[0] >= tiers[1] >= tiers[2]

    def test_density_estimate(self):
        net = paper_network(
            6.0, n_tags=2000, seed=1, deployment=PaperDeployment(n_tags=2000)
        )
        # Empirical density over the realised bounding disk ~ n/(pi*30^2).
        assert net.density() == pytest.approx(2000 / (np.pi * 900), rel=0.1)

    def test_seed_reproducible(self):
        a = paper_network(5.0, n_tags=300, seed=3,
                          deployment=PaperDeployment(n_tags=300))
        b = paper_network(5.0, n_tags=300, seed=3,
                          deployment=PaperDeployment(n_tags=300))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.tiers, b.tiers)

    def test_repr(self, small_network):
        text = repr(small_network)
        assert "n_tags=400" in text


class TestTopologyGolden:
    """CSR adjacency and tier map of the paper deployment, pinned.

    Covers ``indptr``/``indices`` (values, per-row order and dtype) and
    ``tiers`` at n = 2,000 for r in {2, 6, 10} m, seeds 0 and 1, and at
    n = 10,000 (the default scale) for the same ranges, seed 0.  The
    per-row neighbour order is part of the ``repro-channel-rng-v1`` draw
    order (lossy draws walk CSR rows), so it must never move.
    """

    GOLDEN = {
        (2.0, 0): (
            "78515a88c93dc9d8dae2b3018d3fc93f"
            "45e1d003be34debacabb2e64d7396ffd"
        ),
        (2.0, 1): (
            "05d9378373127d2f860e6691358a68f7"
            "d0ebdfcfab8ee08b8d6573aa05ac886d"
        ),
        (6.0, 0): (
            "46393a42d274aff39e6c625f8b02401b"
            "c3f31a7e0a8779af3ffebe29b8c313d7"
        ),
        (6.0, 1): (
            "7f2d86b847a0515cdd35260a904243d5"
            "f36319a40469c82acdc135165eaba977"
        ),
        (10.0, 0): (
            "521bd7c3625173e3448308000b22acb6"
            "8e349e9c1644afd05d031d2721e2fc49"
        ),
        (10.0, 1): (
            "8c14005fc655dbe66fb531fa5b58bff5"
            "ec6177ef08ce3d39385698ca0d3c1d9f"
        ),
    }

    GOLDEN_10K = {
        2.0: (
            "9e95d626dbfae08120edb4f696f28a0a"
            "0596a6daf761ca0e5faa2635a7ec7a82"
        ),
        6.0: (
            "1debe9f2da93013d8b2b200c83bd8b35"
            "d2b36f790112e3bbf5aee6fbee1d1c5c"
        ),
        10.0: (
            "2387ac203815617634dd61310128328f"
            "8a7242fed9d4ec241007139d934ec154"
        ),
    }

    @staticmethod
    def _digest(tag_range, seed, n_tags=2000):
        import hashlib

        net = paper_network(
            tag_range, n_tags=n_tags, seed=seed,
            deployment=PaperDeployment(n_tags=n_tags),
        )
        h = hashlib.sha256()
        for arr in (net.indptr, net.indices, net.tiers):
            h.update(str(arr.dtype).encode())
            h.update(b"\0")
            h.update(np.ascontiguousarray(arr).tobytes())
            h.update(b"\0")
        return h.hexdigest()

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("tag_range", [2.0, 6.0, 10.0])
    def test_digest_pinned(self, tag_range, seed):
        assert self._digest(tag_range, seed) == self.GOLDEN[(tag_range, seed)]

    @pytest.mark.parametrize("tag_range", [2.0, 6.0, 10.0])
    def test_digest_pinned_n10000(self, tag_range):
        assert self._digest(tag_range, 0, n_tags=10_000) == self.GOLDEN_10K[tag_range]
