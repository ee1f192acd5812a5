"""Differential tests: the bit-parallel engine vs the slot-by-slot oracle.

For any (network, picks, config), both implementations of Algorithm 1
must agree *exactly* — bitmap, round count, slot tally, per-tag sent and
received bits, and round statistics.  Any divergence means one of them
mis-implements the protocol (historically it would be the fast one).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.reference_engine import run_session_reference
from repro.core.session import CCMConfig, run_session
from repro.net.geometry import Point, uniform_disk
from repro.net.topology import Network, PaperDeployment, Reader, paper_network
from repro.protocols.transport import frame_picks


def assert_identical(fast, slow):
    assert fast.bitmap == slow.bitmap
    assert fast.rounds == slow.rounds
    assert fast.terminated_cleanly == slow.terminated_cleanly
    assert fast.slots.short_slots == slow.slots.short_slots
    assert fast.slots.id_slots == slow.slots.id_slots
    assert np.array_equal(fast.ledger.bits_sent, slow.ledger.bits_sent)
    assert np.array_equal(
        fast.ledger.bits_received, slow.ledger.bits_received
    )
    assert len(fast.round_stats) == len(slow.round_stats)
    for a, b in zip(fast.round_stats, slow.round_stats):
        assert a == b


class TestHandBuiltTopologies:
    def test_line_single_origin(self, line_network):
        picks = [-1, -1, -1, -1, 0]
        config = CCMConfig(frame_size=8)
        assert_identical(
            run_session(line_network, picks, config=config),
            run_session_reference(line_network, picks, config),
        )

    def test_line_all_participate(self, line_network):
        picks = [0, 1, 2, 1, 0]
        config = CCMConfig(frame_size=4)
        assert_identical(
            run_session(line_network, picks, config=config),
            run_session_reference(line_network, picks, config),
        )

    def test_star(self, star_network):
        picks = [0, 1, 2, 3, 4]
        config = CCMConfig(frame_size=8)
        assert_identical(
            run_session(star_network, picks, config=config),
            run_session_reference(star_network, picks, config),
        )

    def test_no_participants(self, star_network):
        config = CCMConfig(frame_size=8)
        assert_identical(
            run_session(star_network, [-1] * 5, config=config),
            run_session_reference(star_network, [-1] * 5, config),
        )

    def test_indicator_disabled(self, star_network):
        picks = [0, 1, 2, 3, 4]
        config = CCMConfig(
            frame_size=8, use_indicator_vector=False, max_rounds=6
        )
        assert_identical(
            run_session(star_network, picks, config=config),
            run_session_reference(star_network, picks, config),
        )

    def test_short_checking_frame(self, line_network):
        picks = [-1, -1, -1, -1, 0]
        config = CCMConfig(frame_size=8, checking_frame_length=2,
                           max_rounds=10)
        assert_identical(
            run_session(line_network, picks, config=config),
            run_session_reference(line_network, picks, config),
        )

    def test_unreachable_component(self):
        positions = np.array(
            [[1.0, 0.0], [2.0, 0.0], [50.0, 50.0], [50.8, 50.0]]
        )
        net = Network.build(
            positions, [Reader(Point(0, 0), 60.0, 1.5)], tag_range=1.2
        )
        picks = [0, 1, 2, 2]
        config = CCMConfig(frame_size=4)
        assert_identical(
            run_session(net, picks, config=config),
            run_session_reference(net, picks, config),
        )


class TestRandomTopologies:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("r", [4.0, 8.0])
    def test_random_deployments(self, seed, r):
        net = paper_network(
            r, n_tags=150, seed=seed, deployment=PaperDeployment(n_tags=150)
        )
        picks = frame_picks(net.tag_ids, 64, 0.7, seed)
        config = CCMConfig(frame_size=64)
        assert_identical(
            run_session(net, picks, config=config),
            run_session_reference(net, picks, config),
        )

    @given(
        n=st.integers(min_value=10, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31),
        frame=st.integers(min_value=4, max_value=48),
        prob=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_differential(self, n, seed, frame, prob):
        positions = uniform_disk(n, 12.0, seed=seed)
        net = Network.build(
            positions,
            [Reader(Point(0, 0), 12.0, 5.0)],
            tag_range=4.0,
        )
        picks = frame_picks(net.tag_ids, frame, prob, seed)
        config = CCMConfig(frame_size=frame)
        assert_identical(
            run_session(net, picks, config=config),
            run_session_reference(net, picks, config),
        )

    def test_validation_matches(self, star_network):
        with pytest.raises(ValueError):
            run_session_reference(
                star_network, [0, 1], CCMConfig(frame_size=8)
            )
        with pytest.raises(ValueError):
            run_session_reference(
                star_network, [9, -1, -1, -1, -1], CCMConfig(frame_size=8)
            )
