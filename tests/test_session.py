"""Tests for repro.core.session — Algorithm 1 on hand-built topologies.

The line and star fixtures make the tier structure exact, so these tests
assert the round-by-round behaviour the paper describes: one tier of
progress per round, indicator-vector silencing, checking-frame termination,
and the K-rounds-for-K-tiers session length.
"""

import numpy as np
import pytest

from repro.core.bitmap import Bitmap
from repro.core.session import (
    CCMConfig,
    default_checking_frame_length,
    run_session,
    slot_matrix,
)
from repro.net.channel import LossyChannel
from repro.net.energy import EnergyLedger
from repro.net.topology import PaperDeployment, paper_network
from repro.protocols.transport import frame_picks, ideal_bitmap


class TestConfigValidation:
    def test_frame_size_positive(self):
        with pytest.raises(ValueError):
            CCMConfig(frame_size=0)

    def test_checking_length_positive(self):
        with pytest.raises(ValueError):
            CCMConfig(frame_size=8, checking_frame_length=0)

    def test_max_rounds_positive(self):
        with pytest.raises(ValueError):
            CCMConfig(frame_size=8, max_rounds=0)

    def test_picks_length_check(self, line_network):
        with pytest.raises(ValueError):
            run_session(line_network, [0, 1], config=CCMConfig(frame_size=8))

    def test_pick_out_of_frame(self, line_network):
        with pytest.raises(ValueError):
            run_session(line_network, [9, -1, -1, -1, -1], config=CCMConfig(frame_size=8))


class TestSlotMatrix:
    def test_conversion(self):
        assert slot_matrix(3, 4, picks=[0, 2, -1]).tolist() == [[0], [2], [-1]]
        assert slot_matrix(3, 4, [[0, 0], [3, 1], [-1, -7]]).tolist() == [
            [0, -1], [1, 3], [-1, -1]
        ]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            slot_matrix(1, 4, picks=[4])


class TestDefaultCheckingLength:
    def test_line_value(self, line_network):
        # R = 10, r' = 1.5, r = 1.2 -> 2 * (1 + ceil(8.5/1.2)) = 2 * 9 = 18
        assert default_checking_frame_length(line_network) == 18

    def test_paper_r6(self):
        net = paper_network(6.0, n_tags=200, seed=0,
                            deployment=PaperDeployment(n_tags=200))
        # 2 * (1 + ceil(10/6)) = 6
        assert default_checking_frame_length(net) == 6


class TestChainPropagation:
    """Only the tier-5 tag participates: its bit must travel 5 rounds."""

    def _run(self, line_network, **config_kwargs):
        picks = [-1, -1, -1, -1, 0]
        return run_session(
            line_network, picks, config=CCMConfig(frame_size=8, **config_kwargs))

    def test_k_rounds_for_k_tiers(self, line_network):
        result = self._run(line_network)
        assert result.rounds == 5
        assert result.terminated_cleanly

    def test_bitmap_is_exactly_the_pick(self, line_network):
        result = self._run(line_network)
        assert result.bitmap == Bitmap.from_indices(8, [0])

    def test_each_tag_relays_once(self, line_network):
        """Every tag transmits the data slot exactly once; checking-frame
        responses are the only other sent bits."""
        result = self._run(line_network)
        data_bits = 1  # slot 0, once per tag
        for tag in range(5):
            checking = sum(1 for _ in result.round_stats)  # upper bound
            assert data_bits <= result.ledger.bits_sent[tag] <= data_bits + checking

    def test_round_stats_progression(self, line_network):
        result = self._run(line_network)
        transmitters = [s.transmitting_tags for s in result.round_stats]
        assert transmitters == [1, 1, 1, 1, 1]
        new_bits = [s.bits_new_at_reader for s in result.round_stats]
        assert new_bits == [0, 0, 0, 0, 1]

    def test_checking_frame_heard_until_delivery(self, line_network):
        result = self._run(line_network)
        heard = [s.reader_heard_checking for s in result.round_stats]
        assert heard == [True, True, True, True, False]

    def test_final_checking_frame_runs_full_length(self, line_network):
        result = self._run(line_network)
        assert result.round_stats[-1].checking_slots_executed == 18

    def test_checking_wave_reaches_reader_hop_by_hop(self, line_network):
        """In round 1 the pending tag is at tier 4 (it heard tier 5); the
        response wave needs 4 checking slots to reach tier 1."""
        result = self._run(line_network)
        assert result.round_stats[0].checking_slots_executed == 4

    def test_slot_accounting(self, line_network):
        result = self._run(line_network)
        checking = sum(s.checking_slots_executed for s in result.round_stats)
        assert result.slots.short_slots == 5 * 8 + checking
        assert result.slots.id_slots == 5  # ceil(8/96) = 1 per round

    def test_too_short_checking_frame_loses_data(self, line_network):
        result = self._run(line_network, checking_frame_length=2, max_rounds=10)
        assert not result.terminated_cleanly
        assert result.bitmap.is_empty()
        assert result.rounds == 1

    def test_max_rounds_exhaustion_flagged(self, line_network):
        result = self._run(line_network, max_rounds=2)
        assert not result.terminated_cleanly
        assert result.rounds == 2
        assert result.bitmap.is_empty()


class TestStarScenarios:
    def test_colliding_outer_pick_absorbed(self, star_network):
        """Tier-2 tag picks the same slot as a tier-1 tag: one round."""
        picks = [0, 1, 2, 3, 0]
        result = run_session(star_network, picks, config=CCMConfig(frame_size=8))
        assert result.rounds == 1
        assert result.bitmap == Bitmap.from_indices(8, [0, 1, 2, 3])

    def test_unique_outer_pick_takes_two_rounds(self, star_network):
        picks = [0, 1, 2, 3, 4]
        result = run_session(star_network, picks, config=CCMConfig(frame_size=8))
        assert result.rounds == 2
        assert result.bitmap == Bitmap.from_indices(8, [0, 1, 2, 3, 4])

    def test_no_participants(self, star_network):
        result = run_session(
            star_network, [-1] * 5, config=CCMConfig(frame_size=8))
        assert result.rounds == 1
        assert result.bitmap.is_empty()
        assert result.terminated_cleanly
        # Nothing was sent in the data frame.
        assert result.round_stats[0].transmitting_tags == 0

    def test_indicator_vector_stops_outward_flood(self, star_network):
        """With the indicator vector, tier-1 picks never reach round 2;
        without it, the tier-2 tag re-transmits what it overheard."""
        picks = [0, 1, 2, 3, -1]
        with_iv = run_session(star_network, picks, config=CCMConfig(frame_size=8))
        without_iv = run_session(
            star_network,
            picks,
            config=CCMConfig(frame_size=8, use_indicator_vector=False, max_rounds=6),
        )
        assert with_iv.rounds == 1
        assert with_iv.bitmap == without_iv.bitmap
        assert (
            without_iv.ledger.bits_sent.sum() > with_iv.ledger.bits_sent.sum()
        )


class TestHalfDuplex:
    def test_same_slot_neighbors_do_not_relearn(self, line_network):
        """Tags 1 and 2 pick the same slot; transmitting simultaneously,
        neither hears the other, and neither re-relays in round 2 (they are
        already done with that slot)."""
        picks = [-1, 0, 0, -1, -1]
        result = run_session(line_network, picks, config=CCMConfig(frame_size=8))
        # Round 1: tags 1 & 2 transmit; round 2: tags 0 (inward) and 3
        # (outward) relay; reader hears in round 2 and silences; tag 4
        # learns slot 0 in round 2 but it is silenced before round 3.
        assert result.rounds == 2
        assert result.bitmap == Bitmap.from_indices(8, [0])
        sent = result.ledger.bits_sent
        # Tags 1 and 2 transmitted the data slot exactly once each.
        assert sent[1] >= 1 and sent[2] >= 1


class TestEnergyAccounting:
    def test_listen_bounded_by_frame(self, star_network):
        picks = [0, 1, 2, 3, 4]
        result = run_session(star_network, picks, config=CCMConfig(frame_size=8))
        f = 8
        rounds = result.rounds
        checking = sum(s.checking_slots_executed for s in result.round_stats)
        upper = rounds * f + rounds * f + checking  # data + indicator + checking
        assert np.all(result.ledger.bits_received <= upper)

    def test_indicator_broadcast_counted_for_all(self, star_network):
        result = run_session(star_network, [-1] * 5, config=CCMConfig(frame_size=8))
        # One round: every tag monitored 8 slots, received the 8-bit
        # indicator vector, and listened through the silent checking frame.
        l_c = default_checking_frame_length(star_network)
        expected = 8 + 8 + l_c
        assert np.allclose(result.ledger.bits_received, expected)

    def test_external_ledger_accumulates(self, star_network):
        """Two-round sessions fold into a caller's pre-seeded, non-integer
        ledger to the same bytes on both engines: the floats the bigint
        oracle once reached adding into it round by round."""
        expected = [
            # (bits_sent, bits_received) after one and after two sessions
            ([3.0, 2.5, 4.0, 5.5, 7.0], [40.0, 43.5, 45.0, 46.5, 47.0]),
            ([6.0, 3.5, 5.0, 6.5, 8.0], [80.0, 85.5, 87.0, 88.5, 88.0]),
        ]
        ledgers = {}
        for engine in ("bigint", "packed"):
            ledger = EnergyLedger(5)
            ledger.bits_sent += np.arange(5) * 1.5
            ledger.bits_received += np.arange(5) * 1.5
            for sent, received in expected:
                result = run_session(
                    star_network, [0, 1, 2, 3, 4],
                    config=CCMConfig(frame_size=8), ledger=ledger,
                    engine=engine,
                )
                assert result.rounds == 2
                assert result.ledger is ledger
                assert ledger.bits_sent.tobytes() == (
                    np.array(sent).tobytes()
                )
                assert ledger.bits_received.tobytes() == (
                    np.array(received).tobytes()
                )
            ledgers[engine] = ledger
        assert ledgers["bigint"].bits_sent.tobytes() == (
            ledgers["packed"].bits_sent.tobytes()
        )
        assert ledgers["bigint"].bits_received.tobytes() == (
            ledgers["packed"].bits_received.tobytes()
        )


class TestRandomNetworkEquivalence:
    """Theorem 1 on random deployments (the integration suite covers more)."""

    @pytest.mark.parametrize("probability", [1.0, 0.4])
    def test_bitmap_matches_traditional(self, small_network, probability):
        frame = 257
        picks = frame_picks(small_network.tag_ids, frame, probability, seed=5)
        result = run_session(small_network, picks, config=CCMConfig(frame_size=frame))
        reachable_ids = small_network.tag_ids[small_network.reachable_mask]
        reference = ideal_bitmap(reachable_ids, frame, probability, seed=5)
        assert result.bitmap == reference
        assert result.terminated_cleanly

    def test_rounds_bounded_by_tiers(self, small_network):
        picks = frame_picks(small_network.tag_ids, 128, 1.0, seed=6)
        result = run_session(small_network, picks, config=CCMConfig(frame_size=128))
        assert result.rounds <= small_network.num_tiers + 1


class TestLossyChannelSession:
    def test_lossy_session_runs_and_loses_at_most_everything(self, star_network):
        picks = [0, 1, 2, 3, 4]
        rng = np.random.default_rng(17)
        result = run_session(
            star_network,
            picks,
            config=CCMConfig(frame_size=8),
            channel=LossyChannel(loss=0.3),
            rng=rng,
        )
        full = Bitmap.from_indices(8, [0, 1, 2, 3, 4])
        assert result.bitmap.difference(full).is_empty()  # no phantom bits

    def test_zero_loss_lossy_equals_perfect(self, star_network):
        picks = [0, 1, 2, 3, 4]
        rng = np.random.default_rng(17)
        lossy = run_session(
            star_network, picks, config=CCMConfig(frame_size=8),
            channel=LossyChannel(loss=0.0), rng=rng,
        )
        perfect = run_session(star_network, picks, config=CCMConfig(frame_size=8))
        assert lossy.bitmap == perfect.bitmap
        assert lossy.rounds == perfect.rounds
