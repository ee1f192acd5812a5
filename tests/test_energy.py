"""Unit tests for repro.net.energy — per-tag energy ledgers."""

import numpy as np
import pytest

from repro.net.energy import ID_BITS, EnergyLedger, TransceiverProfile


class TestLedgerBasics:
    def test_initial_state(self):
        led = EnergyLedger(3)
        assert led.avg_sent() == 0.0
        assert led.max_received() == 0.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            EnergyLedger(-1)

    def test_empty_ledger_summaries(self):
        led = EnergyLedger(0)
        assert led.summary() == {
            "max_sent": 0.0,
            "max_received": 0.0,
            "avg_sent": 0.0,
            "avg_received": 0.0,
        }

    def test_add_scalar(self):
        led = EnergyLedger(2)
        led.add_sent(0, 5)
        led.add_received(1, 7)
        assert led.bits_sent.tolist() == [5.0, 0.0]
        assert led.bits_received.tolist() == [0.0, 7.0]

    def test_negative_bits_rejected(self):
        led = EnergyLedger(2)
        with pytest.raises(ValueError):
            led.add_sent(0, -1)
        with pytest.raises(ValueError):
            led.add_received(0, -1)


class TestBulkUpdates:
    def test_bulk_sent(self):
        led = EnergyLedger(3)
        led.add_sent_bulk([1.0, 2.0, 3.0])
        assert led.avg_sent() == pytest.approx(2.0)
        assert led.max_sent() == 3.0

    def test_bulk_shape_check(self):
        led = EnergyLedger(3)
        with pytest.raises(ValueError):
            led.add_sent_bulk([1.0, 2.0])
        with pytest.raises(ValueError):
            led.add_received_bulk([1.0])

    def test_bulk_negative_rejected(self):
        led = EnergyLedger(2)
        with pytest.raises(ValueError):
            led.add_sent_bulk([1.0, -1.0])

    def test_received_to_all(self):
        led = EnergyLedger(3)
        led.add_received_to_all(10.0)
        assert led.bits_received.tolist() == [10.0, 10.0, 10.0]

    def test_received_to_masked(self):
        led = EnergyLedger(3)
        led.add_received_to_all(4.0, mask=np.array([True, False, True]))
        assert led.bits_received.tolist() == [4.0, 0.0, 4.0]

    def test_merge(self):
        a, b = EnergyLedger(2), EnergyLedger(2)
        a.add_sent(0, 1)
        b.add_sent(0, 2)
        b.add_received(1, 3)
        a.merge(b)
        assert a.bits_sent.tolist() == [3.0, 0.0]
        assert a.bits_received.tolist() == [0.0, 3.0]

    def test_merge_size_mismatch(self):
        with pytest.raises(ValueError):
            EnergyLedger(2).merge(EnergyLedger(3))


class TestSummaries:
    def test_table_statistics(self):
        led = EnergyLedger(4)
        led.add_sent_bulk([1, 2, 3, 10])
        led.add_received_bulk([100, 100, 100, 500])
        summary = led.summary()
        assert summary["max_sent"] == 10
        assert summary["avg_sent"] == 4.0
        assert summary["max_received"] == 500
        assert summary["avg_received"] == 200.0

    def test_load_balance_ratio(self):
        led = EnergyLedger(2)
        led.add_received_bulk([100.0, 300.0])
        assert led.load_balance_ratio() == pytest.approx(1.5)

    def test_load_balance_zero_safe(self):
        assert EnergyLedger(2).load_balance_ratio() == 0.0


class TestTransceiverProfile:
    def test_id_bits_constant(self):
        assert ID_BITS == 96

    def test_energy_formula(self):
        profile = TransceiverProfile(
            tx_joules_per_bit=2.0, rx_joules_per_bit=3.0
        )
        assert profile.energy(10, 20) == pytest.approx(80.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TransceiverProfile(tx_joules_per_bit=-1.0)

    def test_rx_and_tx_same_order_of_magnitude(self):
        """The paper's CC1120 argument: RX and TX per-bit costs are
        comparable, making received bits the dominant energy term."""
        profile = TransceiverProfile()
        ratio = profile.rx_joules_per_bit / profile.tx_joules_per_bit
        assert 0.1 < ratio < 10.0

    def test_total_and_per_tag_energy_consistent(self):
        led = EnergyLedger(3)
        led.add_sent_bulk([1, 2, 3])
        led.add_received_bulk([10, 20, 30])
        profile = TransceiverProfile()
        assert led.total_energy(profile) == pytest.approx(
            float(led.per_tag_energy(profile).sum())
        )


class TestGroupedMeans:
    def test_groups_by_label(self):
        led = EnergyLedger(4)
        led.add_sent_bulk([1, 2, 3, 4])
        led.add_received_bulk([10, 20, 30, 40])
        groups = led.grouped_means(np.array([1, 1, 2, 2]))
        assert groups[1] == (1.5, 15.0)
        assert groups[2] == (3.5, 35.0)

    def test_label_shape_check(self):
        with pytest.raises(ValueError):
            EnergyLedger(3).grouped_means(np.array([1, 2]))

    def test_per_tier_usage(self):
        """The intended call pattern: labels = network.tiers."""
        from repro.net.topology import PaperDeployment, paper_network

        net = paper_network(
            6.0, n_tags=300, seed=4, deployment=PaperDeployment(n_tags=300)
        )
        led = EnergyLedger(net.n_tags)
        led.add_received_bulk(np.arange(net.n_tags, dtype=float))
        groups = led.grouped_means(net.tiers)
        assert set(groups) <= set(range(-1, net.num_tiers + 1))
