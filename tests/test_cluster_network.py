"""Unit tests for repro.cluster.network (alpha-beta cost model)."""

import pytest

from repro.cluster.network import GIGABIT, TEN_GIGABIT, NetworkModel


class TestTransfer:
    def test_zero_values_is_free(self):
        net = NetworkModel()
        assert net.transfer_seconds(0) == 0.0

    def test_latency_plus_bandwidth(self):
        net = NetworkModel(bandwidth=1e6, alpha=0.01, bytes_per_value=8)
        # 1000 values * 8 bytes / 1e6 B/s = 8 ms, plus 10 ms latency.
        assert net.transfer_seconds(1000) == pytest.approx(0.018)

    def test_monotone_in_size(self):
        net = NetworkModel()
        assert net.transfer_seconds(2000) > net.transfer_seconds(1000)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NetworkModel().transfer_seconds(-1)


class TestAggregatePatterns:
    def test_fan_in_serializes(self):
        net = NetworkModel()
        one = net.transfer_seconds(500)
        assert net.fan_in_seconds(8, 500) == pytest.approx(8 * one)

    def test_fan_in_zero_senders_free(self):
        assert NetworkModel().fan_in_seconds(0, 1000) == 0.0

    def test_fan_in_rejects_negative_senders(self):
        with pytest.raises(ValueError):
            NetworkModel().fan_in_seconds(-1, 10)


class TestDriverBottleneckEconomics:
    """The quantitative heart of bottleneck B2."""

    def test_driver_fan_in_beats_all_to_all_for_large_models(self):
        net = NetworkModel(bandwidth=GIGABIT, alpha=1e-3)
        k, m = 8, 5_000_000
        driver = net.fan_in_seconds(k, m)
        # Reduce-scatter style: k-1 concurrent messages of m/k values.
        all_to_all = (k - 1) * net.transfer_seconds(m / k)
        assert driver > 5 * all_to_all

    def test_latency_dominates_for_tiny_models(self):
        """For small models the extra messages of AllReduce can LOSE —
        consistent with the paper's smaller gains on avazu."""
        net = NetworkModel(bandwidth=GIGABIT, alpha=1e-3)
        k, m = 8, 100
        driver = net.fan_in_seconds(k, m)
        all_to_all = (k - 1) * net.transfer_seconds(m / k)
        assert all_to_all < 2 * driver  # comparable, no big win


class TestValidation:
    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=0)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            NetworkModel(alpha=-1e-3)

    def test_rejects_bad_bytes_per_value(self):
        with pytest.raises(ValueError):
            NetworkModel(bytes_per_value=0)

    def test_link_constants(self):
        assert TEN_GIGABIT == pytest.approx(10 * GIGABIT)
