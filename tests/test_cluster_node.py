"""Unit tests for repro.cluster.node."""

import numpy as np
import pytest

from repro.cluster.node import (LogNormalStragglers, NodeSpec, NoStragglers,
                                heterogeneous_nodes, homogeneous_nodes)


class TestNodeSpec:
    def test_compute_seconds_scales_with_speed(self):
        fast = NodeSpec(node_id=0, speed=2.0)
        slow = NodeSpec(node_id=1, speed=0.5)
        assert fast.compute_seconds(10.0) == pytest.approx(5.0)
        assert slow.compute_seconds(10.0) == pytest.approx(20.0)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError, match="speed"):
            NodeSpec(node_id=0, speed=0.0)
        with pytest.raises(ValueError, match="speed"):
            NodeSpec(node_id=0, speed=-1.0)

    def test_is_frozen(self):
        node = NodeSpec(node_id=0)
        with pytest.raises(AttributeError):
            node.speed = 2.0


class TestHomogeneousNodes:
    def test_count_and_ids(self):
        nodes = homogeneous_nodes(5)
        assert len(nodes) == 5
        assert [n.node_id for n in nodes] == [0, 1, 2, 3, 4]

    def test_all_same_speed(self):
        nodes = homogeneous_nodes(4, speed=1.5)
        assert all(n.speed == 1.5 for n in nodes)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            homogeneous_nodes(0)


class TestHeterogeneousNodes:
    def test_speeds_vary(self):
        rng = np.random.default_rng(0)
        nodes = heterogeneous_nodes(50, rng)
        speeds = [n.speed for n in nodes]
        assert len(set(speeds)) > 1
        assert all(s > 0 for s in speeds)

    def test_deterministic_given_rng_seed(self):
        a = heterogeneous_nodes(10, np.random.default_rng(3))
        b = heterogeneous_nodes(10, np.random.default_rng(3))
        assert [n.speed for n in a] == [n.speed for n in b]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            heterogeneous_nodes(0, np.random.default_rng(0))


class TestStragglerModels:
    def test_no_stragglers_is_unity(self):
        model = NoStragglers()
        rng = np.random.default_rng(0)
        node = NodeSpec(node_id=0)
        assert all(model.slowdown(rng, node, t) == 1.0 for t in range(20))

    def test_lognormal_at_least_one(self):
        model = LogNormalStragglers(sigma=0.5)
        rng = np.random.default_rng(0)
        node = NodeSpec(node_id=0)
        draws = [model.slowdown(rng, node, t) for t in range(200)]
        assert all(d >= 1.0 for d in draws)
        assert max(d for d in draws) > 1.0

    def test_lognormal_zero_sigma_is_unity(self):
        model = LogNormalStragglers(sigma=0.0)
        rng = np.random.default_rng(0)
        node = NodeSpec(node_id=0)
        assert model.slowdown(rng, node, 0) == 1.0

    def test_lognormal_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            LogNormalStragglers(sigma=-0.1)

    def test_max_slowdown_grows_with_worker_count(self):
        """The BSP-barrier argument: max over k draws grows with k."""
        model = LogNormalStragglers(sigma=0.4)
        rng = np.random.default_rng(1)
        node = NodeSpec(node_id=0)
        max_of_4 = np.mean([
            max(model.slowdown(rng, node, 0) for _ in range(4))
            for _ in range(200)])
        max_of_64 = np.mean([
            max(model.slowdown(rng, node, 0) for _ in range(64))
            for _ in range(200)])
        assert max_of_64 > max_of_4
