"""Unit tests for repro.engine.aggregation and the driver broadcast price."""

import pytest

from repro.cluster import cluster1
from repro.engine import BspEngine, executor_label
from repro.engine.aggregation import TreeAggregateModel


class TestTreeAggregatePlan:
    def test_depth2_sqrt_aggregators(self):
        model = TreeAggregateModel(depth=2)
        assert model.num_aggregators(8) == 2
        assert model.num_aggregators(16) == 4
        assert model.num_aggregators(1) == 1

    def test_depth1_no_aggregators(self):
        model = TreeAggregateModel(depth=1)
        assert model.num_aggregators(8) == 0
        assert model.plan(8) == {}

    def test_groups_cover_everyone(self):
        model = TreeAggregateModel(depth=2)
        plan = model.plan(8)
        assert sum(plan.values()) == 8
        assert max(plan.values()) - min(plan.values()) <= 1

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            TreeAggregateModel(depth=3)

    def test_rejects_no_executors(self):
        with pytest.raises(ValueError):
            TreeAggregateModel().num_aggregators(0)


class TestTreeAggregateTiming:
    def test_hierarchical_driver_cheaper_than_flat(self):
        """treeAggregate exists to shed driver load; verify it does."""
        cluster = cluster1(executors=16)
        m = 1_000_000
        flat = TreeAggregateModel(depth=1).timing(cluster, m)
        tree = TreeAggregateModel(depth=2).timing(cluster, m)
        assert tree.driver_seconds < flat.driver_seconds

    def test_flat_total_can_beat_tree_for_few_executors(self):
        """With 4 executors the tree's extra hop isn't obviously better;
        the timing model must at least produce finite sensible values."""
        cluster = cluster1(executors=4)
        timing = TreeAggregateModel(depth=2).timing(cluster, 10_000)
        assert timing.total_seconds > 0
        assert timing.aggregator_seconds > 0
        assert timing.driver_seconds > 0

    def test_driver_cost_scales_with_model(self):
        cluster = cluster1()
        small = TreeAggregateModel().timing(cluster, 1_000)
        large = TreeAggregateModel().timing(cluster, 1_000_000)
        assert large.total_seconds > small.total_seconds


class TestBroadcast:
    def test_serial_linear_in_executors(self):
        """The driver's uplink sends the k copies back to back: the
        broadcast costs exactly a k-message fan-in, and each executor's
        copy lands after the previous one's (the paper's staircase)."""
        m = 100_000
        seconds = {}
        for k in (8, 16):
            cluster = cluster1(executors=k)
            engine = BspEngine(cluster)
            seconds[k] = engine.broadcast_phase(m, step=0)
            assert seconds[k] == cluster.network.fan_in_seconds(k, m)
            per_copy = seconds[k] / k
            for i in range(k):
                recvs = [s for s in engine.trace.spans_for(executor_label(i))
                         if s.kind == "recv"]
                assert len(recvs) == 1
                assert recvs[0].start == pytest.approx(i * per_copy)
                assert recvs[0].end == pytest.approx((i + 1) * per_copy)
        assert seconds[16] == pytest.approx(2 * seconds[8])
