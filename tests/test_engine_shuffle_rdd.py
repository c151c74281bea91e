"""Unit tests for repro.engine.shuffle and repro.engine.rdd."""

import numpy as np
import pytest

from repro.cluster import cluster1
from repro.data import SyntheticSpec, generate
from repro.engine import PartitionedDataset
from repro.engine.shuffle import ShuffleModel, exchange


class TestExchange:
    def test_routes_to_destinations(self):
        outboxes = [{1: "a->b"}, {0: "b->a"}]
        inboxes = exchange(outboxes)
        assert inboxes == [["b->a"], ["a->b"]]

    def test_source_order_preserved(self):
        outboxes = [{0: "from0"}, {0: "from1"}, {0: "from2"}]
        inboxes = exchange(outboxes, num_workers=3)
        assert inboxes[0] == ["from0", "from1", "from2"]
        assert inboxes[1] == [] and inboxes[2] == []

    def test_self_messages_allowed(self):
        inboxes = exchange([{0: "self"}])
        assert inboxes == [["self"]]

    def test_bad_destination(self):
        with pytest.raises(ValueError, match="addressed"):
            exchange([{5: "lost"}], num_workers=2)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            exchange([], num_workers=0)


class TestShuffleModel:
    def test_round_cost(self):
        cluster = cluster1()
        model = ShuffleModel()
        one = cluster.network.transfer_seconds(1000)
        assert model.round_seconds(cluster, 7, 1000) == pytest.approx(7 * one)

    def test_zero_messages_free(self):
        assert ShuffleModel().round_seconds(cluster1(), 0, 1000) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ShuffleModel().round_seconds(cluster1(), -1, 10)


class TestPartitionedDataset:
    @pytest.fixture
    def ds(self):
        return generate(SyntheticSpec(n_rows=160, n_features=20, seed=1))

    def test_one_partition_per_executor(self, ds):
        cluster = cluster1(executors=8)
        data = PartitionedDataset.load(ds, cluster)
        assert data.num_partitions == 8
        assert data.n_features == 20

    def test_total_rows_and_nnz_preserved(self, ds):
        data = PartitionedDataset.load(ds, cluster1(executors=4))
        assert sum(p.n_rows for p in data.partitions) == ds.n_rows
        assert sum(p.nnz for p in data.partitions) == ds.nnz

    def test_partition_accessor(self, ds):
        data = PartitionedDataset.load(ds, cluster1(executors=4))
        assert data.partition(2).index == 2

    def test_deterministic_by_seed(self, ds):
        a = PartitionedDataset.load(ds, cluster1(), seed=7)
        b = PartitionedDataset.load(ds, cluster1(), seed=7)
        for pa, pb in zip(a.partitions, b.partitions):
            assert np.array_equal(pa.y, pb.y)

    def test_requires_executor(self, ds):
        from repro.cluster import ClusterSpec, homogeneous_nodes
        lonely = ClusterSpec(nodes=homogeneous_nodes(1))
        with pytest.raises(ValueError):
            PartitionedDataset.load(ds, lonely)
