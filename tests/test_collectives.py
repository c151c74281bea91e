"""Unit tests for repro.collectives (Reduce-Scatter / AllGather / AllReduce)."""

import numpy as np
import pytest

from repro.collectives import (all_gather, all_reduce_average,
                               partition_slices, reduce_scatter,
                               traffic_values)


class TestPartitionSlices:
    def test_covers_range_exactly(self):
        slices = partition_slices(100, 8)
        assert slices[0].start == 0
        assert slices[-1].stop == 100
        for a, b in zip(slices, slices[1:]):
            assert a.stop == b.start

    def test_balanced(self):
        slices = partition_slices(103, 8)
        sizes = [s.stop - s.start for s in slices]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 103

    def test_single_worker(self):
        assert partition_slices(10, 1) == [slice(0, 10)]

    def test_rejects_too_many_workers(self):
        with pytest.raises(ValueError):
            partition_slices(3, 8)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            partition_slices(10, 0)


class TestReduceScatter:
    def test_owner_partitions_are_averages(self):
        rng = np.random.default_rng(0)
        models = [rng.normal(size=40) for _ in range(4)]
        partitions = reduce_scatter(models)
        mean = np.mean(models, axis=0)
        slices = partition_slices(40, 4)
        for owner, part in enumerate(partitions):
            assert np.allclose(part, mean[slices[owner]])

    def test_sum_mode(self):
        models = [np.ones(8), 2 * np.ones(8)]
        partitions = reduce_scatter(models, combine="sum")
        assert np.allclose(np.concatenate(partitions), 3 * np.ones(8))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            reduce_scatter([np.ones(4), np.ones(5)])

    def test_invalid_combine(self):
        # Only MLlib*'s primal average and the dual path's sum exist.
        for combine in ("median", "weighted"):
            with pytest.raises(ValueError, match="'average' or 'sum'"):
                reduce_scatter([np.ones(4)], combine=combine)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reduce_scatter([])


class TestAllGather:
    def test_reassembles_in_owner_order(self):
        partitions = [np.array([0.0, 1.0]), np.array([2.0, 3.0])]
        full = all_gather(partitions, 4)
        assert np.allclose(full, [0.0, 1.0, 2.0, 3.0])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sizes"):
            all_gather([np.ones(3), np.ones(3)], 4)


class TestAllReduce:
    @pytest.mark.parametrize("k,m", [(1, 5), (2, 10), (4, 10), (8, 103)])
    def test_equals_numpy_mean(self, k, m):
        rng = np.random.default_rng(k * 100 + m)
        models = [rng.normal(size=m) for _ in range(k)]
        got = all_reduce_average(models)
        assert np.allclose(got, np.mean(models, axis=0))

    def test_idempotent_on_identical_models(self):
        models = [np.arange(12.0)] * 4
        assert np.allclose(all_reduce_average(models), np.arange(12.0))


class TestTrafficInvariant:
    def test_two_k_m_shape(self):
        """Section IV-B2: each executor sends/receives the model twice.

        Exact per-run traffic is 2(k-1)m; the paper rounds to 2km.
        """
        k, m = 8, 1000
        exact = traffic_values(m, k)
        assert exact == pytest.approx(2 * (k - 1) * m)
        paper_estimate = 2 * k * m
        assert exact <= paper_estimate
        assert exact >= paper_estimate * (k - 1) / k

    def test_single_worker_no_traffic(self):
        assert traffic_values(1000, 1) == 0.0
