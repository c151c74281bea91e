"""Tests for skewed (geometrically unbalanced) partitioning."""

import numpy as np
import pytest

from repro.data import SyntheticSpec, generate, partition_rows


class TestSkewedPartitioning:
    @pytest.fixture
    def ds(self):
        return generate(SyntheticSpec(n_rows=1000, n_features=40, seed=8),
                        name="skew")

    def test_covers_all_rows(self, ds):
        parts = partition_rows(ds, 4, strategy="skewed")
        assert sum(p.n_rows for p in parts) == ds.n_rows

    def test_sizes_decrease_geometrically(self, ds):
        parts = partition_rows(ds, 4, strategy="skewed")
        sizes = [p.n_rows for p in parts]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] > 2 * sizes[-1]

    def test_no_empty_partitions(self, ds):
        parts = partition_rows(ds, 8, strategy="skewed")
        assert all(p.n_rows >= 1 for p in parts)

    def test_deterministic(self, ds):
        a = partition_rows(ds, 4, strategy="skewed", seed=2)
        b = partition_rows(ds, 4, strategy="skewed", seed=2)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.y, pb.y)
