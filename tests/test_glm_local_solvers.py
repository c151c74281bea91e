"""Unit tests for repro.glm.local_solvers."""

import numpy as np
import pytest

from repro.data import SyntheticSpec, generate
from repro.glm import (LocalStats, Objective, apply_update, mgd_epoch,
                       sample_batch, sgd_epoch)


@pytest.fixture
def data():
    ds = generate(SyntheticSpec(n_rows=400, n_features=40, nnz_per_row=6.0,
                                seed=17))
    return ds.X, ds.y


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestSampleBatch:
    def test_size(self, data, rng):
        X, y = data
        Xb, yb = sample_batch(X, y, 32, rng)
        assert Xb.shape == (32, 40)
        assert yb.shape == (32,)

    def test_caps_at_partition_size(self, data, rng):
        X, y = data
        Xb, _ = sample_batch(X, y, 10_000, rng)
        assert Xb.shape[0] == X.shape[0]

    def test_no_replacement(self, data, rng):
        X, y = data
        # Rows are distinct with high probability under our generator;
        # sampling without replacement must give distinct row data for a
        # full-size batch.
        Xb, _ = sample_batch(X, y, X.shape[0], rng)
        assert Xb.shape[0] == X.shape[0]

    def test_rejects_zero(self, data, rng):
        X, y = data
        with pytest.raises(ValueError):
            sample_batch(X, y, 0, rng)

    def test_empty_partition_is_a_clear_error(self, data, rng):
        # An empty partition used to die inside rng.choice with an
        # inscrutable message; it must name the actual problem.
        X, y = data
        with pytest.raises(ValueError, match="partition is empty"):
            sample_batch(X[:0], y[:0], 4, rng)


class TestApplyUpdate:
    def test_plain_gd(self):
        obj = Objective("hinge")
        w = np.array([1.0, 2.0])
        grad = np.array([0.5, -0.5])
        new = apply_update(w, grad, 0.1, obj)
        assert np.allclose(new, [0.95, 2.05])

    def test_l2_adds_decay(self):
        obj = Objective("hinge", "l2", 0.1)
        w = np.array([1.0, 0.0])
        new = apply_update(w, np.zeros(2), 0.5, obj)
        assert np.allclose(new, [1.0 - 0.5 * 0.1, 0.0])

    def test_does_not_mutate_input(self):
        obj = Objective("hinge")
        w = np.array([1.0])
        apply_update(w, np.array([1.0]), 0.1, obj)
        assert w[0] == 1.0


class TestMgdEpoch:
    def test_update_count(self, data, rng):
        X, y = data
        obj = Objective("hinge")
        _, stats = mgd_epoch(obj, np.zeros(40), X, y, 0.05, 64, rng)
        # ceil(400 / 64) = 7 batches
        assert stats.n_updates == 7

    def test_decreases_objective(self, data, rng):
        X, y = data
        obj = Objective("hinge")
        w = np.zeros(40)
        w2, _ = mgd_epoch(obj, w, X, y, 0.05, 64, rng)
        assert obj.value(w2, X, y) < obj.value(w, X, y)

    def test_covers_all_nnz(self, data, rng):
        X, y = data
        _, stats = mgd_epoch(Objective("hinge"), np.zeros(40), X, y,
                             0.05, 64, rng)
        assert stats.nnz_processed == 2 * X.nnz

    def test_no_shuffle_is_deterministic(self, data):
        X, y = data
        obj = Objective("hinge")
        a, _ = mgd_epoch(obj, np.zeros(40), X, y, 0.05, 64,
                         np.random.default_rng(1), shuffle=False)
        b, _ = mgd_epoch(obj, np.zeros(40), X, y, 0.05, 64,
                         np.random.default_rng(2), shuffle=False)
        assert np.array_equal(a, b)

    def test_rejects_bad_batch(self, data, rng):
        X, y = data
        with pytest.raises(ValueError):
            mgd_epoch(Objective("hinge"), np.zeros(40), X, y, 0.05, 0, rng)


class TestSgdEpoch:
    def test_chunked_update_count(self, data, rng):
        X, y = data
        _, stats = sgd_epoch(Objective("hinge"), np.zeros(40), X, y, 0.05,
                             rng, chunk_size=50)
        assert stats.n_updates == 8  # 400 / 50

    def test_decreases_objective(self, data, rng):
        X, y = data
        obj = Objective("hinge", "l2", 0.05)
        w = np.zeros(40)
        w2, _ = sgd_epoch(obj, w, X, y, 0.05, rng, chunk_size=16)
        assert obj.value(w2, X, y) < obj.value(w, X, y)

    def test_lazy_and_eager_l2_agree(self, data):
        """Same shuffle order => identical iterates, lazy or eager."""
        X, y = data
        obj = Objective("hinge", "l2", 0.1)
        w = np.random.default_rng(5).normal(size=40) * 0.1
        lazy, _ = sgd_epoch(obj, w, X, y, 0.05, np.random.default_rng(9),
                            chunk_size=16, lazy=True)
        eager, _ = sgd_epoch(obj, w, X, y, 0.05, np.random.default_rng(9),
                             chunk_size=16, lazy=False)
        assert np.allclose(lazy, eager, atol=1e-10)

    def test_lazy_charges_fewer_dense_ops(self, data):
        X, y = data
        obj = Objective("hinge", "l2", 0.1)
        w = np.zeros(40)
        _, lazy = sgd_epoch(obj, w, X, y, 0.05, np.random.default_rng(9),
                            chunk_size=4, lazy=True)
        _, eager = sgd_epoch(obj, w, X, y, 0.05, np.random.default_rng(9),
                             chunk_size=4, lazy=False)
        assert lazy.dense_ops < eager.dense_ops

    def test_per_example_chunk(self, data, rng):
        X, y = data
        obj = Objective("hinge")
        _, stats = sgd_epoch(obj, np.zeros(40), X[:20], y[:20], 0.05, rng,
                             chunk_size=1)
        assert stats.n_updates == 20

    def test_excessive_lr_lambda_raises(self, data, rng):
        X, y = data
        obj = Objective("hinge", "l2", 10.0)
        with pytest.raises(ValueError, match="lazy decay"):
            sgd_epoch(obj, np.zeros(40), X, y, 0.2, rng, lazy=True)

    def test_rejects_bad_chunk(self, data, rng):
        X, y = data
        with pytest.raises(ValueError):
            sgd_epoch(Objective("hinge"), np.zeros(40), X, y, 0.05, rng,
                      chunk_size=0)


class TestLocalStats:
    def test_merge(self):
        a = LocalStats(nnz_processed=10, n_updates=1, dense_ops=5)
        b = LocalStats(nnz_processed=20, n_updates=2, dense_ops=0)
        c = a.merge(b)
        assert (c.nnz_processed, c.n_updates, c.dense_ops) == (30, 3, 5)
