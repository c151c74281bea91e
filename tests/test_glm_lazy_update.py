"""Unit tests for repro.glm.lazy_update (ScaledVector)."""

import numpy as np

from repro.glm.lazy_update import ScaledVector


class TestScaledVector:
    def test_roundtrip(self):
        v = np.array([1.0, 2.0, 3.0])
        sv = ScaledVector(v)
        assert np.allclose(sv.to_array(), v)

    def test_copies_input(self):
        v = np.array([1.0, 2.0])
        sv = ScaledVector(v)
        v[0] = 99.0
        assert sv.to_array()[0] == 1.0

    def test_decay_is_scalar_mult(self):
        sv = ScaledVector(np.array([2.0, 4.0]))
        sv.decay(0.5)
        assert np.allclose(sv.to_array(), [1.0, 2.0])

    def test_decay_is_o1_dense_ops(self):
        sv = ScaledVector(np.ones(1000))
        before = sv.dense_ops
        sv.decay(0.9)
        assert sv.dense_ops == before  # no dense coordinates touched

    def test_axpy_sparse_through_scale(self):
        sv = ScaledVector(np.array([1.0, 1.0, 1.0]))
        sv.decay(0.5)
        sv.axpy_sparse(2.0, np.array([1]), np.array([3.0]))
        # logical: 0.5*[1,1,1] then +2*3 at index 1 => [0.5, 6.5, 0.5]
        assert np.allclose(sv.to_array(), [0.5, 6.5, 0.5])

    def test_axpy_sparse_counts_touched_coords(self):
        sv = ScaledVector(np.zeros(100))
        sv.axpy_sparse(1.0, np.arange(7), np.ones(7))
        assert sv.dense_ops == 7

    def test_axpy_empty_indices_noop(self):
        sv = ScaledVector(np.ones(4))
        sv.axpy_sparse(5.0, np.array([], dtype=int), np.array([]))
        assert np.allclose(sv.to_array(), np.ones(4))
        assert sv.dense_ops == 0

    def test_axpy_dense(self):
        sv = ScaledVector(np.array([1.0, 2.0]))
        sv.decay(2.0)
        sv.axpy_dense(1.0, np.array([10.0, 10.0]))
        assert np.allclose(sv.to_array(), [12.0, 14.0])
        assert sv.dense_ops == 2

    def test_rebase_preserves_value(self):
        sv = ScaledVector(np.array([1.0, -2.0]))
        for _ in range(200):
            sv.decay(0.9)  # drives scale below threshold, forcing rebases
        expected = np.array([1.0, -2.0]) * 0.9 ** 200
        assert np.allclose(sv.to_array(), expected)
        assert sv.scale >= ScaledVector.REBASE_THRESHOLD

    def test_zero_decay_zeroes_vector(self):
        sv = ScaledVector(np.array([1.0, 2.0]))
        sv.decay(0.0)
        assert np.allclose(sv.to_array(), [0.0, 0.0])
        # Future sparse updates still work.
        sv.axpy_sparse(1.0, np.array([0]), np.array([5.0]))
        assert np.allclose(sv.to_array(), [5.0, 0.0])


class TestEquivalenceWithEagerUpdates:
    def test_sequence_matches_dense_reference(self):
        """A realistic SGD-like sequence must match the naive dense math."""
        rng = np.random.default_rng(3)
        dim = 50
        w_ref = rng.normal(size=dim)
        sv = ScaledVector(w_ref)
        for _ in range(100):
            decay = 1.0 - 0.01 * rng.random()
            idx = rng.choice(dim, size=5, replace=False)
            vals = rng.normal(size=5)
            w_ref = decay * w_ref
            w_ref[idx] += -0.1 * vals
            sv.decay(decay)
            sv.axpy_sparse(-0.1, idx, vals)
        assert np.allclose(sv.to_array(), w_ref)

    def test_lazy_is_cheaper_than_eager(self):
        """dense_ops accounting: lazy decay saves dim work per update."""
        dim = 1000
        lazy = ScaledVector(np.ones(dim))
        eager = ScaledVector(np.ones(dim))
        for _ in range(50):
            lazy.decay(0.99)
            lazy.axpy_sparse(-0.1, np.arange(5), np.ones(5))
            eager.axpy_dense(-0.01, eager.to_array())  # explicit decay
            eager.axpy_sparse(-0.1, np.arange(5), np.ones(5))
        assert lazy.dense_ops < eager.dense_ops / 10
