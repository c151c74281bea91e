"""Fast kernels vs reference implementations: bit-identity and units.

The wall-clock fast path (:mod:`repro.glm.kernels`) is only legitimate
if it is a pure speed change: every kernel must produce bit-for-bit the
results of the retained reference bodies (:mod:`repro.glm.reference`)
on every input shape, density, chunk size and regularizer.  Hypothesis
drives the epoch solvers through both paths and compares weights, stats
and RNG end-states exactly — no tolerances anywhere in this file.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.glm import (Objective, apply_update, apply_update_inplace,
                       chunk_grad_touched, chunk_margins, mgd_epoch,
                       permuted_epoch, reference, sgd_epoch,
                       touched_columns)
from repro.glm.lazy_update import ScaledVector


def make_problem(n_rows: int, n_features: int, density: float, seed: int):
    X = sp.random(n_rows, n_features, density=density, format="csr",
                  random_state=np.random.RandomState(seed))
    X.sum_duplicates()
    X.sort_indices()
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n_rows) < 0.5, -1.0, 1.0)
    w0 = rng.standard_normal(n_features) * 0.1
    return X, y, w0


REGULARIZERS = [None, ("l2", 0.1), ("l1", 0.01)]


def make_objective(loss: str, reg) -> Objective:
    return Objective(loss) if reg is None else Objective(loss, *reg)


problem_params = st.tuples(
    st.integers(min_value=1, max_value=60),       # rows
    st.integers(min_value=4, max_value=200),      # features
    st.floats(min_value=0.02, max_value=0.6),     # density
    st.integers(min_value=0, max_value=10_000),   # seed
)


class TestSgdEpochBitIdentity:
    @given(params=problem_params,
           loss=st.sampled_from(["hinge", "logistic", "squared"]),
           reg=st.sampled_from(REGULARIZERS),
           chunk_size=st.sampled_from([1, 3, 16, 64]),
           shuffle=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fast_equals_reference(self, params, loss, reg, chunk_size,
                                   shuffle):
        n, m, density, seed = params
        X, y, w0 = make_problem(n, m, density, seed)
        objective = make_objective(loss, reg)
        rng_fast = np.random.default_rng(seed + 1)
        rng_ref = np.random.default_rng(seed + 1)
        w_fast, stats_fast = sgd_epoch(objective, w0, X, y, 0.05, rng_fast,
                                       chunk_size=chunk_size,
                                       shuffle=shuffle)
        # The dispatcher's draw, from a twin RNG: one permutation or none.
        order = rng_ref.permutation(n) if shuffle else np.arange(n)
        if objective.regularizer.name in ("none", "l2"):
            w_ref, stats_ref = reference.sgd_epoch_lazy_reference(
                objective, w0, X, y, 0.05, chunk_size, order)
        else:
            w_ref, stats_ref = reference.sgd_epoch_eager_reference(
                objective, w0, X, y, 0.05, chunk_size, order)
        assert np.array_equal(w_fast, w_ref)
        assert stats_fast == stats_ref
        # The fast path consumes the RNG exactly as the dispatcher's draw.
        assert (rng_fast.bit_generator.state
                == rng_ref.bit_generator.state)

    @given(params=problem_params,
           loss=st.sampled_from(["hinge", "logistic", "squared"]),
           reg=st.sampled_from(REGULARIZERS),
           batch_size=st.sampled_from([1, 5, 32]))
    @settings(max_examples=60, deadline=None)
    def test_mgd_fast_equals_reference(self, params, loss, reg, batch_size):
        n, m, density, seed = params
        X, y, w0 = make_problem(n, m, density, seed)
        objective = make_objective(loss, reg)
        rng_fast = np.random.default_rng(seed + 2)
        rng_ref = np.random.default_rng(seed + 2)
        w_fast, stats_fast = mgd_epoch(objective, w0, X, y, 0.05,
                                       batch_size, rng_fast)
        w_ref, stats_ref = reference.mgd_epoch_reference(
            objective, w0, X, y, 0.05, batch_size, rng_ref.permutation(n))
        assert np.array_equal(w_fast, w_ref)
        assert stats_fast == stats_ref
        assert (rng_fast.bit_generator.state
                == rng_ref.bit_generator.state)


class TestKernelUnits:
    @given(params=problem_params)
    @settings(max_examples=40, deadline=None)
    def test_touched_columns_is_unique(self, params):
        n, m, density, seed = params
        X, _, _ = make_problem(n, m, density, seed)
        got = touched_columns(X.indices)
        assert np.array_equal(got, np.unique(X.indices))

    def test_touched_columns_empty(self):
        idx = np.zeros(0, dtype=np.int32)
        assert touched_columns(idx).size == 0

    def test_touched_columns_single_row_skips_sort(self):
        # A canonical CSR row is already sorted and duplicate-free.
        idx = np.array([2, 5, 9], dtype=np.int32)
        assert touched_columns(idx, single_row=True) is idx

    @given(params=problem_params)
    @settings(max_examples=40, deadline=None)
    def test_chunk_margins_matches_matvec(self, params):
        n, m, density, seed = params
        X, _, _ = make_problem(n, m, density, seed)
        v = np.random.default_rng(seed + 3).standard_normal(m)
        got = chunk_margins(X.indices, X.data, np.diff(X.indptr), v, n)
        assert np.array_equal(got, X @ v)

    @given(params=problem_params)
    @settings(max_examples=40, deadline=None)
    def test_chunk_grad_touched_matches_dense(self, params):
        n, m, density, seed = params
        X, _, _ = make_problem(n, m, density, seed)
        factor = np.random.default_rng(seed + 4).standard_normal(n)
        touched = touched_columns(X.indices)
        got = chunk_grad_touched(X.indices, X.data, np.diff(X.indptr),
                                 factor, touched)
        dense = np.asarray(X.T @ factor) / n
        assert np.array_equal(got, dense[touched])
        # Everything off the support is exactly zero in the dense version.
        mask = np.ones(m, dtype=bool)
        mask[touched] = False
        assert not np.any(dense[mask])

    @given(m=st.integers(min_value=1, max_value=100),
           seed=st.integers(min_value=0, max_value=1000),
           loss=st.sampled_from(["hinge", "squared"]),
           reg=st.sampled_from(REGULARIZERS))
    @settings(max_examples=40, deadline=None)
    def test_apply_update_inplace_matches(self, m, seed, loss, reg):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(m)
        grad = rng.standard_normal(m)
        objective = make_objective(loss, reg)
        expected = apply_update(w, grad, 0.1, objective)
        got = apply_update_inplace(np.array(w, copy=True), grad, 0.1,
                                   objective, np.empty(m))
        assert np.array_equal(got, expected)

    def test_permuted_epoch_matches_gather(self):
        X, y, _ = make_problem(40, 30, 0.2, 5)
        order = np.random.default_rng(9).permutation(40)
        Xp, yp = permuted_epoch(X, y, order, shuffle=True)
        for a, b in [(0, 7), (7, 40), (13, 13), (20, 55)]:
            assert np.array_equal(Xp[a:b].toarray(), X[order[a:b]].toarray())
        assert np.array_equal(yp, y[order])

    def test_permuted_epoch_no_shuffle_is_passthrough(self):
        X, y, _ = make_problem(10, 8, 0.3, 6)
        Xp, yp = permuted_epoch(X, y, np.arange(10), shuffle=False)
        assert Xp is X and yp is y


class TestScaledVectorValuesView:
    def test_view_tracks_storage(self):
        sv = ScaledVector(np.array([1.0, 2.0, 3.0]))
        sv.axpy_sparse(1.0, np.array([1]), np.array([5.0]))
        assert np.array_equal(sv.values, [1.0, 7.0, 3.0])

    def test_view_is_read_only(self):
        sv = ScaledVector(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            sv.values[0] = 9.0
        # The write protection must not leak back into the storage.
        sv.axpy_dense(1.0, np.array([1.0, 1.0]))
        assert np.array_equal(sv.to_array(), [2.0, 3.0])

