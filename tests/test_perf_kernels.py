"""Fast kernels vs reference implementations: bit-identity and units.

The wall-clock fast path (:mod:`repro.glm.kernels` and the compiled lazy
epoch and batch gradient of :mod:`repro.glm.native`) is only legitimate
if it is a pure speed change: every kernel must produce bit-for-bit the
results of the retained NumPy bodies (:mod:`repro.glm.reference`,
:func:`mgd_epoch_reference` below, and ``sample_batch`` +
``Objective.batch_loss_gradient`` for the batch gradient) on every input
shape, density, chunk size and regularizer.
Hypothesis drives the solvers through both paths and compares weights,
gradients, stats and RNG end-states exactly — no tolerances anywhere in
this file.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import logging
import multiprocessing as mp
import os
import pickle
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.worker import asgd_gradient_task, gradient_wave_task
from repro.data import Partition
from repro.glm import (LocalStats, Objective, apply_update,
                       apply_update_inplace, mgd_epoch, native, reference,
                       sample_batch, sampled_gradient, sgd_epoch)
from repro.engine.backend import ExecutionBackend
from repro.glm.lazy_update import ScaledVector
from repro.glm.losses import HingeLoss, LogisticLoss
from data.make_golden import SYSTEMS, golden_workload
from test_perf_backend import _assert_matches_serial


def mgd_epoch_reference(objective, w, X, y, lr, batch_size, order):
    """The pre-optimization body of ``mgd_epoch`` over rows ``order``:
    per-batch gather, fresh arrays, the allocating ``apply_update``."""
    stats = LocalStats()
    current = np.array(w, copy=True)
    for start in range(0, X.shape[0], batch_size):
        rows = order[start:start + batch_size]
        Xb, yb = X[rows], y[rows]
        grad = objective.batch_loss_gradient(current, Xb, yb)
        current = apply_update(current, grad, lr, objective)
        stats.nnz_processed += 2 * int(Xb.nnz)
        stats.n_updates += 1
        if objective.regularizer.is_dense:
            stats.dense_ops += w.shape[0]
    return current, stats


def make_problem(n_rows: int, n_features: int, density: float, seed: int):
    X = sp.random(n_rows, n_features, density=density, format="csr",
                  random_state=np.random.RandomState(seed))
    X.sum_duplicates()
    X.sort_indices()
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n_rows) < 0.5, -1.0, 1.0)
    w0 = rng.standard_normal(n_features) * 0.1
    return X, y, w0


REGULARIZERS = [None, ("l2", 0.1)]


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
           lazy=st.booleans(),
           shuffle=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fast_equals_reference(self, params, loss, reg, chunk_size,
                                   lazy, shuffle):
        n, m, density, seed = params
        X, y, w0 = make_problem(n, m, density, seed)
        objective = make_objective(loss, reg)
        rng_fast = np.random.default_rng(seed + 1)
        rng_ref = np.random.default_rng(seed + 1)
        w_fast, stats_fast = sgd_epoch(objective, w0, X, y, 0.05, rng_fast,
                                       chunk_size=chunk_size, lazy=lazy,
                                       shuffle=shuffle)
        # The dispatcher's draw, from a twin RNG: one permutation or none.
        order = rng_ref.permutation(n) if shuffle else np.arange(n)
        if lazy:
            w_ref, stats_ref = reference.sgd_epoch_lazy_reference(
                objective, w0, X, y, 0.05, chunk_size, order)
        else:
            # Eager chunked SGD is mini-batch GD over the same order.
            w_ref, stats_ref = mgd_epoch_reference(
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
        w_ref, stats_ref = mgd_epoch_reference(
            objective, w0, X, y, 0.05, batch_size, rng_ref.permutation(n))
        assert np.array_equal(w_fast, w_ref)
        assert stats_fast == stats_ref
        assert (rng_fast.bit_generator.state
                == rng_ref.bit_generator.state)


class TestKernelUnits:
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



# ----------------------------------------------------------------------
# the compiled lazy epoch (repro.glm.native)
# ----------------------------------------------------------------------
@st.composite
def lazy_problems(draw):
    """A partition for the lazy epoch: empty rows, chunks and partitions,
    optional duplicate/unsorted columns, int32 or int64 indices, and
    read-only arrays as the shm backend hands them over."""
    n = draw(st.integers(min_value=0, max_value=40))
    m = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    row_nnz = np.minimum(m, rng.integers(0, draw(st.integers(0, 8)) + 1, n)
                         * (rng.random(n) < draw(st.floats(0, 1))))
    indptr = np.concatenate([[0], np.cumsum(row_nnz)])
    if draw(st.booleans()):  # canonical: sorted, duplicate-free rows
        indices = np.concatenate([np.zeros(0, np.int64)] + [
            np.sort(rng.choice(m, k, replace=False)) for k in row_nnz])
    else:  # duplicate and unsorted columns
        indices = rng.integers(0, m, size=indptr[-1])
    data = rng.standard_normal(indptr[-1]) * draw(
        st.sampled_from([0.1, 1.0, 100.0]))
    X = sp.csr_matrix((data, indices.astype(np.int32),
                       indptr.astype(np.int32)), shape=(n, m))
    if draw(st.booleans()):
        X.indptr = X.indptr.astype(np.int64)
        X.indices = X.indices.astype(np.int64)
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if draw(st.booleans()):
        for array in (X.data, X.indices, X.indptr, y):
            array.setflags(write=False)
    w0 = rng.standard_normal(m) * 0.3
    w0[rng.random(m) < draw(st.sampled_from([0.0, 0.1]))] = draw(
        st.sampled_from([np.nan, np.inf, -0.0]))
    return X, y, w0, seed


def _outcome(run):
    try:
        return run(), None
    except ValueError as exc:
        return None, str(exc)


class TestCompiledLazyEpoch:
    @given(problem=lazy_problems(),
           loss=st.sampled_from(["hinge", "logistic", "squared"]),
           lr_lambda=st.sampled_from([0.0, 0.02, 0.5, 0.97, 1.0, 1.5]),
           chunk_size=st.sampled_from([1, 2, 64, 1000]),
           shuffle=st.booleans())
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_compiled_equals_reference(self, problem, loss, lr_lambda,
                                       chunk_size, shuffle):
        X, y, w0, seed = problem
        n = X.shape[0]
        lr = 0.05
        objective = (Objective(loss, "l2", lr_lambda / lr) if lr_lambda
                     else Objective(loss))
        rng_fast = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        fast, fast_error = _outcome(lambda: sgd_epoch(
            objective, w0, X, y, lr, rng_fast, chunk_size=chunk_size,
            shuffle=shuffle))
        order = rng_ref.permutation(n) if shuffle else np.arange(n)
        ref, ref_error = _outcome(lambda: reference.sgd_epoch_lazy_reference(
            objective, w0, X, y, lr, chunk_size, order))
        assert fast_error == ref_error
        if n == 0:
            assert fast_error is None
        if ref is not None:
            assert fast[0].tobytes() == ref[0].tobytes()
            assert fast[1] == ref[1]
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state

    def test_rebase_fires_and_matches(self):
        # lr * lambda = 0.97 shrinks the scale below the rebase threshold
        # within five chunks; both paths must count the same dense work.
        X, y, w0 = make_problem(60, 20, 0.3, 4)
        objective = Objective("hinge", "l2", 0.97 / 0.05)
        order = np.random.default_rng(3).permutation(60)
        fast, stats = sgd_epoch(objective, w0, X, y, 0.05,
                                np.random.default_rng(3), chunk_size=2)
        ref, ref_stats = reference.sgd_epoch_lazy_reference(
            objective, w0, X, y, 0.05, 2, order)
        assert fast.tobytes() == ref.tobytes() and stats == ref_stats
        assert stats.dense_ops > 2 * 20  # rebases beyond the final one

    @pytest.mark.parametrize("index", [np.int32, np.int64])
    def test_index_arrays_are_read_in_place(self, index):
        if native.library() is None:
            pytest.skip("the compiled tier is unavailable")
        X, y, w0 = make_problem(2000, 50, 0.5, 6)
        X.indptr, X.indices = X.indptr.astype(index), X.indices.astype(index)
        tracemalloc.start()
        try:
            sgd_epoch(Objective("hinge", "l2", 0.1), w0, X, y, 0.05,
                      np.random.default_rng(6), chunk_size=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.indices.nbytes / 2  # no copy of the index arrays

    @pytest.mark.parametrize("defect", ["column", "negative", "indptr"])
    def test_malformed_csr_is_rejected_before_the_c_loop(self, defect):
        # scipy does not check these; the C loop would index out of bounds.
        if native.library() is None:
            pytest.skip("the compiled tier is unavailable")
        X, y, w0 = make_problem(10, 6, 0.5, 1)
        if defect == "column":
            X.indices[-1] = 6
        elif defect == "negative":
            X.indices[0] = -1
        else:
            assert X.indptr[2] < X.indptr[-1]
            X.indptr[1] = X.indptr[-1]
        with pytest.raises(ValueError, match="not a valid CSR matrix"):
            sgd_epoch(Objective("hinge", "l2", 0.1), w0, X, y, 0.05,
                      np.random.default_rng(0), chunk_size=4)

    def test_compiled_tier_builds_where_a_compiler_is_expected(self):
        if importlib.util.find_spec("cffi") is None or "CC" in os.environ:
            pytest.skip("no cffi, or the compiler is overridden")
        assert native.library() is not None

    def test_callback_errors_propagate(self):
        if native.library() is None:
            pytest.skip("the compiled tier is unavailable")

        class Broken(HingeLoss):
            def gradient_factor(self, margins, y):
                raise ArithmeticError("broken loss")

        X, y, w0 = make_problem(10, 6, 0.5, 1)
        with pytest.raises(ArithmeticError, match="broken loss"):
            sgd_epoch(Objective(Broken()), w0, X, y, 0.05,
                      np.random.default_rng(0), chunk_size=4)

    def test_forced_fallback_runs_the_reference_and_warns_once(
            self, monkeypatch, caplog):
        def unavailable():
            raise ImportError("no C compiler")

        monkeypatch.setattr(native, "_build", unavailable)
        native.library.cache_clear()
        X, y, w0 = make_problem(30, 12, 0.3, 2)
        objective = Objective("logistic", "l2", 0.1)
        compiled = _mllib_fit()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.glm.native"):
                assert _mllib_fit() == compiled
                for seed in range(3):
                    got, stats = sgd_epoch(objective, w0, X, y, 0.05,
                                           np.random.default_rng(seed),
                                           chunk_size=4)
                    order = np.random.default_rng(seed).permutation(30)
                    ref, ref_stats = reference.sgd_epoch_lazy_reference(
                        objective, w0, X, y, 0.05, 4, order)
                    assert got.tobytes() == ref.tobytes()
                    assert stats == ref_stats
                    grads, nnz, _ = gradient_wave_task(
                        Partition(index=0, X=X, y=y), w0, objective, 2, 7,
                        np.random.default_rng(seed))
                    ref_grads, ref_nnz = _numpy_waves(
                        objective, w0, X, y, 2, 7,
                        np.random.default_rng(seed))
                    assert [g.tobytes() for g in grads] == [
                        g.tobytes() for g in ref_grads]
                    assert nnz == ref_nnz
        finally:
            native.library.cache_clear()
        warnings = [r for r in caplog.records if r.name == "repro.glm.native"]
        assert len(warnings) == 1
        assert "no C compiler" in warnings[0].getMessage()


# ----------------------------------------------------------------------
# the compiled batch gradient (SendGradient tasks and mgd_epoch)
# ----------------------------------------------------------------------
def _mllib_fit(backend: str = "serial"):
    """An MLlib golden fit's weights and its workers' RNG end states."""
    trainer_cls, loss = SYSTEMS["MLlib"]
    dataset, cluster, config = golden_workload()
    trainer = trainer_cls(Objective(loss, "l2", 0.1), cluster,
                          dataclasses.replace(config, backend=backend))
    weights = trainer.fit(dataset).model.weights.tobytes()
    return weights, [rng.bit_generator.state for rng in trainer._rngs]


def _numpy_waves(objective, w, X, y, waves, per_task, rng):
    """The NumPy body of ``gradient_wave_task``: sample, then gradient."""
    grads, nnz = [], []
    for _ in range(waves):
        Xb, yb = sample_batch(X, y, per_task, rng)
        grads.append(objective.batch_loss_gradient(w, Xb, yb))
        nnz.append(int(Xb.nnz))
    return grads, nnz


class TestCompiledBatchGradient:
    @given(problem=lazy_problems(),
           loss=st.sampled_from(["hinge", "logistic", "squared"]),
           waves=st.sampled_from([1, 2, 3]),
           per_task=st.sampled_from([1, 3, 17, 1000]))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_tasks_equal_the_numpy_body(self, problem, loss, waves,
                                        per_task):
        # per_task 1000 draws more rows than any partition has.
        X, y, w, seed = problem
        objective = Objective(loss)
        part = Partition(index=0, X=X, y=y)
        rng_fast = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        fast, fast_error = _outcome(lambda: gradient_wave_task(
            part, w, objective, waves, per_task, rng_fast))
        ref, ref_error = _outcome(lambda: _numpy_waves(
            objective, w, X, y, waves, per_task, rng_ref))
        assert fast_error == ref_error
        assert (fast_error is None) == (X.shape[0] > 0)
        if ref is not None:
            assert [g.tobytes() for g in fast[0]] == [
                g.tobytes() for g in ref[0]]
            assert fast[1] == ref[1]
            grad, nnz, _ = asgd_gradient_task(part, w, objective, per_task,
                                              np.random.default_rng(seed))
            assert (grad.tobytes(), nnz) == (ref[0][0].tobytes(), ref[1][0])
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state

    @given(problem=lazy_problems(),
           loss=st.sampled_from(["hinge", "logistic"]),
           reg=st.sampled_from(REGULARIZERS),
           batch_size=st.sampled_from([1, 4, 1000]),
           shuffle=st.booleans())
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_mgd_epoch_equals_reference(self, problem, loss, reg,
                                        batch_size, shuffle):
        X, y, w, seed = problem
        objective = make_objective(loss, reg)
        rng_fast = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        got, stats = mgd_epoch(objective, w, X, y, 0.05, batch_size,
                               rng_fast, shuffle=shuffle)
        n = X.shape[0]
        order = rng_ref.permutation(n) if shuffle else np.arange(n)
        ref, ref_stats = mgd_epoch_reference(
            objective, w, X, y, 0.05, batch_size, order)
        assert got.tobytes() == ref.tobytes() and stats == ref_stats
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("defect", ["column", "negative", "indptr",
                                        "past_end", "row"])
    def test_malformed_csr_is_rejected(self, defect):
        # scipy does not check these; C checks each index as it reads it.
        module = native.library()
        if module is None:
            pytest.skip("the compiled tier is unavailable")
        X, y, w = make_problem(10, 6, 0.5, 1)
        rows = np.arange(10)
        if defect == "column":
            X.indices[-1] = 6
        elif defect == "negative":
            X.indices[0] = -1
        elif defect == "indptr":
            X.indptr[1] = X.indptr[-1]
        elif defect == "past_end":
            X.indptr[-1] = X.indices.size + 1
        else:
            rows = np.array([0, 10])
        with pytest.raises(ValueError, match="not a valid CSR matrix"):
            native.PartitionView(module, X, y).batch(HingeLoss(), w, rows)

    def test_shapes_are_checked(self):
        module = native.library()
        if module is None:
            pytest.skip("the compiled tier is unavailable")
        X, y, w = make_problem(10, 6, 0.5, 1)
        view = native.PartitionView(module, X, y)
        with pytest.raises(ValueError, match="does not match"):
            view.batch(HingeLoss(), w[:5], np.arange(3))
        with pytest.raises(ValueError, match="not a valid CSR matrix"):
            native.PartitionView(module, X, y[:9])

    def test_callback_errors_propagate(self):
        if native.library() is None:
            pytest.skip("the compiled tier is unavailable")

        class Broken(HingeLoss):
            def gradient_factor(self, margins, y):
                raise ArithmeticError("broken loss")

        X, y, w = make_problem(10, 6, 0.5, 1)
        part = Partition(index=0, X=X, y=y)
        with pytest.raises(ArithmeticError, match="broken loss"):
            sampled_gradient(Objective(Broken()), w, X, y, 4,
                             np.random.default_rng(0), part.native)
        # The failed call left the view's marks clear.
        grads, nnz, _ = gradient_wave_task(part, w, Objective("logistic"), 2,
                                           4, np.random.default_rng(1))
        ref_grads, ref_nnz = _numpy_waves(Objective("logistic"), w, X, y, 2,
                                          4, np.random.default_rng(1))
        assert [g.tobytes() for g in grads] == [
            g.tobytes() for g in ref_grads]
        assert nnz == ref_nnz

    @pytest.mark.parametrize("n, per_task", [(300, 17), (12_000, 400)])
    def test_non_hinge_losses_read_the_rows_c_drew(self, n, per_task):
        # Floyd's draw, then the tail shuffle (per_task > n // 50 > 200):
        # labels 0..n-1 show which rows the callback was handed.
        if native.library() is None:
            pytest.skip("the compiled tier is unavailable")
        handed = []

        class Recording(LogisticLoss):
            def gradient_factor(self, margins, y):
                handed.append(y.copy())
                return super().gradient_factor(margins, y)

        X, _, w = make_problem(n, 30, 0.05, 3)
        y = np.arange(n, dtype=np.float64)
        objective = Objective(Recording())
        grads, nnz, rng = gradient_wave_task(
            Partition(index=0, X=X, y=y), w, objective, 3, per_task,
            np.random.default_rng(7))
        twin = np.random.default_rng(7)
        draws = [twin.choice(n, per_task, replace=False) for _ in range(3)]
        assert [h.tolist() for h in handed] == [d.tolist() for d in draws]
        assert rng.bit_generator.state == twin.bit_generator.state
        ref_grads, ref_nnz = _numpy_waves(objective, w, X, y, 3, per_task,
                                          np.random.default_rng(7))
        assert [g.tobytes() for g in grads] == [
            g.tobytes() for g in ref_grads]
        assert nnz == ref_nnz

    def test_views_are_per_partition_and_never_pickled(self):
        X, y, w = make_problem(10, 6, 0.5, 1)
        part = Partition(index=0, X=X, y=y)
        assert part.native is part.native
        assert "native" not in pickle.loads(pickle.dumps(part)).__dict__


@st.composite
def choice_draws(draw):
    """``choice(n, size)`` shapes across both of NumPy's branches (the
    tail shuffle needs n > 10000 and size > n // 50), with and without a
    buffered 32-bit half-word in the generator."""
    n = draw(st.one_of(st.just(1), st.integers(1, 300),
                       st.integers(9_900, 10_400)))
    size = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n),
                          st.integers(max(1, n // 50 - 2),
                                      max(1, min(n, n // 50 + 2)))))
    return n, size, draw(st.integers(0, 2**32)), draw(st.booleans())


class TestCompiledSampler:
    @given(draws=choice_draws())
    @settings(max_examples=300, deadline=None)
    def test_c_draws_equal_rng_choice(self, draws):
        module = native.library()
        if module is None:
            pytest.skip("the compiled tier is unavailable")
        n, size, seed, half_word = draws
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        if half_word:  # leaves has_uint32 = 1 and its uinteger
            for gen in (rng, twin):
                gen.random(dtype=np.float32)
        view = native.PartitionView(module, sp.csr_matrix((n, 1)),
                                    np.ones(n))
        g, nnz = view.sampled(HingeLoss(), np.zeros(1), size, rng)
        expected = twin.choice(n, size, replace=False)
        assert view.rows[:size].tobytes() == expected.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state
        assert (g.tolist(), nnz) == ([0.0], 0)


def _load_in_child(barrier, queue) -> None:
    barrier.wait(timeout=60)
    module = native.library()
    X, y, w0 = make_problem(40, 16, 0.3, 8)
    w, _ = sgd_epoch(Objective("hinge", "l2", 0.1), w0, X, y, 0.05,
                     np.random.default_rng(8), chunk_size=3)
    queue.put((None if module is None else module.__file__, w.tobytes()))


class TestCompiledBuild:
    """The cache: one complete module whoever builds first, and a build
    that still loads when the cache cannot be written."""

    @pytest.fixture(autouse=True)
    def _needs_compiler(self):
        if native.library() is None:
            pytest.skip("the compiled tier is unavailable")

    def test_concurrent_first_use_loads_one_module(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        ctx = mp.get_context("spawn")
        barrier, queue = ctx.Barrier(3), ctx.Queue()
        procs = [ctx.Process(target=_load_in_child, args=(barrier, queue))
                 for _ in range(3)]
        for proc in procs:
            proc.start()
        results = [queue.get(timeout=180) for _ in procs]
        for proc in procs:
            proc.join(timeout=30)
            assert not proc.is_alive() and proc.exitcode == 0
        X, y, w0 = make_problem(40, 16, 0.3, 8)
        expected, _ = reference.sgd_epoch_lazy_reference(
            Objective("hinge", "l2", 0.1), w0, X, y, 0.05, 3,
            np.random.default_rng(8).permutation(40))
        cached = list((tmp_path / "repro").iterdir())
        assert len(cached) == 1 and cached[0].suffix == ".so"
        assert {path for path, _ in results} == {str(cached[0])}
        assert {w for _, w in results} == {expected.tobytes()}

    def test_unwritable_cache_builds_in_a_temporary_directory(self,
                                                              tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        code = ("from repro.glm import native; m = native.library(); "
                "print(m.__file__)")
        env = {**os.environ, "XDG_CACHE_HOME": str(blocker),
               "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=180,
                             check=True).stdout.strip()
        assert out.startswith(tempfile.gettempdir())
        assert not os.path.exists(out)  # loaded, then cleaned up

    @pytest.mark.parametrize("backend", ["shm", "socket"])
    def test_spawned_workers_run_the_compiled_epoch(self, backend, tmp_path,
                                                    monkeypatch):
        # The parent already holds its module, so a module in the fresh
        # cache was built by a worker, which then ran the epoch with it.
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(ExecutionBackend, "default_start_method",
                            "spawn")
        _assert_matches_serial("MLlib*", backend)
        assert [p.suffix for p in (tmp_path / "repro").iterdir()] == [".so"]

    @pytest.mark.parametrize("backend", ["shm", "socket"])
    def test_spawned_workers_run_the_compiled_batch_gradient(
            self, backend, tmp_path, monkeypatch):
        # As above, on MLlib's SendGradient tasks, whose batches the
        # workers draw in C: the same weights and RNG end states.
        serial = _mllib_fit()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(ExecutionBackend, "default_start_method",
                            "spawn")
        _assert_matches_serial("MLlib", backend)
        assert _mllib_fit(backend) == serial
        assert [p.suffix for p in (tmp_path / "repro").iterdir()] == [".so"]
