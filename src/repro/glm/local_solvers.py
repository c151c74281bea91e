"""Worker-side local solvers: the computations of Algorithms 1-3.

These functions run the *local* part of distributed MGD on one worker's
partition.  Three flavours cover every system in the paper:

* :func:`gd_step` — one full-batch gradient-descent update (what Angel and
  regularized Petuum do per batch, and what the MLlib driver does with an
  aggregated gradient);
* :func:`mgd_epoch` — a pass of mini-batch GD over the partition (Angel's
  per-epoch local work, Algorithm 1);
* :func:`sgd_epoch` — per-example (or small-chunk) SGD over the partition
  with optional Bottou lazy L2 updates (unregularized Petuum's "parallel
  SGD inside each batch" and MLlib*'s ``UpdateModel`` in Algorithm 3).

All solvers return a fresh weight vector plus :class:`LocalStats` so the
cluster cost model can convert the work into simulated seconds.  ``y``
labels are in {-1, +1}; gradients are means over the examples used.

The epoch loops run on the fast CSR kernels of :mod:`repro.glm.kernels`
(pre-permuted epoch slicing, support-gathered gradients, in-place
updates).  The retained pre-optimization bodies in
:mod:`repro.glm.reference` are their bit-exact oracle
(``tests/test_perf_kernels.py`` compares the two).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .kernels import (apply_update_inplace, chunk_grad_touched,
                      chunk_margins, permuted_epoch, touched_columns)
from .lazy_update import ScaledVector
from .objective import Objective

__all__ = ["LocalStats", "gd_step", "mgd_epoch", "sgd_epoch",
           "sample_batch", "apply_update"]


@dataclass
class LocalStats:
    """Work performed by a local solver (inputs to the cost model).

    ``nnz_processed`` counts stored nonzeros touched by gradient math,
    ``n_updates`` counts model updates applied, and ``dense_ops`` counts
    dense model coordinates written (where eager L2 pays and lazy L2 saves).
    """

    nnz_processed: int = 0
    n_updates: int = 0
    dense_ops: int = 0

    def merge(self, other: "LocalStats") -> "LocalStats":
        return LocalStats(
            nnz_processed=self.nnz_processed + other.nnz_processed,
            n_updates=self.n_updates + other.n_updates,
            dense_ops=self.dense_ops + other.dense_ops,
        )


def sample_batch(X: sp.csr_matrix, y: np.ndarray, batch_size: int,
                 rng: np.random.Generator) -> tuple[sp.csr_matrix, np.ndarray]:
    """Sample a batch without replacement (Algorithm 1's ``XB``)."""
    n = X.shape[0]
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if n == 0:
        raise ValueError("partition is empty: cannot sample a batch from "
                         "zero rows")
    take = min(batch_size, n)
    rows = rng.choice(n, size=take, replace=False)
    return X[rows], y[rows]


def apply_update(w: np.ndarray, grad_loss: np.ndarray, lr: float,
                 objective: Objective) -> np.ndarray:
    """One GD update ``w <- w - lr * grad_loss - lr * grad_reg(w)``.

    This is the central-node update rule of Algorithm 2 (SendGradient) and
    the per-batch update of Algorithm 1.  Returns a new array.
    """
    new_w = w - lr * grad_loss
    reg = objective.regularizer
    if reg.strength:
        new_w -= lr * reg.gradient(w)
    return new_w


def gd_step(objective: Objective, w: np.ndarray, X: sp.csr_matrix,
            y: np.ndarray, lr: float) -> tuple[np.ndarray, LocalStats]:
    """One full-batch gradient step over (X, y)."""
    grad = objective.batch_loss_gradient(w, X, y)
    new_w = apply_update(w, grad, lr, objective)
    dense = w.shape[0] if objective.regularizer.is_dense else 0
    stats = LocalStats(nnz_processed=2 * int(X.nnz), n_updates=1,
                       dense_ops=dense)
    return new_w, stats


def mgd_epoch(objective: Objective, w: np.ndarray, X: sp.csr_matrix,
              y: np.ndarray, lr: float, batch_size: int,
              rng: np.random.Generator,
              shuffle: bool = True) -> tuple[np.ndarray, LocalStats]:
    """One pass of mini-batch GD over the partition (Algorithm 1).

    Batches tile the (optionally shuffled) partition; each batch applies one
    eager GD update.  This is Angel's local computation and regularized
    Petuum's per-batch behaviour.
    """
    n = X.shape[0]
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    order = rng.permutation(n) if shuffle else np.arange(n)
    Xp, yp = permuted_epoch(X, y, order, shuffle)
    stats = LocalStats()
    current = np.array(w, copy=True)
    scratch = np.empty_like(current)
    for start in range(0, n, batch_size):
        Xb = Xp[start:start + batch_size]
        yb = yp[start:start + batch_size]
        grad = objective.batch_loss_gradient(current, Xb, yb)
        apply_update_inplace(current, grad, lr, objective, scratch)
        stats.nnz_processed += 2 * int(Xb.nnz)
        stats.n_updates += 1
        if objective.regularizer.is_dense:
            stats.dense_ops += w.shape[0]
    return current, stats


def _sgd_epoch_lazy(objective: Objective, w: np.ndarray, Xp: sp.csr_matrix,
                    yp: np.ndarray, lr: float,
                    chunk_size: int) -> tuple[np.ndarray, LocalStats]:
    """Chunked SGD with L2 handled through a :class:`ScaledVector`.

    ``Xp``/``yp`` are already in epoch order (see
    :func:`repro.glm.kernels.permuted_epoch`), so each chunk is a
    contiguous slice of the raw CSR arrays — no ``csr_matrix`` is
    constructed per chunk — and gradients are gathered on the chunk's
    column support instead of materializing an ``m``-length dense array.
    """
    lam = objective.regularizer.strength
    sv = ScaledVector(w)
    stats = LocalStats()
    n = Xp.shape[0]
    indptr, indices, data = Xp.indptr, Xp.indices, Xp.data
    single_row = chunk_size == 1 and Xp.has_canonical_format
    for start in range(0, n, chunk_size):
        end = min(start + chunk_size, n)
        yc = yp[start:end]
        lo, hi = indptr[start], indptr[end]
        idx = indices[lo:hi]
        dat = data[lo:hi]
        row_nnz = np.diff(indptr[start:end + 1])
        margins = sv.scale * chunk_margins(idx, dat, row_nnz, sv.values,
                                           end - start)
        factor = objective.loss.gradient_factor(margins, yc)
        touched = touched_columns(idx, single_row=single_row)
        grad = chunk_grad_touched(idx, dat, row_nnz, factor, touched)
        if lam:
            decay = 1.0 - lr * lam
            if decay <= 0:
                raise ValueError(
                    f"lr * lambda = {lr * lam:g} >= 1 makes the lazy decay "
                    "non-positive; lower the learning rate")
            sv.decay(decay)
        sv.axpy_sparse(-lr, touched, grad)
        stats.nnz_processed += 2 * int(idx.size)
        stats.n_updates += 1
    stats.dense_ops = sv.dense_ops + sv.dim  # final materialization
    return sv.to_array(), stats


def _sgd_epoch_eager(objective: Objective, w: np.ndarray, Xp: sp.csr_matrix,
                     yp: np.ndarray, lr: float,
                     chunk_size: int) -> tuple[np.ndarray, LocalStats]:
    """Chunked SGD with the regularizer applied densely every update."""
    stats = LocalStats()
    current = np.array(w, copy=True)
    scratch = np.empty_like(current)
    reg = objective.regularizer
    n = Xp.shape[0]
    for start in range(0, n, chunk_size):
        Xc = Xp[start:start + chunk_size]
        yc = yp[start:start + chunk_size]
        grad = objective.batch_loss_gradient(current, Xc, yc)
        apply_update_inplace(current, grad, lr, objective, scratch)
        stats.nnz_processed += 2 * int(Xc.nnz)
        stats.n_updates += 1
        if reg.is_dense:
            stats.dense_ops += w.shape[0]
    return current, stats


def sgd_epoch(objective: Objective, w: np.ndarray, X: sp.csr_matrix,
              y: np.ndarray, lr: float, rng: np.random.Generator,
              chunk_size: int = 1, lazy: bool = True,
              shuffle: bool = True) -> tuple[np.ndarray, LocalStats]:
    """One SGD pass over the partition (Algorithm 3's ``UpdateModel``).

    ``chunk_size=1`` is textbook per-example SGD; larger chunks vectorize
    the same schedule (each chunk is one update at the current iterate),
    trading update granularity for NumPy throughput.  With L2
    regularization and ``lazy=True`` the decay is applied through the
    scaled representation (Bottou's trick); L1 always takes the eager path
    because its subgradient is not a uniform rescaling.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    n = X.shape[0]
    order = rng.permutation(n) if shuffle else np.arange(n)
    use_lazy = (lazy and objective.regularizer.name in ("none", "l2"))
    Xp, yp = permuted_epoch(X, y, order, shuffle)
    if use_lazy:
        return _sgd_epoch_lazy(objective, w, Xp, yp, lr, chunk_size)
    return _sgd_epoch_eager(objective, w, Xp, yp, lr, chunk_size)
