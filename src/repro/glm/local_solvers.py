"""Worker-side local solvers: the computations of Algorithms 1-3.

These run the *local* part of distributed MGD on one worker's partition:

* :func:`sampled_gradient` — one sampled batch's loss gradient (MLlib's
  and ASGD's SendGradient task, regularized Petuum's one GD update);
* :func:`mgd_epoch` — a pass of mini-batch GD (Angel, Algorithm 1);
* :func:`sgd_epoch` — per-example (or small-chunk) SGD with optional
  Bottou lazy L2 (unregularized Petuum's "parallel SGD inside each
  batch" and MLlib*'s ``UpdateModel`` in Algorithm 3).

The epochs return fresh weights plus :class:`LocalStats`, which the
cost model prices.  Labels are in {-1, +1}; gradients are batch means.
Batch gradients (on a partition's ``native`` view when the caller passes
it) and the lazy epoch run compiled (:mod:`repro.glm.native`); where it
cannot be built they run their NumPy bodies (the lazy epoch's is
:mod:`repro.glm.reference`'s), bit-identical by test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import native
from .kernels import apply_update_inplace
from .objective import Objective

__all__ = ["LocalStats", "mgd_epoch", "sgd_epoch", "sample_batch",
           "sampled_gradient", "apply_update"]


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


def _batch_size(n: int, batch_size: int) -> int:
    """How many rows one batch draws from ``n``."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if n == 0:
        raise ValueError("partition is empty: cannot sample a batch from "
                         "zero rows")
    return min(batch_size, n)


def sample_batch(X: sp.csr_matrix, y: np.ndarray, batch_size: int,
                 rng: np.random.Generator) -> tuple[sp.csr_matrix, np.ndarray]:
    """Sample a batch without replacement (Algorithm 1's ``XB``)."""
    rows = rng.choice(X.shape[0], size=_batch_size(X.shape[0], batch_size),
                      replace=False)
    return X[rows], y[rows]


def sampled_gradient(objective: Objective, w: np.ndarray, X: sp.csr_matrix,
                     y: np.ndarray, batch_size: int, rng: np.random.Generator,
                     view: native.PartitionView | None = None,
                     ) -> tuple[np.ndarray, int]:
    """The mean loss gradient at ``w`` over a :func:`sample_batch` draw and
    the draw's nnz: one compiled call on ``view``, ``(X, y)``'s
    :class:`~repro.glm.native.PartitionView` (built here if not given), or
    where it cannot be built the NumPy body it is bit-identical to."""
    b = _batch_size(X.shape[0], batch_size)
    view = view or native.view(X, y)
    if view is None:
        return _numpy_batch(objective, w, X, y, rng.choice(
            X.shape[0], size=b, replace=False))
    return view.sampled(objective.loss, w, b, rng)


def _numpy_batch(objective: Objective, w: np.ndarray, X: sp.csr_matrix,
                 y: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """The NumPy body of a batch gradient and its nnz over ``rows``."""
    Xb = X[rows]
    return objective.batch_loss_gradient(w, Xb, y[rows]), int(Xb.nnz)


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


def mgd_epoch(objective: Objective, w: np.ndarray, X: sp.csr_matrix,
              y: np.ndarray, lr: float, batch_size: int,
              rng: np.random.Generator, shuffle: bool = True,
              view: native.PartitionView | None = None,
              ) -> tuple[np.ndarray, LocalStats]:
    """One pass of mini-batch GD over the partition (Algorithm 1).

    Batches tile the (optionally shuffled) partition; each batch applies
    one eager GD update.  This is Angel's local computation.  ``view`` is
    as in :func:`sampled_gradient`.
    """
    n = X.shape[0]
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    order = rng.permutation(n) if shuffle else np.arange(n)
    view = view or native.view(X, y)
    stats = LocalStats()
    current = np.array(w, copy=True)
    scratch = np.empty_like(current)
    for start in range(0, n, batch_size):
        rows = order[start:start + batch_size]
        grad, nnz = (_numpy_batch(objective, current, X, y, rows)
                     if view is None else
                     view.batch(objective.loss, current, rows))
        apply_update_inplace(current, grad, lr, objective, scratch)
        stats.nnz_processed += 2 * nnz
        stats.n_updates += 1
        if objective.regularizer.is_dense:
            stats.dense_ops += w.shape[0]
    return current, stats


def sgd_epoch(objective: Objective, w: np.ndarray, X: sp.csr_matrix,
              y: np.ndarray, lr: float, rng: np.random.Generator,
              chunk_size: int = 1, lazy: bool = True,
              shuffle: bool = True) -> tuple[np.ndarray, LocalStats]:
    """One SGD pass over the partition (Algorithm 3's ``UpdateModel``).

    ``chunk_size=1`` is textbook per-example SGD; larger chunks vectorize
    the same schedule (each chunk is one update at the current iterate),
    trading update granularity for throughput.  With L2 regularization
    and ``lazy=True`` the decay is applied through the scaled
    representation (Bottou's trick); ``lazy=False`` (``--eager-l2``)
    decays every coordinate on every update.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if not lazy:
        # Eager chunked SGD is mini-batch GD with batches of chunk_size.
        return mgd_epoch(objective, w, X, y, lr, chunk_size, rng, shuffle)
    order = rng.permutation(X.shape[0]) if shuffle else np.arange(X.shape[0])
    module = native.library()
    if module is None:
        # Imported here: the reference module imports this one.
        from .reference import sgd_epoch_lazy_reference
        return sgd_epoch_lazy_reference(objective, w, X, y, lr, chunk_size,
                                        order)
    weights, counts = native.lazy_epoch(module, objective, w, X, y, lr,
                                        chunk_size, order)
    return weights, LocalStats(*counts)
