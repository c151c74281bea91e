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

The lazy SGD epoch runs compiled (:mod:`repro.glm.native`); the other
epoch loops run on the CSR kernels of :mod:`repro.glm.kernels`.  The
retained bodies in :mod:`repro.glm.reference` are their bit-exact oracle
(``tests/test_perf_kernels.py``) and the lazy epoch's fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import native
from .kernels import apply_update_inplace, permuted_epoch
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


def sgd_epoch(objective: Objective, w: np.ndarray, X: sp.csr_matrix,
              y: np.ndarray, lr: float, rng: np.random.Generator,
              chunk_size: int = 1, lazy: bool = True,
              shuffle: bool = True) -> tuple[np.ndarray, LocalStats]:
    """One SGD pass over the partition (Algorithm 3's ``UpdateModel``).

    ``chunk_size=1`` is textbook per-example SGD; larger chunks vectorize
    the same schedule (each chunk is one update at the current iterate),
    trading update granularity for throughput.  With L2
    regularization and ``lazy=True`` the decay is applied through the
    scaled representation (Bottou's trick) by the compiled epoch, or by
    the reference body where it cannot be built; L1 always takes the eager
    path because its subgradient is not a uniform rescaling.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if not (lazy and objective.regularizer.name in ("none", "l2")):
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
