"""Retained reference bodies of the local-solver hot loops.

The pre-optimization bodies of the lazy :func:`repro.glm.sgd_epoch` and
the SDCA epoch of :func:`repro.glm.dual_local_solve`, kept verbatim: the
bit-exact oracle the property tests (``tests/test_perf_kernels.py``,
``tests/test_glm_dual.py``) hold the compiled loop and
:mod:`repro.glm.kernels` to, and the lazy epoch's fallback where the
compiled module cannot be built.

Each function takes the epoch's row ``order`` instead of an RNG; a test
draws it from a twin of the generator the solver consumes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .lazy_update import ScaledVector
from .local_solvers import LocalStats
from .objective import Objective

__all__ = ["sgd_epoch_lazy_reference", "dual_epoch_reference"]


def sgd_epoch_lazy_reference(objective: Objective, w: np.ndarray,
                             X: sp.csr_matrix, y: np.ndarray, lr: float,
                             chunk_size: int, order: np.ndarray,
                             ) -> tuple[np.ndarray, LocalStats]:
    """Reference chunked SGD with lazy L2: per-chunk gather, dense
    per-chunk gradient, ``np.unique`` support."""
    lam = objective.regularizer.strength
    sv = ScaledVector(w)
    stats = LocalStats()
    for start in range(0, order.size, chunk_size):
        rows = order[start:start + chunk_size]
        Xc, yc = X[rows], y[rows]
        margins = sv.scale * (Xc @ sv.values)
        factor = objective.loss.gradient_factor(margins, yc)
        grad = np.asarray(Xc.T @ factor) / Xc.shape[0]
        if lam:
            decay = 1.0 - lr * lam
            if decay <= 0:
                raise ValueError(
                    f"lr * lambda = {lr * lam:g} >= 1 makes the lazy decay "
                    "non-positive; lower the learning rate")
            sv.decay(decay)
        touched = np.unique(Xc.indices)
        sv.axpy_sparse(-lr, touched, grad[touched])
        stats.nnz_processed += 2 * int(Xc.nnz)
        stats.n_updates += 1
    stats.dense_ops = sv.dense_ops + sv.dim  # final materialization
    return sv.to_array(), stats


def dual_epoch_reference(X: sp.csr_matrix, y: np.ndarray, u: np.ndarray,
                         acur: np.ndarray, dalpha: np.ndarray,
                         order: np.ndarray, scale: float,
                         delta_fn) -> tuple[int, int]:
    """Reference SDCA pass: per-visit ``X[i]`` row slicing.

    The pre-optimization body of :func:`repro.glm.kernels.dual_epoch`:
    every coordinate visit constructs a fresh one-row ``csr_matrix``
    (index-dtype checks, shape checks, format validation) and recomputes
    the row's squared norm from scratch.  The float operations — margin
    and norm accumulated left-to-right with ``cumsum``, the shared
    update expression ``u[idx] += (scale * d) * dat`` — are the fast
    kernel's exactly, so both paths are bit-identical.
    """
    nnz = 0
    updates = 0
    for i in order:
        Xi = X[i]
        idx = Xi.indices
        dat = Xi.data
        if idx.size:
            margin = (dat * u[idx]).cumsum()[-1]
            norm = (dat * dat).cumsum()[-1]
        else:
            margin = 0.0
            norm = 0.0
        d = delta_fn(margin, acur[i], y[i], scale * norm)
        nnz += 2 * int(idx.size)
        if d != 0.0:
            acur[i] += d
            dalpha[i] += d
            u[idx] += (scale * d) * dat
            updates += 1
    return nnz, updates
