"""CSR kernels for the mini-batch and SDCA local solvers' hot loops.

The lazy-L2 SGD epoch is compiled instead (:mod:`repro.glm.native`).
Every kernel here is bit-identical to its retained reference body in
:mod:`repro.glm.reference` (``tests/test_perf_kernels.py``,
``tests/test_glm_dual.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .objective import Objective

__all__ = ["permuted_epoch", "apply_update_inplace", "dual_row_norms",
           "dual_epoch"]


def permuted_epoch(X: sp.csr_matrix, y: np.ndarray, order: np.ndarray,
                   shuffle: bool) -> tuple[sp.csr_matrix, np.ndarray]:
    """Materialize the epoch's row order once.

    Returns ``(X[order], y[order])`` so batch ``t`` is the contiguous
    slice ``Xp[t*b:(t+1)*b]`` — bit-identical to the reference's per-batch
    gather ``X[order[t*b:(t+1)*b]]``.  When ``shuffle`` is off the order
    is the identity and the inputs are returned as-is (no copy).
    """
    if not shuffle:
        return X, y
    return X[order], y[order]


def dual_row_norms(indptr: np.ndarray, data: np.ndarray,
                   n_rows: int) -> np.ndarray:
    """Per-row squared norms ``||x_i||^2`` from raw CSR arrays.

    The SDCA coordinate update needs a row's squared norm on *every*
    visit; the reference body recomputes it per visit from a fresh
    ``X[i]`` row slice, while the fast epoch computes all of them once
    per local solve.  ``np.bincount`` adds its weights in occurrence
    order — within a row that is the same left-to-right sequence of
    float additions as the reference's running sum, and since every
    weight is a square (``>= +0.0``) the differing seed (``0.0 + s_0``
    vs ``s_0``) cannot flip a zero's sign, so the values are
    bit-identical.
    """
    if data.size == 0:
        return np.zeros(n_rows)
    rows = np.repeat(np.arange(n_rows), np.diff(indptr))
    return np.bincount(rows, weights=data * data, minlength=n_rows)


def dual_epoch(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
               y: np.ndarray, u: np.ndarray, acur: np.ndarray,
               dalpha: np.ndarray, order: np.ndarray, scale: float,
               norms: np.ndarray, delta_fn) -> tuple[int, int]:
    """One permuted SDCA pass over a partition's dual block, in place.

    Visits rows in ``order``; for each, forms the margin ``x_i . u``
    from the raw CSR row slice (no per-row ``csr_matrix`` construction),
    asks ``delta_fn(margin, alpha_i, y_i, q)`` for the coordinate step,
    and applies it to the local iterate ``u``, the running dual block
    ``acur`` and the epoch delta ``dalpha`` — all mutated in place.
    ``scale`` is ``sigma' / (lambda n)`` (it multiplies both the
    curvature ``q = scale * ||x_i||^2`` and the iterate update) and
    ``norms`` comes from :func:`dual_row_norms`.

    Bit-identical to :func:`repro.glm.reference.dual_epoch_reference`:
    margins accumulate with ``cumsum`` (sequential left-to-right, the
    same addition order as scipy's CSR matvec C loop) in both paths, the
    update expression ``u[idx] += (scale * d) * dat`` is shared
    verbatim, and zero steps skip the write in both paths so ``-0.0``
    entries are never touched in one path but not the other.

    Returns ``(nnz_processed, n_updates)`` for the cost model — counted
    from the rows *visited* (the logical work), so pricing is identical
    on either kernel path.
    """
    nnz = 0
    updates = 0
    for i in order:
        lo, hi = indptr[i], indptr[i + 1]
        idx = indices[lo:hi]
        dat = data[lo:hi]
        if idx.size:
            margin = (dat * u[idx]).cumsum()[-1]
        else:
            margin = 0.0
        d = delta_fn(margin, acur[i], y[i], scale * norms[i])
        nnz += 2 * int(idx.size)
        if d != 0.0:
            acur[i] += d
            dalpha[i] += d
            u[idx] += (scale * d) * dat
            updates += 1
    return nnz, updates


def apply_update_inplace(w: np.ndarray, grad_loss: np.ndarray, lr: float,
                         objective: Objective,
                         scratch: np.ndarray) -> np.ndarray:
    """In-place ``w <- w - lr * grad_loss - lr * grad_reg(w)``.

    Bit-identical to :func:`repro.glm.local_solvers.apply_update` (the
    regularizer gradient is evaluated at the *pre-update* iterate, exactly
    like the reference) but mutates ``w`` and reuses ``scratch`` instead
    of allocating fresh ``m``-length arrays every batch.  ``w`` must be a
    private, writable copy owned by the caller.
    """
    reg = objective.regularizer
    reg_grad = reg.gradient(w) if reg.strength else None
    np.multiply(grad_loss, lr, out=scratch)
    w -= scratch
    if reg_grad is not None:
        np.multiply(reg_grad, lr, out=scratch)
        w -= scratch
    return w
