"""NumPy kernels for the SDCA epoch and the in-place mini-batch update.

The lazy-L2 SGD epoch and the batch gradients are compiled instead
(:mod:`repro.glm.native`).  Every kernel here is bit-identical to its
reference in :mod:`repro.glm` (``tests/test_perf_kernels.py``,
``tests/test_glm_dual.py``).
"""

from __future__ import annotations

import numpy as np

from .objective import Objective

__all__ = ["apply_update_inplace", "dual_row_norms", "dual_epoch"]


def dual_row_norms(indptr: np.ndarray, data: np.ndarray,
                   n_rows: int) -> np.ndarray:
    """Per-row squared norms ``||x_i||^2``, once per local solve (the
    reference recomputes one per visit).  ``np.bincount`` adds a row's
    weights left to right, as the reference's running sum does, and
    every weight is a square (``>= +0.0``), so the differing seed
    (``0.0 + s_0`` vs ``s_0``) cannot flip a zero's sign: bit-identical.
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

    For each row in ``order``: the margin ``x_i . u`` from the raw CSR
    slice, the step ``delta_fn(margin, alpha_i, y_i, q)``, and its update
    of the local iterate ``u``, the dual block ``acur`` and the epoch
    delta ``dalpha``.  ``scale`` is ``sigma' / (lambda n)`` (it scales
    both ``q = scale * norms[i]`` and the iterate update).

    Bit-identical to :func:`repro.glm.reference.dual_epoch_reference`:
    both accumulate margins with ``cumsum`` (left to right, as SciPy's
    CSR matvec), share ``u[idx] += (scale * d) * dat`` verbatim, and
    skip zero steps, so no ``-0.0`` is written on one path only.
    Returns ``(nnz_processed, n_updates)`` over the rows visited, so
    both paths price the same work.
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
    """In-place ``w <- w - lr * grad_loss - lr * grad_reg(w)``, with the
    regularizer's gradient at the pre-update ``w``: bit-identical to
    :func:`repro.glm.apply_update` without its per-batch allocations.
    ``w`` must be a private, writable copy owned by the caller.
    """
    reg = objective.regularizer
    reg_grad = reg.gradient(w) if reg.strength else None
    np.multiply(grad_loss, lr, out=scratch)
    w -= scratch
    if reg_grad is not None:
        np.multiply(reg_grad, lr, out=scratch)
        w -= scratch
    return w
