"""Bottou-style lazy (scaled) representation for L2-regularized SGD.

With L2 regularization every SGD update contains a dense decay::

    w <- (1 - eta * lambda) * w - eta * grad_loss

On sparse data the gradient touches only the batch's nonzero coordinates,
but the decay touches *all* ``d`` coordinates — ruinous when ``d`` is tens
of millions (kddb, kdd12, WX).  Bottou's trick [14] stores the model as
``w = scale * v`` so the decay becomes a single scalar multiplication::

    scale <- scale * (1 - eta * lambda)
    v     <- v - (eta / scale) * grad_loss      (sparse touch only)

The scale can underflow after many updates, so whenever it drops below a
threshold the representation is *rebased* (``v <- scale * v; scale <- 1``).
This is the "threshold-based, lazy method" Section IV-B1 cites.

:class:`ScaledVector` tracks how many dense-coordinate operations were
actually performed so the cost model can price lazy vs eager updates — the
subject of the ``bench_ablation_lazy_update`` benchmark.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ScaledVector"]


class ScaledVector:
    """A dense vector stored as ``scale * values`` with lazy L2 decay."""

    #: Rebase when |scale| falls below this threshold.
    REBASE_THRESHOLD = 1.0e-6

    def __init__(self, values: np.ndarray) -> None:
        self._values = np.array(values, dtype=np.float64, copy=True)
        self._scale = 1.0
        #: Dense coordinate operations performed (for the cost model).
        self.dense_ops = 0

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self._values.shape[0]

    @property
    def scale(self) -> float:
        return self._scale

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the unscaled storage (``w == scale * values``).

        The reference lazy epoch dots its margins against the raw storage
        without materializing ``scale * values``; the view is
        write-protected so callers cannot bypass :meth:`axpy_sparse`'s
        ``dense_ops`` accounting.
        """
        view = self._values.view()
        view.setflags(write=False)
        return view

    def to_array(self) -> np.ndarray:
        """Materialize the logical vector (does not mutate the state)."""
        return self._scale * self._values

    # ------------------------------------------------------------------
    def decay(self, factor: float) -> None:
        """Apply ``w <- factor * w`` in O(1) (the lazy L2 decay)."""
        if factor == 0.0:
            # A zero factor would make future sparse updates impossible to
            # express; fall back to an explicit dense zeroing.
            self._values[:] = 0.0
            self._scale = 1.0
            self.dense_ops += self.dim
            return
        self._scale *= factor
        if abs(self._scale) < self.REBASE_THRESHOLD:
            self._rebase()

    def axpy_sparse(self, coeff: float, indices: np.ndarray,
                    values: np.ndarray) -> None:
        """Apply ``w[indices] += coeff * values`` through the scale."""
        if indices.size == 0:
            return
        self._values[indices] += (coeff / self._scale) * values
        self.dense_ops += int(indices.size)

    def axpy_dense(self, coeff: float, vector: np.ndarray) -> None:
        """Apply ``w += coeff * vector`` (dense; used by eager updates)."""
        self._values += (coeff / self._scale) * vector
        self.dense_ops += self.dim

    # ------------------------------------------------------------------
    def _rebase(self) -> None:
        self._values *= self._scale
        self._scale = 1.0
        self.dense_ops += self.dim
