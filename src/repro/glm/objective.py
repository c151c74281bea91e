"""The GLM objective f(w, X) = l(w, X) + Omega(w) (paper Equation 1).

An :class:`Objective` bundles a margin-based loss with a regularizer and
provides the vectorized sparse kernels every trainer shares:

* :meth:`Objective.value` — full-dataset objective, the y-axis of every
  convergence figure in the paper;
* :meth:`Objective.batch_gradient` — mean gradient over a CSR batch, the
  worker-side computation of the SendGradient paradigm;
* :meth:`Objective.batch_loss_gradient` — the loss part alone, used by
  SendModel workers that handle regularization lazily.

All gradients are mean (not sum) over the batch so learning rates are
comparable across batch sizes — the convention MLlib's ``miniBatchFraction``
API uses.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .losses import Loss, get_loss
from .regularizers import Regularizer, get_regularizer

__all__ = ["Objective"]


class Objective:
    """Loss + regularizer over sparse data.

    Parameters
    ----------
    loss:
        A :class:`~repro.glm.losses.Loss` instance or its name.
    regularizer:
        A :class:`~repro.glm.regularizers.Regularizer` instance or name.
    strength:
        Regularization strength, used only when ``regularizer`` is a name.
    """

    def __init__(self, loss: Loss | str = "hinge",
                 regularizer: Regularizer | str = "none",
                 strength: float = 0.0) -> None:
        self.loss = get_loss(loss) if isinstance(loss, str) else loss
        if isinstance(regularizer, str):
            self.regularizer = get_regularizer(regularizer, strength)
        else:
            self.regularizer = regularizer

    # ------------------------------------------------------------------
    def value(self, w: np.ndarray, X: sp.csr_matrix, y: np.ndarray) -> float:
        """f(w, X): mean loss over all of X plus Omega(w)."""
        margins = X @ w
        return self.loss.value(margins, y) + self.regularizer.value(w)

    def loss_value(self, w: np.ndarray, X: sp.csr_matrix,
                   y: np.ndarray) -> float:
        """Mean loss alone (no regularization term)."""
        return self.loss.value(X @ w, y)

    def batch_loss_gradient(self, w: np.ndarray, X: sp.csr_matrix,
                            y: np.ndarray) -> np.ndarray:
        """Mean gradient of the loss term over the batch (sparse-friendly)."""
        if X.shape[0] == 0:
            return np.zeros_like(w)
        factor = self.loss.gradient_factor(X @ w, y)
        return np.asarray(X.T @ factor) / X.shape[0]

    def batch_gradient(self, w: np.ndarray, X: sp.csr_matrix,
                       y: np.ndarray) -> np.ndarray:
        """Mean gradient of the full objective (loss + regularization)."""
        grad = self.batch_loss_gradient(w, X, y)
        if self.regularizer.strength:
            grad = grad + self.regularizer.gradient(w)
        return grad

    # ------------------------------------------------------------------
    # Dual-side evaluations (CoCoA-family solvers, repro.glm.dual).
    def conjugate_sum(self, alpha: np.ndarray, y: np.ndarray) -> float:
        """``sum_i l*(-alpha_i, y_i)`` over one block of dual variables.

        The block contribution to the dual objective's conjugate term;
        requires the loss to have an implemented conjugate (see
        :data:`repro.glm.dual.DUAL_LOSSES`).
        """
        from .dual import get_dual_loss
        return float(np.sum(get_dual_loss(self.loss.name).conjugate(alpha, y)))

    def dual_value(self, conjugate_total: float, n_total: int,
                   w_alpha: np.ndarray) -> float:
        """``D(alpha) = -(1/n) sum_i l*(-alpha_i) - Omega(w(alpha))``.

        ``conjugate_total`` is the :meth:`conjugate_sum` over all blocks
        and ``w_alpha = X^T alpha / (lambda n)`` the primal image of the
        dual iterate.
        """
        return (-conjugate_total / n_total
                - self.regularizer.value(w_alpha))

    # ------------------------------------------------------------------
    def spec(self) -> dict:
        """JSON-serializable recipe that :meth:`from_spec` reverses.

        Both loss and regularizer are registry-backed (see
        :data:`~repro.glm.losses.LOSSES`), so name + strength fully
        determine the objective — this is what model artifacts persist.
        """
        return {"loss": self.loss.name,
                "regularizer": self.regularizer.name,
                "strength": float(self.regularizer.strength)}

    @classmethod
    def from_spec(cls, spec: dict) -> "Objective":
        """Rebuild an objective from a :meth:`spec` dict."""
        try:
            loss = spec["loss"]
            regularizer = spec["regularizer"]
        except KeyError as exc:
            raise ValueError(
                f"objective spec is missing the {exc.args[0]!r} key") from None
        return cls(loss, regularizer, float(spec.get("strength", 0.0)))

    # ------------------------------------------------------------------
    @property
    def is_regularized(self) -> bool:
        return self.regularizer.strength > 0.0

    def describe(self) -> str:
        return (f"{self.loss.name}+{self.regularizer.name}"
                f"({self.regularizer.strength:g})")

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Objective({self.describe()})"
