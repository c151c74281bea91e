"""Loss functions for generalized linear models.

Every loss works on binary labels in {-1, +1} and exposes:

* ``value(margins, y)``  — mean loss given margins ``X @ w``;
* ``gradient_factor(margins, y)`` — the per-example scalar ``dl/d(margin)``
  such that the batch gradient is ``X.T @ factor / len(batch)``.

Keeping the loss in margin form lets every trainer share one vectorized
sparse gradient kernel (``Objective.batch_loss_gradient``) regardless
of the loss, which mirrors how MLlib's ``Gradient`` classes are structured.

Implemented losses: hinge (linear SVM — the paper's workload), logistic
(logistic regression) and squared (least squares), matching the paper's
"0-1 loss, square loss, hinge loss, etc." enumeration in Section II-A.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Loss", "HingeLoss", "LogisticLoss", "SquaredHingeLoss",
           "SquaredLoss", "get_loss", "LOSSES"]


class Loss:
    """Interface for margin-based losses."""

    name: str = "abstract"

    def value(self, margins: np.ndarray, y: np.ndarray) -> float:
        """Mean loss over a batch."""
        raise NotImplementedError

    def gradient_factor(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-example d(loss)/d(margin); batch gradient is X.T @ factor / n."""
        raise NotImplementedError


class HingeLoss(Loss):
    """Hinge loss ``max(0, 1 - y * margin)`` — linear SVM."""

    name = "hinge"

    def value(self, margins: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(np.maximum(0.0, 1.0 - y * margins)))

    def gradient_factor(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        active = (y * margins) < 1.0
        return np.where(active, -y, 0.0)


class LogisticLoss(Loss):
    """Logistic loss ``log(1 + exp(-y * margin))`` — logistic regression.

    Uses the numerically stable log1p/expit formulation to avoid overflow
    for large negative margins.
    """

    name = "logistic"

    def value(self, margins: np.ndarray, y: np.ndarray) -> float:
        z = y * margins
        # log(1 + exp(-z)) computed stably for both signs of z.
        return float(np.mean(np.logaddexp(0.0, -z)))

    def gradient_factor(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        z = y * margins
        # sigma(-z) = 1 / (1 + exp(z)), computed stably.
        sig = np.empty_like(z)
        pos = z >= 0
        sig[pos] = np.exp(-z[pos]) / (1.0 + np.exp(-z[pos]))
        sig[~pos] = 1.0 / (1.0 + np.exp(z[~pos]))
        return -y * sig


class SquaredHingeLoss(Loss):
    """Squared hinge ``0.5 * max(0, 1 - y * margin)^2`` — smoothed SVM.

    This is the loss ``spark.ml``'s ``LinearSVC`` actually optimizes: it
    is differentiable everywhere (gradient continuous at the hinge point),
    which the L-BFGS trainers require.
    """

    name = "squared_hinge"

    def value(self, margins: np.ndarray, y: np.ndarray) -> float:
        slack = np.maximum(0.0, 1.0 - y * margins)
        return float(0.5 * np.mean(slack * slack))

    def gradient_factor(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        slack = np.maximum(0.0, 1.0 - y * margins)
        return -y * slack


class SquaredLoss(Loss):
    """Squared loss ``0.5 * (margin - y)^2`` — least squares."""

    name = "squared"

    def value(self, margins: np.ndarray, y: np.ndarray) -> float:
        diff = margins - y
        return float(0.5 * np.mean(diff * diff))

    def gradient_factor(self, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
        return margins - y


LOSSES: dict[str, type[Loss]] = {
    HingeLoss.name: HingeLoss,
    LogisticLoss.name: LogisticLoss,
    SquaredHingeLoss.name: SquaredHingeLoss,
    SquaredLoss.name: SquaredLoss,
}


def get_loss(name: str) -> Loss:
    """Instantiate a loss by name (``hinge``, ``logistic``, ``squared``)."""
    try:
        return LOSSES[name]()
    except KeyError:
        raise KeyError(
            f"unknown loss {name!r}; expected one of {sorted(LOSSES)}"
        ) from None
