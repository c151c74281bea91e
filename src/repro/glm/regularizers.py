"""Regularization terms Omega(w) for the GLM objective.

The paper trains SVMs "with and without L2 regularization"; L1 is included
because Section II-A lists it and it exercises the subgradient path.

Each regularizer exposes value, gradient (or subgradient) and the in-place
update step the local solvers apply.  L2's gradient is dense — every model
coordinate decays every update — which is exactly why the paper adopts
Bottou's lazy update (see :mod:`repro.glm.lazy_update`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Regularizer", "NoRegularizer", "L2Regularizer", "L1Regularizer",
           "get_regularizer", "REGULARIZERS"]


class Regularizer:
    """Interface for regularization terms."""

    name: str = "abstract"
    #: Regularization strength (lambda); 0 for the no-op regularizer.
    strength: float = 0.0

    def value(self, w: np.ndarray) -> float:
        """Omega(w)."""
        raise NotImplementedError

    def gradient(self, w: np.ndarray) -> np.ndarray:
        """(Sub)gradient of Omega at w."""
        raise NotImplementedError

    @property
    def is_dense(self) -> bool:
        """True when the gradient touches every coordinate of w (any
        penalty with a non-zero strength)."""
        return self.strength != 0


class NoRegularizer(Regularizer):
    """Omega(w) = 0 (the paper's "L2 = 0" configurations)."""

    name = "none"
    strength = 0.0

    def value(self, w: np.ndarray) -> float:
        return 0.0

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return np.zeros_like(w)


class L2Regularizer(Regularizer):
    """Omega(w) = (lambda / 2) * ||w||^2."""

    name = "l2"

    def __init__(self, strength: float = 0.1) -> None:
        if strength <= 0:
            raise ValueError("l2 strength must be positive; "
                             "use NoRegularizer for zero")
        self.strength = strength

    def value(self, w: np.ndarray) -> float:
        return float(0.5 * self.strength * np.dot(w, w))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return self.strength * w


class L1Regularizer(Regularizer):
    """Omega(w) = lambda * ||w||_1 (subgradient: lambda * sign(w))."""

    name = "l1"

    def __init__(self, strength: float = 0.1) -> None:
        if strength <= 0:
            raise ValueError("l1 strength must be positive; "
                             "use NoRegularizer for zero")
        self.strength = strength

    def value(self, w: np.ndarray) -> float:
        return float(self.strength * np.sum(np.abs(w)))

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return self.strength * np.sign(w)


REGULARIZERS = ("none", "l1", "l2")


def get_regularizer(name: str, strength: float = 0.0) -> Regularizer:
    """Build a regularizer by name.

    ``strength == 0`` always yields :class:`NoRegularizer`, matching the
    paper's convention that "L2 = 0" means no regularization at all.
    """
    if name not in REGULARIZERS:
        raise KeyError(f"unknown regularizer {name!r}; "
                       f"expected one of {REGULARIZERS}")
    if name == "none" or strength == 0.0:
        return NoRegularizer()
    if name == "l2":
        return L2Regularizer(strength)
    return L1Regularizer(strength)
