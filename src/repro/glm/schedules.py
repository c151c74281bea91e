"""Learning-rate schedules.

MLlib's ``GradientDescent`` decays the step size as ``stepSize / sqrt(t)``
over outer iterations; parameter-server systems commonly use a constant or
inverse-sqrt rate tuned by grid search.  Schedules are indexed by the
*global* step count ``t`` (1-based), whatever that means for the trainer
(communication steps for SendGradient, local updates for SendModel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LearningRate", "ConstantLR", "InvSqrtLR", "InvTimeLR",
           "get_schedule", "SCHEDULES"]

#: Schedule names :func:`get_schedule` builds (``TrainerConfig.lr_schedule``).
SCHEDULES = ("constant", "inv_sqrt", "inv_time")


class LearningRate:
    """Interface: maps a 1-based step index to a step size."""

    def at(self, step: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantLR(LearningRate):
    """eta_t = eta0."""

    eta0: float

    def __post_init__(self) -> None:
        if self.eta0 <= 0:
            raise ValueError("learning rate must be positive")

    def at(self, step: int) -> float:
        return self.eta0


@dataclass(frozen=True)
class InvSqrtLR(LearningRate):
    """eta_t = eta0 / sqrt(t) (MLlib's default decay)."""

    eta0: float

    def __post_init__(self) -> None:
        if self.eta0 <= 0:
            raise ValueError("learning rate must be positive")

    def at(self, step: int) -> float:
        if step < 1:
            raise ValueError("step index is 1-based")
        return self.eta0 / math.sqrt(step)


@dataclass(frozen=True)
class InvTimeLR(LearningRate):
    """eta_t = eta0 / (1 + decay * t), the classic Robbins-Monro decay."""

    eta0: float
    decay: float = 1.0e-3

    def __post_init__(self) -> None:
        if self.eta0 <= 0:
            raise ValueError("learning rate must be positive")
        if self.decay < 0:
            raise ValueError("decay must be non-negative")

    def at(self, step: int) -> float:
        if step < 1:
            raise ValueError("step index is 1-based")
        return self.eta0 / (1.0 + self.decay * step)


def get_schedule(name: str, eta0: float, decay: float = 1.0e-3) -> LearningRate:
    """Build a schedule by name (one of :data:`SCHEDULES`)."""
    if name == "constant":
        return ConstantLR(eta0)
    if name == "inv_sqrt":
        return InvSqrtLR(eta0)
    if name == "inv_time":
        return InvTimeLR(eta0, decay)
    raise KeyError(f"unknown schedule {name!r}; expected one of {SCHEDULES}")
