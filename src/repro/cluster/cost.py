"""Compute cost model: converting training work into simulated seconds.

The unit of computational work for sparse GLM training is the *nonzero
processed*: computing a dot product ``w . x`` and the corresponding gradient
contribution touches each stored nonzero of ``x`` a constant number of
times.  The cost model therefore prices a pass over a batch as::

    seconds = nnz(batch) * sec_per_nnz / node.speed

A separate dense term prices operations that touch every model coordinate
(dense regularization, model averaging itself) at ``sec_per_coord``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .node import NodeSpec

__all__ = ["ComputeCostModel"]


@dataclass(frozen=True)
class ComputeCostModel:
    """Prices local computation in simulated seconds.

    Parameters
    ----------
    sec_per_nnz:
        Seconds per nonzero processed on the reference (speed=1) node.
        The default corresponds to ~50M sparse FLOP-pairs per second, a
        realistic figure for JVM sparse kernels circa the paper's testbed.
    sec_per_coord:
        Seconds per dense model coordinate touched (vector axpy/scale).
    task_launch_seconds:
        Fixed scheduling/dispatch cost per task launched on an executor
        (Spark task serialization, scheduling RPC).  Only multi-wave
        execution pays it more than once per superstep.
    """

    sec_per_nnz: float = 2.0e-8
    sec_per_coord: float = 2.0e-9
    task_launch_seconds: float = 5.0e-3

    def __post_init__(self) -> None:
        if self.sec_per_nnz <= 0:
            raise ValueError("sec_per_nnz must be positive")
        if self.sec_per_coord <= 0:
            raise ValueError("sec_per_coord must be positive")
        if self.task_launch_seconds < 0:
            raise ValueError("task_launch_seconds must be non-negative")

    def sparse_pass_seconds(self, nnz: float, node: NodeSpec) -> float:
        """Cost of one pass over ``nnz`` stored nonzeros on ``node``."""
        if nnz < 0:
            raise ValueError("nnz must be non-negative")
        return node.compute_seconds(nnz * self.sec_per_nnz)

    def dense_op_seconds(self, coords: float, node: NodeSpec) -> float:
        """Cost of touching ``coords`` dense model coordinates on ``node``."""
        if coords < 0:
            raise ValueError("coords must be non-negative")
        return node.compute_seconds(coords * self.sec_per_coord)
