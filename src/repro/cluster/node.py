"""Simulated cluster nodes and heterogeneity models.

A :class:`NodeSpec` describes a single machine of the simulated cluster: its
relative computational speed.  Real training math runs on the local host;
the node specs only drive the *cost model* that converts work (nonzeros
processed, bytes transferred) into simulated seconds.

The paper evaluates on two clusters:

* Cluster 1 — 9 homogeneous nodes (1 driver + 8 executors), 1 Gbps network.
* Cluster 2 — 953 heterogeneous nodes, 10 Gbps network, where "the
  computational power of individual machines exhibits a high variance"
  (Section V-C).  Heterogeneity is what makes BSP scale poorly: every
  superstep waits for the slowest worker.

Heterogeneity is modelled in two parts:

* a *static* per-node speed multiplier, drawn once when the cluster is built
  (some machines are simply slower than others), and
* a *dynamic* per-(node, step) slowdown sampled from a
  :class:`StragglerModel` (interference from co-located jobs, GC pauses...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NodeSpec",
    "StragglerModel",
    "NoStragglers",
    "LogNormalStragglers",
    "homogeneous_nodes",
    "heterogeneous_nodes",
]


@dataclass(frozen=True)
class NodeSpec:
    """One simulated machine.

    Parameters
    ----------
    node_id:
        Unique identifier within the cluster.  The driver is, by convention,
        node 0 in driver-based engines.
    speed:
        Relative computational speed.  ``speed=1.0`` is the reference
        machine; ``speed=0.5`` takes twice as long for the same work.
    """

    node_id: int
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError(f"node speed must be positive, got {self.speed}")

    def compute_seconds(self, work_units: float) -> float:
        """Convert abstract work units into seconds on this node."""
        return work_units / self.speed


class StragglerModel:
    """Base class for dynamic per-step slowdown sampling.

    Subclasses implement :meth:`slowdown`, returning a multiplicative factor
    ``>= 1.0`` applied to a node's compute time for one superstep.
    """

    def slowdown(self, rng: np.random.Generator, node: NodeSpec, step: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class NoStragglers(StragglerModel):
    """Every node always runs at its static speed (ideal cluster)."""

    def slowdown(self, rng: np.random.Generator, node: NodeSpec, step: int) -> float:
        return 1.0


@dataclass(frozen=True)
class LogNormalStragglers(StragglerModel):
    """Log-normal transient slowdowns.

    Each (node, step) draws ``exp(N(0, sigma))`` clipped below at 1.0.  With
    ``sigma`` around 0.3-0.5 the *maximum* over k workers grows with k, which
    is exactly the paper's second explanation for poor scalability at 128
    machines (Section V-C, reason 2).
    """

    sigma: float = 0.35

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def slowdown(self, rng: np.random.Generator, node: NodeSpec, step: int) -> float:
        return float(max(1.0, np.exp(rng.normal(0.0, self.sigma))))


def homogeneous_nodes(count: int, speed: float = 1.0) -> list[NodeSpec]:
    """Build ``count`` identical nodes (Cluster 1 style)."""
    if count < 1:
        raise ValueError("cluster needs at least one node")
    return [NodeSpec(node_id=i, speed=speed) for i in range(count)]


def heterogeneous_nodes(count: int,
                        rng: np.random.Generator) -> list[NodeSpec]:
    """Build ``count`` nodes with log-normally distributed static speeds
    (sigma 0.25).

    Mimics Cluster 2: a large shared production cluster where machine
    generations and co-located load make per-node throughput vary.
    """
    if count < 1:
        raise ValueError("cluster needs at least one node")
    speeds = np.exp(rng.normal(0.0, 0.25, size=count))
    return [NodeSpec(node_id=i, speed=float(s))
            for i, s in enumerate(speeds)]
