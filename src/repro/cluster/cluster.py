"""Cluster specifications and the two paper testbeds.

A :class:`ClusterSpec` bundles the node list, the network model, the compute
cost model and the straggler model, and exposes the per-(worker, step)
slowdown sampling used by BSP barriers.

Presets reproduce the paper's Section V-A:

* :func:`cluster1` — 9 nodes (1 driver + 8 executors), 2x8-core CPUs,
  24 GB memory, 1 Gbps network, homogeneous.
* :func:`cluster2` — n heterogeneous nodes out of a 953-node production
  cluster, 2x10-core CPUs, ~360 GB memory each, 10 Gbps network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cost import ComputeCostModel
from .network import (GIGABIT, TEN_GIGABIT, NetworkModel,
                      TieredNetworkModel)
from .node import (LogNormalStragglers, NodeSpec, NoStragglers,
                   StragglerModel, heterogeneous_nodes, homogeneous_nodes)

__all__ = ["ClusterSpec", "cluster1", "cluster2", "tiered_cluster"]


@dataclass
class ClusterSpec:
    """A simulated cluster: nodes + network + cost + straggler models.

    The first node is the driver in driver-based engines; the remaining
    ``len(nodes) - 1`` nodes are executors.  Engines that have no driver
    (pure parameter-server deployments) may use all nodes as workers.
    """

    nodes: list[NodeSpec]
    network: NetworkModel = field(default_factory=NetworkModel)
    compute: ComputeCostModel = field(default_factory=ComputeCostModel)
    stragglers: StragglerModel = field(default_factory=NoStragglers)
    seed: int = 0
    #: Machine placement map for hierarchical collectives:
    #: ``placement[i]`` is the machine id hosting executor ``i``.  ``None``
    #: (the default) means one executor per machine — the flat topology,
    #: under which the hierarchical collective degenerates to the flat one.
    placement: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("cluster must have at least one node")
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")
        if self.placement is not None:
            self.placement = tuple(int(mid) for mid in self.placement)
            if len(self.placement) != self.num_executors:
                raise ValueError(
                    f"placement maps {len(self.placement)} executors, "
                    f"cluster has {self.num_executors}")
            if any(mid < 0 for mid in self.placement):
                raise ValueError("machine ids must be non-negative")
            machines = max(self.placement) + 1
            hosted = [False] * machines
            for mid in self.placement:
                hosted[mid] = True
            if not all(hosted):
                raise ValueError(
                    "machine ids must be contiguous: every id in "
                    f"[0, {machines}) must host at least one executor")
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    @property
    def driver(self) -> NodeSpec:
        return self.nodes[0]

    @property
    def executors(self) -> list[NodeSpec]:
        return self.nodes[1:]

    @property
    def num_executors(self) -> int:
        return max(0, len(self.nodes) - 1)

    def executor_groups(self) -> tuple[tuple[int, ...], ...]:
        """Executors grouped by hosting machine, for two-tier collectives.

        Returns one tuple of executor indices per machine, members in
        ascending index order and groups in ascending machine-id order —
        a deterministic traversal order (rule DET002: group membership is
        a reduction order, never hash order).  With no placement map every
        executor is its own machine: singleton groups, the degenerate
        topology under which hierarchical pricing equals flat pricing.
        """
        k = self.num_executors
        if self.placement is None:
            return tuple((i,) for i in range(k))
        machines = max(self.placement) + 1
        members: list[list[int]] = [[] for _ in range(machines)]
        for executor, machine in enumerate(self.placement):
            members[machine].append(executor)
        return tuple(tuple(group) for group in members)

    def slowdown(self, node: NodeSpec, step: int) -> float:
        """Sample the transient slowdown for ``node`` at superstep ``step``."""
        return self.stragglers.slowdown(self._rng, node, step)

    def reset_rng(self) -> None:
        """Reset the straggler RNG so repeated runs are reproducible."""
        self._rng = np.random.default_rng(self.seed)


def cluster1(executors: int = 8, stragglers: StragglerModel | None = None,
             seed: int = 0,
             compute: ComputeCostModel | None = None) -> ClusterSpec:
    """The paper's Cluster 1: homogeneous, 1 Gbps, 1 driver + 8 executors."""
    nodes = homogeneous_nodes(executors + 1, speed=1.0)
    return ClusterSpec(
        nodes=nodes,
        network=NetworkModel(bandwidth=GIGABIT, alpha=1.0e-3),
        compute=compute if compute is not None else ComputeCostModel(),
        stragglers=stragglers if stragglers is not None else NoStragglers(),
        seed=seed,
    )


def cluster2(machines: int = 32, straggler_sigma: float = 0.35, seed: int = 0,
             compute: ComputeCostModel | None = None) -> ClusterSpec:
    """A slice of the paper's Cluster 2: heterogeneous, 10 Gbps.

    ``machines`` counts executors; one extra node is added as the driver.
    Heterogeneity has two layers (static speed spread + transient
    stragglers), which is what produces the poor 32->128 scaling of
    Figure 6(d).
    """
    if machines < 1:
        raise ValueError("need at least one machine")
    rng = np.random.default_rng(seed)
    nodes = heterogeneous_nodes(machines + 1, rng)
    return ClusterSpec(
        nodes=nodes,
        network=NetworkModel(bandwidth=TEN_GIGABIT, alpha=5.0e-4),
        compute=compute if compute is not None else ComputeCostModel(),
        stragglers=LogNormalStragglers(sigma=straggler_sigma),
        seed=seed,
    )


def tiered_cluster(machines: int = 2, executors_per_machine: int = 4,
                   stragglers: StragglerModel | None = None,
                   seed: int = 0) -> ClusterSpec:
    """Cluster 1's hardware re-racked into multi-executor machines.

    ``machines * executors_per_machine`` executors (plus a driver) on
    Cluster 1-class nodes, with a :class:`TieredNetworkModel` (1 Gbps
    cross-node fabric, ~100 Gbps shared-memory intra tier) and a block
    placement map: executor ``i`` lives on machine
    ``i // executors_per_machine``.  The topology the hierarchical
    collective exploits — and the one the ``ladder-*`` claim rows sweep.
    """
    if machines < 1:
        raise ValueError("need at least one machine")
    if executors_per_machine < 1:
        raise ValueError("need at least one executor per machine")
    k = machines * executors_per_machine
    nodes = homogeneous_nodes(k + 1, speed=1.0)
    return ClusterSpec(
        nodes=nodes,
        network=TieredNetworkModel(bandwidth=GIGABIT, alpha=1.0e-3),
        compute=ComputeCostModel(),
        stragglers=stragglers if stragglers is not None else NoStragglers(),
        seed=seed,
        placement=tuple(i // executors_per_machine for i in range(k)),
    )
