"""The one place that decides which topology carries an exchange.

A trainer opens one :class:`Topology` per session (:func:`open_topology`,
keyed on ``config.collective``) and then makes topology-blind calls: one
fan-in wire per treeAggregate, or one Reduce-Scatter / AllGather pair
per AllReduce.  Every topology runs the same flat combine kernels, so
the arrays are bit-identical; what differs is the *wire* handed back,
which plans its own phase for the engine (:mod:`repro.engine.plan`).  A
``None`` wire means the engine's dense closed form — the seed pricing.

A new topology is a wire class with a planner, a subclass here and a
:data:`TOPOLOGIES` entry; no engine or trainer changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allreduce import all_gather, reduce_scatter
from .hierarchical import (hier_all_gather, hier_dense_wire,
                           hier_reduce_scatter, hier_tree_fan_in)
from .innetwork import (switch_all_gather, switch_dense_wire,
                        switch_reduce_scatter, switch_tree_fan_in)
from .sparse import (sparse_all_gather, sparse_reduce_scatter,
                     tree_fan_in_wire)

__all__ = ["Topology", "TOPOLOGIES", "COLLECTIVES", "open_topology"]


@dataclass(frozen=True)
class Topology:
    """``flat`` (the paper's treeAggregate / shuffle AllReduce), and the
    interface ``hier`` and ``switch`` override."""

    #: ``config.sparse_comm``: the wire format applied per message.
    mode: str
    #: ``cluster.executor_groups()``: executors by hosting machine.
    groups: tuple[tuple[int, ...], ...]
    #: ``engine.tree.plan(k)``: treeAggregate's aggregator groups.
    tree_plan: dict[int, int]
    #: ``config.switch_slots`` / ``config.switch_chunk``.
    switch: dict[str, int]

    def fan_in_wire(self, vectors_by_executor: list[list[np.ndarray]],
                    model_size: int):
        """Wire of one treeAggregate of per-task sparse-able vectors."""
        if self.mode == "off":
            return None
        return tree_fan_in_wire(vectors_by_executor, self.tree_plan,
                                model_size, self.mode)

    def dense_wire(self, phase: str, model_size: int):
        """Wire of ``phase`` for one always-dense vector per executor."""
        return None

    def reduce_scatter(self, models: list[np.ndarray], combine: str):
        """``(owner partitions, wire)`` of one Reduce-Scatter."""
        if self.mode == "off":
            return reduce_scatter(models, combine=combine), None
        return sparse_reduce_scatter(models, combine=combine, mode=self.mode)

    def all_gather(self, partitions: list[np.ndarray], model_size: int,
                   check_replicas: bool):
        """``(reassembled model, wire)`` of one AllGather."""
        if self.mode == "off":
            return all_gather(partitions, model_size,
                              check_replicas=check_replicas), None
        return sparse_all_gather(partitions, model_size, mode=self.mode,
                                 check_replicas=check_replicas)


class HierTopology(Topology):
    """Two-tier, placement-aware aggregation (:mod:`.hierarchical`)."""

    def fan_in_wire(self, vectors_by_executor, model_size):
        return hier_tree_fan_in(vectors_by_executor, self.groups,
                                model_size, self.mode)

    def dense_wire(self, phase, model_size):
        return hier_dense_wire(phase, model_size, self.groups)

    def reduce_scatter(self, models, combine):
        return hier_reduce_scatter(models, self.groups, combine=combine,
                                   mode=self.mode)

    def all_gather(self, partitions, model_size, check_replicas):
        return hier_all_gather(partitions, model_size, self.groups,
                               mode=self.mode,
                               check_replicas=check_replicas)


class SwitchTopology(Topology):
    """SwitchML-style in-network aggregation (:mod:`.innetwork`)."""

    def fan_in_wire(self, vectors_by_executor, model_size):
        return switch_tree_fan_in(vectors_by_executor, self.tree_plan,
                                  model_size, self.mode, **self.switch)

    def dense_wire(self, phase, model_size):
        return switch_dense_wire(
            phase, model_size, sum(len(group) for group in self.groups),
            **self.switch)

    def reduce_scatter(self, models, combine):
        return switch_reduce_scatter(models, combine=combine, mode=self.mode,
                                     **self.switch)

    def all_gather(self, partitions, model_size, check_replicas):
        return switch_all_gather(partitions, model_size, mode=self.mode,
                                 check_replicas=check_replicas,
                                 **self.switch)


#: ``config.collective`` -> topology.
TOPOLOGIES: dict[str, type[Topology]] = {
    "flat": Topology, "hier": HierTopology, "switch": SwitchTopology}
COLLECTIVES = tuple(TOPOLOGIES)


def open_topology(config, cluster, tree_plan: dict[int, int]) -> Topology:
    """The session's topology, from a ``TrainerConfig``, the cluster's
    placement and the engine's treeAggregate plan."""
    return TOPOLOGIES[config.collective](
        mode=config.sparse_comm, groups=cluster.executor_groups(),
        tree_plan=tree_plan,
        switch={"pool_slots": config.switch_slots,
                "chunk_values": config.switch_chunk})
