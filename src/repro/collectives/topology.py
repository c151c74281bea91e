"""The one place that decides which topology carries an exchange, and
the one place that runs the data plane.

A trainer opens one :class:`Topology` per session (:func:`open_topology`,
keyed on ``config.collective``) and then makes topology-blind calls: one
fan-in wire per treeAggregate, or one Reduce-Scatter / AllGather pair
per AllReduce.  Each call runs the flat combine kernel of
:mod:`.allreduce` at most once (so the arrays are bit-identical under
every topology), builds one :class:`~.sparse.SupportMask` over the
phase's vectors, and hands it to :meth:`Topology.wire` — the only method
a topology overrides.  What differs is the *wire* handed back, which
plans its own phase for the engine (:mod:`repro.engine.plan`).  A
``None`` wire means the engine's dense closed form — the seed pricing.

A new topology is a wire class with a planner, a subclass here with one
``wire`` method and a :data:`TOPOLOGIES` entry; no engine or trainer
changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allreduce import all_gather, reduce_scatter
from .hierarchical import hier_wire
from .innetwork import switch_wire
from .sparse import SupportMask, flat_ag_wire, flat_fan_in_wire, flat_rs_wire

__all__ = ["Topology", "TOPOLOGIES", "COLLECTIVES", "open_topology"]


@dataclass(frozen=True)
class Topology:
    """``flat`` (the paper's treeAggregate / shuffle AllReduce), and the
    four calls every topology shares."""

    #: ``config.sparse_comm``: the wire format applied per message.
    mode: str
    #: ``cluster.executor_groups()``: executors by hosting machine.
    groups: tuple[tuple[int, ...], ...]
    #: ``engine.tree.plan(k)``: treeAggregate's aggregator groups.
    tree_plan: dict[int, int]
    #: ``config.switch_slots`` / ``config.switch_chunk``.
    switch: dict[str, int]

    @property
    def executors(self) -> int:
        return sum(len(group) for group in self.groups)

    def fan_in_wire(self, vectors_by_executor: list[list[np.ndarray]],
                    model_size: int):
        """Wire of one treeAggregate of per-task sparse-able vectors
        (``vectors_by_executor[e]``: executor ``e``'s task vectors)."""
        mpe = len(vectors_by_executor[0]) if vectors_by_executor else 0
        if mpe < 1 or any(len(row) != mpe for row in vectors_by_executor):
            raise ValueError("every executor must ship the same number "
                             "of task vectors")
        support = SupportMask([v for row in vectors_by_executor for v in row],
                              model_size, self.mode)
        return self.wire("tree_aggregate", support, mpe)

    def dense_wire(self, phase: str, model_size: int):
        """Wire of ``phase`` for one always-dense vector per executor: an
        ``'off'`` support scans nothing and sizes every message dense."""
        if phase not in ("tree_aggregate", "reduce_scatter", "all_gather"):
            raise ValueError(f"unknown collective phase {phase!r}")
        return self.wire(phase, SupportMask((), model_size, "off"))

    def reduce_scatter(self, models: list[np.ndarray], combine: str):
        """``(owner partitions, wire)`` of one Reduce-Scatter."""
        partitions = reduce_scatter(models, combine=combine)
        return partitions, self.wire("reduce_scatter", SupportMask(
            models, int(models[0].shape[0]), self.mode))

    def all_gather(self, partitions: list[np.ndarray], model_size: int,
                   check_replicas: bool):
        """``(reassembled model, wire)`` of one AllGather."""
        full = all_gather(partitions, model_size,
                          check_replicas=check_replicas)
        return full, self.wire("all_gather",
                               SupportMask([full], model_size, self.mode))

    def wire(self, phase: str, support: SupportMask, mpe: int = 1):
        """How this topology sizes ``phase`` from ``support`` (rows: the
        phase's vectors; ``mpe`` task vectors per executor in the
        fan-in).  Flat: ``None`` under an ``'off'`` support, else the
        shuffle round's :class:`~.sparse.CommStats` or the fan-in's
        :class:`~.sparse.TreeWire`."""
        if support.mode == "off":
            return None
        if phase == "tree_aggregate":
            return flat_fan_in_wire(support, self.executors, self.tree_plan,
                                    mpe)
        if phase == "reduce_scatter":
            return flat_rs_wire(support, self.executors)
        return flat_ag_wire(support, self.executors)


class HierTopology(Topology):
    """Two-tier, placement-aware aggregation (:mod:`.hierarchical`)."""

    def wire(self, phase, support, mpe=1):
        return hier_wire(phase, support, self.groups, mpe)


class SwitchTopology(Topology):
    """SwitchML-style in-network aggregation (:mod:`.innetwork`): a dense
    wire, bypassed to the flat sizing by the sparse break-even."""

    def wire(self, phase, support, mpe=1):
        return switch_wire(phase, support, self.executors,
                           super().wire(phase, support, mpe), mpe=mpe,
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
