"""MLlib's ``treeAggregate``: hierarchical gradient/model aggregation.

MLlib alleviates (but does not remove) the driver bottleneck by aggregating
through intermediate executors: with ``k`` executors and depth 2, roughly
``sqrt(k)`` executors first combine the vectors of their group, then the
driver combines the ``sqrt(k)`` partial aggregates (Figure 2(a)).

:class:`TreeAggregateModel` prices the two levels under the alpha-beta
network model.  The receiving node of each level pays serialized ingress
(one message after another) plus the dense vector additions — this is
bottleneck B2 made quantitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..cluster import ClusterSpec
from .plan import Lane, PhasePlan, PhaseRequest, check_wire

if TYPE_CHECKING:  # avoid a runtime engine -> collectives import cycle
    from ..collectives.sparse import TreeWire

__all__ = ["TreeAggregateModel", "TreeAggregateTiming"]


@dataclass(frozen=True)
class TreeAggregateTiming:
    """Timing breakdown of one treeAggregate call.

    ``groups`` maps each aggregator's executor index to the number of
    vectors it combines (including its own).
    """

    aggregator_seconds: float
    driver_seconds: float
    groups: dict[int, int]
    #: Serialized network ingress on the critical path: the busiest
    #: aggregator's fan-in plus the driver's fan-in (no compute).  This is
    #: the communication component the sparse wire format shrinks.
    ingress_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.aggregator_seconds + self.driver_seconds


@dataclass(frozen=True)
class TreeAggregateModel:
    """Cost model for hierarchical aggregation of size-``m`` vectors.

    Parameters
    ----------
    depth:
        Aggregation depth.  ``depth=1`` means every executor sends straight
        to the driver (flat aggregation, the pre-treeAggregate behaviour);
        ``depth=2`` is MLlib's default hierarchical scheme.
    """

    depth: int = 2

    def __post_init__(self) -> None:
        if self.depth not in (1, 2):
            raise ValueError("supported depths are 1 (flat) and 2 (MLlib)")

    def num_aggregators(self, k: int) -> int:
        """Number of intermediate aggregators for ``k`` executors."""
        if k < 1:
            raise ValueError("need at least one executor")
        if self.depth == 1:
            return 0
        return min(k, max(1, math.isqrt(k)))

    def plan(self, k: int) -> dict[int, int]:
        """Assign executors to aggregator groups.

        Returns ``{aggregator_executor_index: group_size}``; group members
        are assigned round-robin so sizes differ by at most one.  With
        depth 1 the dict is empty (everyone sends to the driver).
        """
        a = self.num_aggregators(k)
        if a == 0:
            return {}
        sizes = {i: 0 for i in range(a)}
        for executor in range(k):
            sizes[executor % a] += 1
        return sizes

    def timing(self, cluster: ClusterSpec, model_size: int,
               messages_per_executor: int = 1,
               wire: "TreeWire | None" = None) -> TreeAggregateTiming:
        """Price one aggregation of size-``m`` vectors to the driver.

        ``messages_per_executor`` > 1 models multiple waves of tasks per
        executor (Section V-C): every task ships its own full-size vector
        into the aggregation, multiplying level-1 traffic.

        ``wire`` (a :class:`~repro.collectives.sparse.TreeWire`) replaces
        the dense ``model_size`` message pricing with per-message sparse
        wire sizes: leaf messages carry each task's gradient support,
        aggregator partials carry their group's union support.  The dense
        vector additions are unchanged — sparsity changes what moves on
        the wire, never the arithmetic being priced.
        """
        if messages_per_executor < 1:
            raise ValueError("messages_per_executor must be at least 1")
        k = cluster.num_executors
        net = cluster.network
        compute = cluster.compute
        groups = self.plan(k)
        mpe = messages_per_executor
        if wire is not None:
            check_wire(wire, k, mpe)

        if not groups:
            if wire is None:
                ingress = net.fan_in_seconds(k * mpe, model_size)
            else:
                ingress = net.fan_in_varied_seconds(
                    [v for row in wire.leaf_values for v in row])
            driver = (ingress
                      + compute.dense_op_seconds(k * mpe * model_size,
                                                 cluster.driver))
            return TreeAggregateTiming(aggregator_seconds=0.0,
                                       driver_seconds=driver, groups={},
                                       ingress_seconds=ingress)

        # Level 1: aggregators receive their group's vectors (minus their
        # own, which are local) serially and add them up; all aggregators
        # run concurrently.
        a = len(groups)
        if wire is not None and len(wire.partial_values) != a:
            raise ValueError(
                f"wire holds {len(wire.partial_values)} partials, plan "
                f"has {a} aggregators")
        level1 = 0.0
        level1_ingress = 0.0
        for agg_index, size in groups.items():
            node = cluster.executors[agg_index]
            if wire is None:
                ingress = net.fan_in_seconds((size - 1) * mpe, model_size)
            else:
                # A singleton group (every member is the aggregator, e.g.
                # k == 1) has no ingress to price at all.
                sizes = [v for e in range(k)
                         if e % a == agg_index and e != agg_index
                         for v in wire.leaf_values[e]]
                ingress = (net.fan_in_varied_seconds(sizes) if sizes
                           else 0.0)
            seconds = (ingress
                       + compute.dense_op_seconds(size * mpe * model_size,
                                                  node))
            level1 = max(level1, seconds)
            level1_ingress = max(level1_ingress, ingress)

        # Level 2: the driver receives one partial per aggregator.
        if wire is None:
            ingress = net.fan_in_seconds(a, model_size)
        else:
            ingress = net.fan_in_varied_seconds(wire.partial_values)
        driver = (ingress
                  + compute.dense_op_seconds(a * model_size,
                                             cluster.driver))
        return TreeAggregateTiming(aggregator_seconds=level1,
                                   driver_seconds=driver, groups=groups,
                                   ingress_seconds=level1_ingress + ingress)

    def phase_plan(self, request: PhaseRequest,
                   wire: "TreeWire | None" = None) -> PhasePlan:
        """Plan the flat treeAggregate (dense, or ``wire``-sized sends).

        Aggregators are busy for the whole level-1 stage; every other
        executor sends its task vectors and idles until that stage
        ends.  The dense path is :meth:`timing`'s closed form.
        """
        cluster, m = request.cluster, request.model_size
        k = cluster.num_executors
        net = cluster.network
        timing = self.timing(cluster, m, request.messages_per_executor,
                             wire=wire)
        level1_end = request.start + timing.aggregator_seconds
        busy: Lane = ((level1_end - request.start, "aggregate", 0.0),)
        if wire is None:
            dense_send: Lane = ((net.transfer_seconds(m), "send", float(m)),)
            lanes = [busy if i in timing.groups else dense_send
                     for i in range(k)]
            a = len(timing.groups)
            mpe = request.messages_per_executor
            messages = k * mpe if a == 0 else (k - a) * mpe + a
            dense_values = wire_values = float(m) * messages
        else:
            lanes = [busy if i in timing.groups else
                     ((net.fan_in_varied_seconds(row), "send",
                       float(sum(row))),)
                     for i, row in enumerate(wire.leaf_values)]
            dense_values, wire_values = wire.dense_values, wire.wire_values
        return request.fan_in_plan(
            lanes, level1_end, [i not in timing.groups for i in range(k)],
            timing.driver_seconds, dense_values, wire_values,
            timing.ingress_seconds,
            timing.ingress_seconds if wire is None else None)
