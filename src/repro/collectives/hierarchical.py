"""Hierarchical (two-tier) AllReduce: intra-node combine, cross-node RS/AG.

The third rung of the aggregation ladder (after the driver fan-in and the
flat shuffle AllReduce): Snap ML-style placement-aware aggregation.  With
``k`` executors packed onto ``n`` machines (``ClusterSpec.placement`` /
:meth:`~repro.cluster.ClusterSpec.executor_groups`):

1. **Intra tier** — on every machine, the group members ship their local
   models to the group *leader* (the lowest-indexed member) over the
   shared-memory tier; the leader combines them into one per-machine
   partial.
2. **Cross tier** — the ``n`` leaders run the flat Reduce-Scatter /
   AllGather among themselves over ``n`` node-level partitions, putting
   only one message stream per machine on the slow fabric.
3. **Intra tier again** — each leader fans the reassembled model out to
   its members.

Cross-tier traffic shrinks from ``2 (k-1) m`` to ``2 (n-1) m``; the
displaced ``2 (k-n) m`` values ride the fast intra tier instead.

**Bit-identity by construction.**  The builders here only size a
:class:`~.sparse.SupportMask`; the arithmetic stays the flat kernels
(:func:`repro.collectives.reduce_scatter` / :func:`all_gather`), run once
per exchange by :class:`~.topology.Topology` (or by
:func:`hier_reduce_scatter` / :func:`hier_all_gather`), so iterates under
``--collective hier`` equal ``flat``'s bit for bit for every combine,
density and node shape (``tests/test_topology_collectives.py``).

With singleton groups (no placement map) the priced schedule degenerates
to the flat collective: no intra messages, and the cross tier *is* the
flat exchange — message-for-message, so the priced seconds match the flat
wire pricing exactly.

Determinism: groups arrive as ordered tuples from ``executor_groups()``;
supports are :class:`~.sparse.SupportMask` rows in coordinate order;
nothing here iterates a set (rule DET002 applies to this module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.plan import (Lane, PhasePlan, PhaseRequest, Segment,
                           compression_ratio)
from .allreduce import all_gather, partition_slices, reduce_scatter
from .sparse import SupportMask

__all__ = ["HierWire", "hier_wire", "hier_reduce_scatter",
           "hier_all_gather"]


def _check_groups(groups: tuple[tuple[int, ...], ...], k: int) -> None:
    """Groups must partition ``range(k)`` with ascending members."""
    if not groups:
        raise ValueError("need at least one executor group")
    seen = [False] * k
    for group in groups:
        if not group:
            raise ValueError("executor groups must be non-empty")
        if list(group) != sorted(group):
            raise ValueError("group members must be in ascending order")
        for e in group:
            if not 0 <= e < k:
                raise ValueError(
                    f"group member {e} is not an executor index in "
                    f"[0, {k})")
            if seen[e]:
                raise ValueError(f"executor {e} appears in two groups")
            seen[e] = True
    if not all(seen):
        raise ValueError("groups must cover every executor exactly once")


@dataclass(frozen=True)
class HierWire:
    """Wire accounting of one two-tier collective phase.

    ``intra_sends[i]`` lists the message sizes executor ``i`` puts on the
    *intra-node* tier (members' uploads in Reduce-Scatter / the tree
    fan-in; the leader's fan-out copies in AllGather).  ``cross_sends[i]``
    lists what it puts on the *cross-node* fabric — non-empty only for
    group leaders.  ``intra_dense`` / ``cross_dense`` are what the same
    messages would have moved dense, so per-tier compression is visible.
    """

    phase: str
    model_size: int
    groups: tuple[tuple[int, ...], ...]
    intra_sends: tuple[tuple[float, ...], ...]
    cross_sends: tuple[tuple[float, ...], ...]
    intra_dense: float
    cross_dense: float
    #: Tree fan-in only: task-wave messages per executor.
    messages_per_executor: int = 1

    def __post_init__(self) -> None:
        k = len(self.intra_sends)
        if len(self.cross_sends) != k:
            raise ValueError("intra_sends and cross_sends must cover the "
                             "same executors")
        _check_groups(self.groups, k)
        if self.phase not in ("reduce_scatter", "all_gather",
                              "tree_aggregate"):
            raise ValueError(f"unknown hierarchical phase {self.phase!r}")

    # ------------------------------------------------------------------
    @property
    def num_senders(self) -> int:
        return len(self.intra_sends)

    @property
    def intra_values(self) -> float:
        return float(sum(v for row in self.intra_sends for v in row))

    @property
    def cross_values(self) -> float:
        return float(sum(v for row in self.cross_sends for v in row))

    @property
    def wire_values(self) -> float:
        return self.intra_values + self.cross_values

    @property
    def dense_values(self) -> float:
        return self.intra_dense + self.cross_dense

    compression = property(compression_ratio)

    # ------------------------------------------------------------------
    # planners: the two-tier schedule as engine-interpretable data
    # ------------------------------------------------------------------
    def phase_plan(self, request: PhaseRequest) -> PhasePlan:
        """Plan this wire's phase for :class:`~repro.engine.BspEngine`."""
        if request.phase == "tree_aggregate":
            return self._fan_in_plan(request)
        return self._round_plan(request)

    def _intra_seconds(self, request: PhaseRequest,
                       executors: tuple[int, ...]) -> float:
        """Serialized intra-tier cost of ``executors``' messages."""
        net = request.cluster.network
        return sum(net.intra_transfer_seconds(v)
                   for e in executors for v in self.intra_sends[e])

    def _intra_sends(self, request: PhaseRequest) -> list[Segment]:
        """Per executor, the segment that puts its intra-tier messages
        on the wire (zero-length for one with nothing to send)."""
        return [(self._intra_seconds(request, (i,)), "send", float(sum(row)))
                for i, row in enumerate(self.intra_sends)]

    def _fan_in_plan(self, request: PhaseRequest) -> PhasePlan:
        """Two-tier treeAggregate: machine leaders replace MLlib's
        round-robin aggregators.

        Members ship their task vectors to their machine's leader over
        the *intra* tier; each leader combines its group's vectors and
        ships one partial to the driver over the cross-node fabric.
        """
        cluster, m = request.cluster, request.model_size
        compute = cluster.compute
        # Level 1: every leader drains its members (serialized ingress)
        # and folds the group's vectors; leaders run concurrently.
        level1 = 0.0
        level1_ingress = 0.0
        for group in self.groups:
            ingress = self._intra_seconds(request, group[1:])
            seconds = ingress + compute.dense_op_seconds(
                len(group) * request.messages_per_executor * m,
                cluster.executors[group[0]])
            level1 = max(level1, seconds)
            level1_ingress = max(level1_ingress, ingress)
        # Level 2: the driver receives one partial per machine.
        driver_ingress = cluster.network.fan_in_varied_seconds(
            [v for group in self.groups for v in self.cross_sends[group[0]]])
        driver_seconds = driver_ingress + compute.dense_op_seconds(
            len(self.groups) * m, cluster.driver)

        level1_end = request.start + level1
        busy: Lane = ((level1_end - request.start, "aggregate", 0.0),)
        lanes: list[Lane] = [(send,) for send in self._intra_sends(request)]
        for group in self.groups:
            lanes[group[0]] = busy
        return request.fan_in_plan(
            lanes, level1_end, [lane is not busy for lane in lanes],
            driver_seconds, self.dense_values, self.wire_values,
            level1_ingress + driver_ingress)

    def _round_plan(self, request: PhaseRequest) -> PhasePlan:
        """One two-tier collective round (Reduce-Scatter or AllGather).

        Reduce-Scatter: members upload their model to the machine leader
        over the intra tier; the leader drains them, folds the group,
        exchanges node-slices with the other ``n`` leaders and folds
        those.  AllGather: leaders exchange their node-slices, then fan
        the reassembled model out to their members (who only receive).
        With singleton groups the schedule *is* the flat exchange,
        message for message.  ``recv`` drains carry no values — the
        members' sends already counted that traffic.
        """
        cluster, m = request.cluster, request.model_size
        net, compute = cluster.network, cluster.compute
        n = len(self.groups)
        scatter = request.phase == "reduce_scatter"
        intra = self._intra_sends(request)
        lanes: list[Lane] = [(send,) if scatter else () for send in intra]
        net_times = [send[0] if scatter else 0.0 for send in intra]
        for group in self.groups:
            leader = group[0]
            node = cluster.executors[leader]
            cross_row = self.cross_sends[leader]
            cross_send = (net.fan_in_varied_seconds(cross_row)
                          if cross_row else 0.0)
            cross: Segment = (cross_send, "send", float(sum(cross_row)))
            if scatter:
                drain = self._intra_seconds(request, group[1:])
                members = len(group) - 1
                fold = (compute.dense_op_seconds(members * m, node)
                        if members else 0.0)
                lanes[leader] = ((drain, "recv", 0.0),
                                 (fold, "aggregate", 0.0), cross)
                if request.combine_coords > 0:
                    lanes[leader] += ((compute.dense_op_seconds(
                        m / n * n, node), "aggregate", 0.0),)
                net_times[leader] = drain + cross_send
            else:
                lanes[leader] = (cross, intra[leader])
                net_times[leader] = cross_send + intra[leader][0]
        return PhasePlan(
            lanes=tuple(lanes),
            retry_lanes=request.refill_lanes(),
            comm=(self.dense_values, self.wire_values,
                  max(net_times, default=0.0),
                  request.dense_round_seconds()))


# ----------------------------------------------------------------------
# wire builders (sizing only: the data plane is the flat kernel, run by
# the caller; an 'off' support prices every message dense)
# ----------------------------------------------------------------------
def hier_wire(phase: str, support: SupportMask,
              groups: tuple[tuple[int, ...], ...], mpe: int = 1) -> HierWire:
    """The two-tier sizing of ``phase``.

    * Reduce-Scatter: members upload their local model (``support`` row
      ``e``) to the leader, one message each; the leader's per-machine
      partial carries the group's *union* support, and it keeps the slice
      its own machine owns.
    * AllGather: leaders exchange slices of the reassembled model
      (``support``'s one row), then fan it out to their members over the
      intra tier, one full-model message per member.
    * treeAggregate: members upload every task vector (rows ``e * mpe ..
      (e + 1) * mpe`` are executor ``e``'s), and each leader ships one
      union-support partial to the driver.
    """
    k, n, m = sum(len(group) for group in groups), len(groups), support.size
    slices = partition_slices(m, n)
    intra: list[tuple[float, ...]] = [()] * k
    cross: list[tuple[float, ...]] = [()] * k
    if phase == "all_gather":
        owned, full_msg = support.values([0], slices), support.message([0])
    for j, group in enumerate(groups):
        if phase == "reduce_scatter":
            for e in group[1:]:
                intra[e] = (support.message([e]),)
            cross[group[0]] = tuple(
                v for i, v in enumerate(support.values(group, slices))
                if i != j)
        elif phase == "all_gather":
            cross[group[0]] = (owned[j],) * (n - 1)
            intra[group[0]] = (full_msg,) * (len(group) - 1)
        else:
            for e in group[1:]:
                intra[e] = tuple(support.message([r])
                                 for r in range(e * mpe, (e + 1) * mpe))
            cross[group[0]] = (support.message(
                [r for e in group for r in range(e * mpe, (e + 1) * mpe)]),)
    return HierWire(phase=phase, model_size=m, groups=groups,
                    intra_sends=tuple(intra), cross_sends=tuple(cross),
                    intra_dense=float(m) * mpe * (k - n),
                    cross_dense=float(m) * (
                        n if phase == "tree_aggregate" else n - 1),
                    messages_per_executor=mpe)


# ----------------------------------------------------------------------
# the flat data plane plus the two-tier wire, in one call
# ----------------------------------------------------------------------
def hier_reduce_scatter(models: list[np.ndarray],
                        groups: tuple[tuple[int, ...], ...],
                        combine: str = "average",
                        mode: str = "off",
                        ) -> tuple[list[np.ndarray], HierWire]:
    """Two-tier Reduce-Scatter: flat arithmetic, hierarchical pricing.

    The returned partitions come from the *flat*
    :func:`~repro.collectives.reduce_scatter` kernel — bit-identical to
    every other collective mode by construction.  The second return value
    prices the two-tier schedule (``mode`` applies the SparCML break-even
    per message on both tiers).
    """
    _check_groups(groups, len(models))
    partitions = reduce_scatter(models, combine=combine)
    return partitions, hier_wire("reduce_scatter", SupportMask(
        models, int(models[0].shape[0]), mode), groups)


def hier_all_gather(partitions: list[np.ndarray], model_size: int,
                    groups: tuple[tuple[int, ...], ...],
                    mode: str = "off", check_replicas: bool = False,
                    ) -> tuple[np.ndarray, HierWire]:
    """Two-tier AllGather: flat arithmetic, hierarchical pricing."""
    _check_groups(groups, len(partitions))
    full = all_gather(partitions, model_size,
                      check_replicas=check_replicas)
    return full, hier_wire("all_gather",
                           SupportMask([full], model_size, mode), groups)
