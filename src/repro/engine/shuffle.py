"""The shuffle operator: programmable all-to-all block exchange.

Spark's ``shuffle`` lets each map task route blocks to arbitrary reduce
tasks.  MLlib* builds its AllReduce on exactly this primitive (Section
IV-B2): Reduce-Scatter is a shuffle where executor ``r`` sends model
partition ``i`` to executor ``i``; AllGather is a shuffle where executor
``r`` sends its owned partition to everyone.

:class:`ShuffleModel` prices one shuffle round.  All executors send and
receive concurrently on their own links, so a round costs what the busiest
endpoint pays: ``messages * (alpha + size/bandwidth)`` — contrast with the
driver fan-in of :mod:`repro.engine.aggregation`, which serializes all ``k``
transfers through one node.

:func:`exchange` performs the actual data movement on real Python values so
the numerical trainers and the tests can verify routing correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, TypeVar

from ..cluster import ClusterSpec
from .plan import PhasePlan, PhaseRequest

if TYPE_CHECKING:  # avoid a runtime engine -> collectives import cycle
    from ..collectives.sparse import CommStats

__all__ = ["ShuffleModel", "exchange"]

T = TypeVar("T")


@dataclass(frozen=True)
class ShuffleModel:
    """Cost model for balanced all-to-all shuffle rounds."""

    def round_seconds(self, cluster: ClusterSpec, messages_per_node: int,
                      values_per_message: float) -> float:
        """Cost of one round where every executor sends ``messages_per_node``
        messages of ``values_per_message`` coordinates.

        Uplink serialization applies per node, but nodes proceed in
        parallel, so the round costs one node's worth of transfers.
        """
        if messages_per_node < 0:
            raise ValueError("messages_per_node must be non-negative")
        net = cluster.network
        return messages_per_node * net.transfer_seconds(values_per_message)

    def sender_seconds(self, cluster: ClusterSpec,
                       message_values: tuple[float, ...] | list[float]) -> float:
        """Cost of one node's sends when its messages differ in size.

        The nnz-aware variant of :meth:`round_seconds`: sparse payloads
        make every message's wire size depend on its support, so a
        sender's uplink cost is the sum of its individually priced
        transfers.  With equal sizes this equals
        ``round_seconds(cluster, len(message_values), size)`` up to
        float rounding (a running sum, not a product).
        A node with nothing to send (a one-executor shuffle) costs 0.0.
        """
        if len(message_values) == 0:
            return 0.0
        return cluster.network.fan_in_varied_seconds(message_values)

    def check_owners(self, model_size: int, num_executors: int,
                     what: str) -> None:
        """Reduce-Scatter/AllGather partition the model across owners:
        every owner needs at least one coordinate."""
        if model_size < num_executors:
            raise ValueError(
                f"cannot partition a model of size {model_size} across "
                f"{num_executors} executors for {what}: each owner needs "
                "at least one coordinate (num_executors > model_size)")

    def phase_plan(self, request: PhaseRequest,
                   wire: "CommStats | None" = None) -> PhasePlan:
        """Plan one flat shuffle round (dense, or ``wire``-sized sends).

        Every executor sends its ``k - 1`` pieces on its own uplink,
        then combines what it received.  The dense path keeps the
        closed-form :meth:`round_seconds`, so ``wire=None`` prices
        exactly as the dense engine always has.  A crashed owner runs
        :meth:`PhaseRequest.refill_lanes`.
        """
        cluster = request.cluster
        k = cluster.num_executors
        dense_send = request.dense_round_seconds()
        dense_values = float((k - 1) * request.model_size)
        if wire is None:
            sends = [(dense_send, "send",
                      (k - 1) * (request.model_size / k))] * k
            wire_values = dense_values
        else:
            sends = [(self.sender_seconds(cluster, row) * request.net_slow,
                      "send", float(sum(row))) for row in wire.per_sender]
            dense_values, wire_values = wire.dense_values, wire.wire_values
        return PhasePlan(
            lanes=tuple((send,) + request.combine_lane(i)
                        for i, send in enumerate(sends)),
            retry_lanes=request.refill_lanes(),
            comm=(dense_values, wire_values,
                  max((send[0] for send in sends), default=0.0),
                  dense_send))


def exchange(outboxes: list[dict[int, T]],
             num_workers: int | None = None) -> list[list[T]]:
    """Route messages: ``outboxes[src][dst] = payload`` -> inbox lists.

    Returns ``inboxes`` where ``inboxes[dst]`` collects payloads addressed
    to ``dst`` in ascending source order.  This is the data-plane of the
    shuffle; cost accounting is separate (:class:`ShuffleModel`).
    """
    k = num_workers if num_workers is not None else len(outboxes)
    if k < 1:
        raise ValueError("need at least one worker")
    inboxes: list[list[T]] = [[] for _ in range(k)]
    for src, outbox in enumerate(outboxes):
        for dst, payload in outbox.items():
            if not 0 <= dst < k:
                raise ValueError(
                    f"worker {src} addressed message to {dst}, but only "
                    f"{k} workers exist")
            inboxes[dst].append(payload)
    return inboxes
