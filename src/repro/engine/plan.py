"""Phase plans: one priced BSP phase, described as data.

SparCML and SwitchML describe their collectives as a short list of
rounds — who sends how much to whom, then who combines.  A
:class:`PhasePlan` is that description for one phase: per executor a
*lane* of back-to-back ``(seconds, span kind, wire values)`` segments
for the first attempt and another for every attempt after a crash, how
the phase closes, and the numbers of its ``CommRecord``.

*Planners* build plans from a :class:`PhaseRequest`;
:class:`~repro.engine.driver.BspEngine` interprets them and is the only
code that injects faults, emits spans, fills waits, appends the record
and advances the clock.  A wire is its own planner
(``wire.phase_plan(request)``); without one the engine asks its
``TreeAggregateModel`` / ``ShuffleModel`` for the dense closed form.  A
new topology is therefore one wire class with a ``num_senders`` count
and a ``phase_plan`` method.  Planners are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, Sequence

from ..cluster import ClusterSpec

if TYPE_CHECKING:
    from .aggregation import TreeAggregateModel
    from .shuffle import ShuffleModel

__all__ = ["Segment", "Lane", "TreeClose", "PhasePlan", "PhaseRequest",
           "WirePlanner", "check_wire", "compression_ratio"]

#: ``(seconds, span kind, wire values moved)``.
Segment = tuple[float, str, float]
#: One executor's back-to-back segments for one attempt at a phase.
Lane = tuple[Segment, ...]


@dataclass(frozen=True)
class TreeClose:
    """The treeAggregate way to end a phase (driver fan-in).

    Executors flagged in ``idles_at_level1`` (the senders) idle from
    their lane's end to ``level1_end``; the driver stage then starts —
    late by the slowest recovered sender — and lasts ``driver_seconds``;
    everyone idles until it ends.
    """

    level1_end: float
    idles_at_level1: tuple[bool, ...]
    driver_seconds: float


@dataclass(frozen=True)
class PhasePlan:
    """What one phase costs every executor, and how it closes."""

    lanes: tuple[Lane, ...]
    #: What each executor runs on every attempt after a crash.
    retry_lanes: tuple[Lane, ...]
    #: ``(dense_values, wire_values, seconds, dense_seconds)`` of the
    #: phase's ``CommRecord``; ``None`` for a phase that moves no data.
    comm: tuple[float, float, float, float] | None = None
    #: ``None`` closes with a plain barrier at the slowest executor.
    close: TreeClose | None = None


@dataclass(frozen=True)
class PhaseRequest:
    """Everything a planner may read to price one communication phase."""

    cluster: ClusterSpec
    tree: "TreeAggregateModel"
    shuffle: "ShuffleModel"
    #: ``tree_aggregate``, ``reduce_scatter`` or ``all_gather``.
    phase: str
    model_size: int
    #: Simulated time the phase starts at (tree plans price the level-1
    #: stage as an absolute end time, as the hand-written bodies did).
    start: float
    messages_per_executor: int = 1
    #: Dense coordinate ops each owner spends combining received pieces.
    combine_coords: float = 0.0
    #: Per-executor cost of recomputing the vector a crash destroyed.
    redo_seconds: Sequence[float] | None = None

    def redo_lane(self, executor: int) -> Lane:
        """The recomputation a retry starts with (empty if unpriced)."""
        if self.redo_seconds is None:
            return ()
        return ((self.redo_seconds[executor], "compute", 0.0),)

    def combine_lane(self, executor: int) -> Lane:
        """The owner-side combine of a shuffle round (empty if free)."""
        if self.combine_coords <= 0:
            return ()
        return ((self.cluster.compute.dense_op_seconds(
            self.combine_coords, self.cluster.executors[executor]),
            "aggregate", 0.0),)

    def refill_lanes(self) -> tuple[Lane, ...]:
        """Retry lanes of a shuffle round, one per owner: redo the local
        work, pull a dense re-send of every peer's piece (a serialized
        ``k - 1`` fan-in), redo the combine."""
        k = self.cluster.num_executors
        piece = self.model_size / k
        refill: Segment = (self.cluster.network.fan_in_seconds(k - 1, piece),
                           "recv", float((k - 1) * piece))
        return tuple(self.redo_lane(i) + (refill,) + self.combine_lane(i)
                     for i in range(k))

    def dense_round_seconds(self) -> float:
        """The dense flat shuffle round every round is compared against
        (closed form: ``k - 1`` equal pieces)."""
        k = self.cluster.num_executors
        return self.shuffle.round_seconds(self.cluster, k - 1,
                                          self.model_size / k)

    def fan_in_plan(self, lanes: Sequence[Lane], level1_end: float,
                    idles_at_level1: Sequence[bool], driver_seconds: float,
                    dense_values: float, wire_values: float,
                    ingress_seconds: float,
                    dense_seconds: float | None = None) -> PhasePlan:
        """Assemble a treeAggregate-shaped plan.

        A crashed sender recomputes its vector and re-sends it, so every
        retry lane is the redo followed by the first-attempt lane.  The
        record's dense seconds are the dense flat treeAggregate's
        critical-path ingress (priced here unless given).
        """
        if dense_seconds is None:
            dense_seconds = self.tree.timing(
                self.cluster, self.model_size,
                self.messages_per_executor).ingress_seconds
        return PhasePlan(
            lanes=tuple(lanes),
            retry_lanes=tuple(self.redo_lane(i) + lane
                              for i, lane in enumerate(lanes)),
            comm=(dense_values, wire_values, ingress_seconds, dense_seconds),
            close=TreeClose(level1_end, tuple(idles_at_level1),
                            driver_seconds))


class WirePlanner(Protocol):
    """What the engine needs of a wire: whom it was sized for and the
    plan of its phase (tree wires also say ``messages_per_executor``)."""

    @property
    def num_senders(self) -> int: ...

    def phase_plan(self, request: PhaseRequest) -> PhasePlan: ...


def compression_ratio(sized: Any) -> float:
    """Dense-over-wire volume ratio of a wire or comm record (1.0 for an
    empty exchange); the body of their ``compression`` properties."""
    if sized.wire_values <= 0:
        return 1.0
    return sized.dense_values / sized.wire_values


def check_wire(wire, num_executors: int,
               messages_per_executor: int | None = None) -> None:
    """A wire must describe exactly the cluster that prices it."""
    if wire.num_senders != num_executors:
        raise ValueError(f"wire carries {wire.num_senders} senders, "
                         f"cluster has {num_executors} executors")
    if (messages_per_executor is not None
            and wire.messages_per_executor != messages_per_executor):
        raise ValueError(
            f"wire must carry messages_per_executor="
            f"{messages_per_executor} sizes per executor, carries "
            f"{wire.messages_per_executor}")
