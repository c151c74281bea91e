"""The BSP execution engine: simulated clock, barriers, trace emission.

:class:`BspEngine` is the reproduction's stand-in for a Spark driver
runtime.  Trainers describe each superstep as a sequence of *phases*; the
engine advances a single global simulated clock through them, samples
straggler slowdowns, enforces barrier-to-slowest semantics, and emits
:class:`~repro.cluster.trace.Span` records for the gantt chart.

Phases available (one per communication pattern in the paper):

* :meth:`compute_phase`       — executors do local work, barrier at the end;
* :meth:`tree_aggregate_phase`— MLlib's hierarchical aggregation to the driver;
* :meth:`driver_update_phase` — the driver applies an update to the model;
* :meth:`broadcast_phase`     — driver ships the model back to executors;
* :meth:`reduce_scatter_phase`/:meth:`all_gather_phase` — the two shuffle
  rounds MLlib* replaces the driver round-trip with;
* :meth:`checkpoint_phase`    — executors write recovery state to stable
  storage (only called when a checkpointing recovery policy is active).

The engine prices time only; the numerical work happens in the trainers.

**Fault injection.**  With a :class:`~repro.cluster.faults.FailureModel`
every phase is failure-aware: a crashed executor's work is voided at the
crash point, a ``recovery`` span prices the restart plus lineage
recompute (or checkpoint restore), and the work is redone, so failures
stretch the clock and the trace but never change the numerics.  Each
phase method says what its crash redoes; the costly one is a lost
Reduce-Scatter/AllGather owner, whom every peer re-sends to while the
barrier stalls all ``k`` executors.  With the default
:class:`~repro.cluster.faults.NoFailures` model, phase timing is
bit-identical to the failure-free engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import ClusterSpec, Trace
from ..cluster.faults import (CrashRecovery, FailureModel, FailureRecord,
                              NoFailures, RecoveryPolicy)
from .aggregation import TreeAggregateModel
from .plan import (PhasePlan, PhaseRequest, WirePlanner, check_wire,
                   compression_ratio)
from .shuffle import ShuffleModel

__all__ = ["BspEngine", "CommRecord", "DRIVER_LABEL", "executor_label"]

DRIVER_LABEL = "driver"


def executor_label(index: int) -> str:
    """Human-readable label for executor ``index`` (0-based)."""
    return f"executor-{index + 1}"


@dataclass(frozen=True)
class CommRecord:
    """Wire accounting of one priced communication phase.

    ``dense_values``/``dense_seconds`` are what the phase would have moved
    and cost with dense messages; ``wire_values``/``seconds`` are what it
    actually moved and cost (identical when no sparse wire was supplied).
    ``seconds`` is the communication component only — the busiest link's
    priced transfer time, excluding combine compute and fault retries.
    """

    step: int
    phase: str
    dense_values: float
    wire_values: float
    seconds: float
    dense_seconds: float

    compression = property(compression_ratio)

    @property
    def speedup(self) -> float:
        """Dense-over-wire priced-seconds ratio (1.0 for a free phase)."""
        if self.seconds <= 0:
            return 1.0
        return self.dense_seconds / self.seconds


class BspEngine:
    """Advances a simulated global clock through BSP phases.

    Executor-side phases are planned as data (:mod:`repro.engine.plan`)
    and run by one interpreter, :meth:`_run_plan`.  A communication
    phase's optional ``wire`` reprices it: sparse message sizes, or the
    two-tier (:class:`~repro.collectives.hierarchical.HierWire`) or
    in-network (:class:`~repro.collectives.innetwork.SwitchWire`)
    schedule; a switch wire whose sparse fallback fired prices as the
    host's sparse wire.  With ``wire=None`` timing is bit-identical to
    the dense engine, and the values are the same in every case:
    topology is a pricing choice (``docs/communication.md``).

    Parameters
    ----------
    cluster:
        The simulated cluster (nodes, network, costs, stragglers).
    tree:
        Aggregation model (depth 1 = flat, 2 = MLlib's treeAggregate).
    faults:
        Failure model deciding which (step, phase, executor, attempt)
        tuples crash; defaults to :class:`NoFailures`.
    recovery:
        Retry budget and restore strategy applied on each crash.
    """

    def __init__(self, cluster: ClusterSpec,
                 tree: TreeAggregateModel | None = None,
                 faults: FailureModel | None = None,
                 recovery: RecoveryPolicy | None = None) -> None:
        if cluster.num_executors < 1:
            raise ValueError("BSP engine needs at least one executor")
        self.cluster = cluster
        self.tree = tree if tree is not None else TreeAggregateModel()
        self.shuffle = ShuffleModel()
        self.faults = faults if faults is not None else NoFailures()
        # Fail fast on failure scripts that could never fire: an event
        # targeting an executor index outside this cluster is a scenario
        # mistake, not a failure-free run.
        self.faults.validate_executors(cluster.num_executors)
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        #: Wire accounting, one record per priced communication phase.
        self.comm_records: list[CommRecord] = []
        #: ``executor_label(i)`` for every executor, formatted once.
        self.labels = tuple(executor_label(i)
                            for i in range(cluster.num_executors))
        self.trace = Trace()
        self.now = 0.0
        #: Crash/retry loop, recovery costs (lineage recompute per
        #: executor, set by the trainer once partition sizes are known;
        #: checkpoint read-back once one is written) and the crash log.
        self._crashes = CrashRecovery(self.faults, self.recovery,
                                      self.trace, cluster.num_executors)
        #: Materialized crashes, in simulated-time order.
        self.failures: list[FailureRecord] = self._crashes.failures
        cluster.reset_rng()

    # ------------------------------------------------------------------
    @property
    def num_executors(self) -> int:
        return self.cluster.num_executors

    def set_recovery_costs(self, reload_seconds: list[float]) -> None:
        """Install the per-executor lineage-recompute cost used on crashes."""
        self._crashes.set_reload_costs(reload_seconds)

    def _wait_fill(self, label: str, busy_until: float, barrier: float,
                   step: int) -> None:
        """Record idle time between a node's last activity and the barrier."""
        if barrier > busy_until + 1e-12:
            self.trace.add(label, busy_until, barrier, "wait", step)

    # ------------------------------------------------------------------
    # the phase interpreter
    # ------------------------------------------------------------------
    def _run_plan(self, plan: PhasePlan, step: int, fault_phase: str,
                  record_phase: str = "") -> float:
        """Run one planned phase; returns its duration.

        Each executor runs its lane from the phase start — through the
        crash/retry loop when a failure model is enabled, straight onto
        the trace otherwise.  A plain plan then closes with a barrier at
        the slowest executor (the driver idles throughout); a
        :class:`~repro.engine.plan.TreeClose` plan idles the senders to
        the level-1 end, starts the driver stage late by the slowest
        recovered executor and idles everyone until it ends.
        """
        start = self.now
        faulty = self.faults.enabled
        close = plan.close
        finish: list[float] = []
        late = 0.0
        for i, lane in enumerate(plan.lanes):
            label = self.labels[i]
            if faulty:
                end = self._crashes.run(label, i, start, lane,
                                        plan.retry_lanes[i], step,
                                        fault_phase)
            else:
                end = self.trace.add_lane(label, start, lane, step)
            finish.append(end)
            if close is not None:
                on_time = start
                for segment in lane:
                    on_time += segment[0]
                late = max(late, end - on_time)
                if close.idles_at_level1[i]:
                    self._wait_fill(label, end, close.level1_end, step)
        if close is None:
            barrier = max(finish, default=start)
            for i, end in enumerate(finish):
                self._wait_fill(self.labels[i], end, barrier, step)
            self._wait_fill(DRIVER_LABEL, start, barrier, step)
        else:
            driver_start = close.level1_end + late
            barrier = driver_start + close.driver_seconds
            self.trace.add(DRIVER_LABEL, driver_start, barrier,
                           "aggregate", step)
            for i, end in enumerate(finish):
                # Only a recovered executor can outlast the level-1 stage.
                busy_until = (max(close.level1_end, end) if faulty
                              else close.level1_end)
                self._wait_fill(self.labels[i], busy_until, barrier, step)
        if plan.comm is not None:
            self.comm_records.append(CommRecord(step, record_phase,
                                                *plan.comm))
        self.now = barrier
        return barrier - start

    def _plan_communication(self, wire: WirePlanner | None, flat_planner,
                            phase: str, model_size: int,
                            redo_seconds: list[float] | None,
                            messages_per_executor: int | None = None,
                            combine_coords: float = 0.0) -> PhasePlan:
        """Ask ``wire`` (or, without one, the dense ``flat_planner``) to
        plan a communication phase — after the one check that the wire
        was built for this cluster."""
        request = PhaseRequest(
            cluster=self.cluster, tree=self.tree, shuffle=self.shuffle,
            phase=phase, model_size=model_size, start=self.now,
            messages_per_executor=messages_per_executor or 1,
            combine_coords=combine_coords, redo_seconds=redo_seconds)
        if wire is None:
            return flat_planner.phase_plan(request)
        check_wire(wire, self.num_executors, messages_per_executor)
        return wire.phase_plan(request)

    # ------------------------------------------------------------------
    def compute_phase(self, seconds_by_executor: list[float],
                      step: int) -> float:
        """Local computation on every executor, then a barrier.

        ``seconds_by_executor[i]`` is the *unperturbed* compute time for
        executor ``i``; the engine multiplies in the per-(node, step)
        straggler slowdown.  A crashed executor recovers (restart +
        reload/restore) and redoes its work in full.  Returns the phase
        duration.
        """
        if len(seconds_by_executor) != self.num_executors:
            raise ValueError(
                f"expected {self.num_executors} durations, "
                f"got {len(seconds_by_executor)}")
        if any(base < 0 for base in seconds_by_executor):
            raise ValueError("compute seconds must be non-negative")
        lanes = tuple(
            ((base * self.cluster.slowdown(node, step), "compute", 0.0),)
            for base, node in zip(seconds_by_executor,
                                  self.cluster.executors))
        return self._run_plan(PhasePlan(lanes, lanes), step, "compute")

    def tree_aggregate_phase(self, model_size: int, step: int,
                             messages_per_executor: int = 1,
                             redo_seconds: list[float] | None = None,
                             wire: WirePlanner | None = None) -> float:
        """Hierarchical aggregation of size-``m`` vectors to the driver.

        ``messages_per_executor`` > 1 models multiple waves of tasks per
        executor, each shipping its own vector (Section V-C).
        ``redo_seconds[i]`` is the cost for executor ``i`` to recompute
        its vector after a crash (the in-memory gradient/model dies with
        the executor); the driver fan-in starts late by the recovery
        delay of the slowest failed sender.

        A :class:`~repro.collectives.sparse.TreeWire` prices each
        leaf/partial message at its sparse encoded size (a recovered
        sender re-sends at that size).
        """
        plan = self._plan_communication(
            wire, self.tree, "tree_aggregate", model_size, redo_seconds,
            messages_per_executor=messages_per_executor)
        return self._run_plan(plan, step, "aggregate", "tree_aggregate")

    def driver_update_phase(self, seconds: float, step: int) -> float:
        """The driver applies an update while every executor waits."""
        if seconds < 0:
            raise ValueError("update seconds must be non-negative")
        start = self.now
        end = start + seconds
        if seconds > 0:
            self.trace.add(DRIVER_LABEL, start, end, "update", step)
            for label in self.labels:
                self.trace.add(label, start, end, "wait", step)
        self.now = end
        return seconds

    def broadcast_phase(self, model_size: int, step: int) -> float:
        """Driver ships the size-``m`` model to all executors.

        The driver's uplink sends the ``k`` copies back to back: the same
        serialized ``k`` transfers as a fan-in into one node, the linear
        growth in ``k`` visible in the paper's Figure 3(a).
        """
        duration = self.cluster.network.fan_in_seconds(
            self.num_executors, model_size)
        start = self.now
        end = start + duration
        if duration > 0:
            self.trace.add(DRIVER_LABEL, start, end, "send", step)
            per_copy = duration / max(1, self.num_executors)
            for i, label in enumerate(self.labels):
                # Serial broadcast drains copies one executor at a time,
                # producing the staircase visible in the paper's chart.
                recv_start = start + i * per_copy
                recv_end = recv_start + per_copy
                self._wait_fill(label, start, recv_start, step)
                self.trace.add(label, recv_start, min(recv_end, end), "recv",
                               step)
                self._wait_fill(label, recv_end, end, step)
        self.now = end
        return duration

    # ------------------------------------------------------------------
    # MLlib* shuffle-based collective phases
    # ------------------------------------------------------------------
    def _all_to_all_phase(self, model_size: int, step: int, phase: str,
                          combine_coords: float,
                          redo_seconds: list[float] | None = None,
                          wire: WirePlanner | None = None) -> float:
        """One shuffle round: every executor exchanges model pieces.

        Each executor sends ``k - 1`` messages of ``m / k`` coordinates on
        its own uplink (concurrently with its peers) and then optionally
        combines received pieces (``combine_coords`` dense coordinate ops,
        straggler-free since it is tiny).

        A :class:`~repro.collectives.sparse.CommStats` wire prices each
        executor's sends at their encoded sizes (``wire.per_sender[i]``).
        A crash here is the costly AllReduce failure mode: the owner's
        received pieces die with it, so recovery redoes the owner's local
        work (``redo_seconds``), then **all peers re-send their pieces**
        — a ``k - 1`` serialized fan-in into the recovered node — before
        the combine is redone (the refill stays dense-priced: recovered
        state is re-shipped conservatively).  The closing barrier stalls
        every peer until the owner catches up.  Under a hierarchical wire
        the round keeps this refill recovery; a switch re-streams.
        """
        self.shuffle.check_owners(model_size, self.num_executors, phase)
        plan = self._plan_communication(
            wire, self.shuffle, phase, model_size, redo_seconds,
            combine_coords=combine_coords)
        return self._run_plan(plan, step, phase, phase)

    def reduce_scatter_phase(self, model_size: int, step: int,
                             redo_seconds: list[float] | None = None,
                             wire: WirePlanner | None = None) -> float:
        """MLlib* phase 1: route partitions to owners and average them."""
        k = self.num_executors
        combine = model_size / k * k  # owner sums k pieces of its partition
        return self._all_to_all_phase(model_size, step, "reduce_scatter",
                                      combine, redo_seconds, wire=wire)

    def all_gather_phase(self, model_size: int, step: int,
                         redo_seconds: list[float] | None = None,
                         wire: WirePlanner | None = None) -> float:
        """MLlib* phase 2: owners broadcast their averaged partition."""
        return self._all_to_all_phase(model_size, step, "all_gather", 0.0,
                                      redo_seconds, wire=wire)

    # ------------------------------------------------------------------
    def checkpoint_phase(self, model_size: int, step: int) -> float:
        """Every executor writes its recovery state to stable storage.

        Priced as one size-``m`` transfer per executor (concurrent on
        their own links).  Future crash restores read the checkpoint back
        at the same cost instead of recomputing lineage.
        """
        duration = self.cluster.network.transfer_seconds(model_size)
        start = self.now
        end = start + duration
        if duration > 0:
            for label in self.labels:
                self.trace.add(label, start, end, "checkpoint", step)
            self._wait_fill(DRIVER_LABEL, start, end, step)
        self._crashes.checkpoint_seconds = duration
        self.now = end
        return duration
