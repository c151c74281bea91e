"""Parameter-server execution timeline and the PS trainers' one step.

:class:`PsEngine` plays the role :class:`~repro.engine.driver.BspEngine`
plays for Spark-style systems: it advances simulated per-worker clocks,
applies the consistency controller's admission rule, prices pull/push
communication, and emits trace spans.

Unlike BSP, workers do not share a single barrier: under SSP a fast worker
may start its next step while a straggler is still finishing (bounded by
the staleness), and under ASP it never waits.  The timestamp reported for a
logical step — the moment the step's model state is fully at the servers —
is the maximum finish time across workers for that step.

Communication pricing per worker and step (pull the full model + push a
full update, :func:`pull_push_seconds`): the model is sharded one shard
per worker (the co-located deployment every PS system here runs), and
each of the ``k`` shards is contacted twice::

    comm = 2 * (k * alpha + m * bytes / bandwidth)

— close to the balanced all-to-all of AllReduce.

:class:`PsTrainer` is the step Petuum, Petuum* and Angel share (Section
III-B): pull the model, train locally, push, and let the servers combine.
"""

from __future__ import annotations

import numpy as np

from ..cluster import ClusterSpec, Trace
from ..cluster.faults import (CrashRecovery, FailureModel, FailureRecord,
                              RecoveryPolicy)
from ..collectives import ordered_sum
from ..collectives.sparse import wire_values
from ..core.trainer import DistributedTrainer
from ..engine import PartitionedDataset
from ..engine.driver import CommRecord
from ..glm import LocalStats
from .consistency import BSP, Controller

__all__ = ["PsEngine", "PsTrainer", "pull_push_seconds", "push_wire_values",
           "worker_label"]


def worker_label(index: int) -> str:
    """Human-readable label for PS worker ``index`` (0-based)."""
    return f"worker-{index + 1}"


def pull_push_seconds(cluster: ClusterSpec, model_size: int,
                      push_values: float | None = None) -> float:
    """Pull + push cost for one worker and one step (see module doc).

    ``push_values`` prices the push half at a sparse encoded size instead
    of the full model (the pull is always dense — a worker needs the
    whole model).  With ``push_values=None`` this is the symmetric dense
    formula.
    """
    net = cluster.network
    shards = cluster.num_executors
    pull = (shards * net.alpha
            + model_size * net.bytes_per_value / net.bandwidth)
    if push_values is None:
        return 2.0 * pull
    push = (shards * net.alpha
            + push_values * net.bytes_per_value / net.bandwidth)
    return pull + push


def push_wire_values(w: np.ndarray, locals_: list[np.ndarray],
                     mode: str) -> list[float] | None:
    """Sparse push sizes for SendModel workers (``None`` when dense).

    A SendModel worker pushes its delta against the pulled model; the
    delta's support is the set of coordinates local SGD touched.  Returns
    per-worker wire sizes under ``mode``, or ``None`` for ``'off'`` so
    the engine keeps the bit-identical dense formula.
    """
    if mode == "off":
        return None
    m = int(w.shape[0])
    return [wire_values(int(np.count_nonzero(local - w)), m, mode)
            for local in locals_]


class PsEngine:
    """Simulated timeline for parameter-server training.

    Parameters
    ----------
    cluster:
        Worker nodes are the cluster's executors; the driver node is not
        used (PS deployments have no Spark-style driver in the data path).
    controller:
        Consistency controller (BSP / SSP / ASP).
    """

    def __init__(self, cluster: ClusterSpec,
                 controller: Controller | None = None,
                 faults: FailureModel | None = None,
                 recovery: RecoveryPolicy | None = None) -> None:
        if cluster.num_executors < 1:
            raise ValueError("PS engine needs at least one worker")
        self.cluster = cluster
        self.num_workers = cluster.num_executors
        self.controller = controller if controller is not None else BSP()
        self.faults = faults if faults is not None else FailureModel()
        # Same guard as BspEngine: scripted crashes aimed at workers this
        # cluster does not have raise instead of never firing.
        self.faults.validate_executors(self.num_workers)
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        #: Wire accounting, one record per step (pull + push volumes).
        self.comm_records: list[CommRecord] = []
        self.trace = Trace()
        #: finish_times[r][t] — when worker r finished logical step t.
        self._finish_times: list[list[float]] = [
            [] for _ in range(self.num_workers)]
        self._steps_run = 0
        self.now = 0.0
        #: The crash/retry loop shared with BspEngine.  Unlike BSP, a
        #: crashed PS worker stalls only itself: peers keep running and
        #: the consistency controller decides how far they may advance
        #: before waiting on the laggard.
        self._crashes = CrashRecovery(self.faults, self.recovery,
                                      self.trace, self.num_workers)
        #: Materialized crashes, in simulated-time order.
        self.failures: list[FailureRecord] = self._crashes.failures
        cluster.reset_rng()

    # ------------------------------------------------------------------
    def set_recovery_costs(self, reload_seconds: list[float]) -> None:
        """Install the per-worker lineage-recompute cost used on crashes."""
        self._crashes.set_reload_costs(reload_seconds)

    # ------------------------------------------------------------------
    def comm_seconds(self, model_size: int,
                     push_values: float | None = None) -> float:
        """:func:`pull_push_seconds` on this engine's cluster."""
        return pull_push_seconds(self.cluster, model_size, push_values)

    def run_step(self, compute_seconds: list[float], model_size: int,
                 overhead_seconds: list[float] | None = None,
                 push_values: list[float] | None = None) -> float:
        """Advance every worker through one pull/compute/push step.

        ``compute_seconds[r]`` is worker ``r``'s unperturbed local compute
        time; ``overhead_seconds`` adds straggler-free per-worker overhead
        (Angel's per-batch allocation cost).  ``push_values[r]`` prices
        worker ``r``'s push at its sparse encoded size (see
        :meth:`comm_seconds`).  Returns the simulated time at which the
        step's global model is available.
        """
        if len(compute_seconds) != self.num_workers:
            raise ValueError(
                f"expected {self.num_workers} durations, "
                f"got {len(compute_seconds)}")
        overheads = (overhead_seconds if overhead_seconds is not None
                     else [0.0] * self.num_workers)
        if len(overheads) != self.num_workers:
            raise ValueError("overhead list length mismatch")
        if (push_values is not None
                and len(push_values) != self.num_workers):
            raise ValueError("push_values list length mismatch")
        if any(d < 0 for d in (*compute_seconds, *overheads)):
            raise ValueError("durations must be non-negative")

        t = self._steps_run
        dense_comm = self.comm_seconds(model_size)
        if push_values is None:
            comm_list = [dense_comm] * self.num_workers
        else:
            comm_list = [self.comm_seconds(model_size, push_values[r])
                         for r in range(self.num_workers)]
        self.comm_records.append(CommRecord(
            step=t, phase="ps_pull_push",
            dense_values=2.0 * model_size * self.num_workers,
            wire_values=float(sum(
                model_size + (model_size if push_values is None
                              else push_values[r])
                for r in range(self.num_workers))),
            seconds=max(comm_list, default=0.0),
            dense_seconds=dense_comm))
        finishes: list[float] = []
        for r in range(self.num_workers):
            own_ready = self._finish_times[r][-1] if self._finish_times[r] else 0.0
            peers = [self._finish_times[p]
                     for p in range(self.num_workers) if p != r]
            start = self.controller.release_time(t, own_ready, peers)
            label = worker_label(r)
            if start > own_ready + 1e-12:
                self.trace.add(label, own_ready, start, "wait", t)

            node = self.cluster.executors[r]
            work = (compute_seconds[r] * self.cluster.slowdown(node, t)
                    + overheads[r])
            lane = ((work, "compute", 0.0),)
            if self.faults.enabled:
                # Failure steps are 1-based everywhere; PS counts from 0
                # (spans and records keep the internal numbering so
                # trace invariants can join them).
                push_start = self._crashes.run(label, r, start, lane, lane,
                                               t, "compute", step_offset=1)
            else:
                push_start = self.trace.add_lane(label, start, lane, t)
            comm = comm_list[r]
            if comm > 0:
                self.trace.add(label, push_start, push_start + comm,
                               "send", t,
                               values=float(
                                   model_size
                                   + (model_size if push_values is None
                                      else push_values[r])))
            finish = push_start + comm
            self._finish_times[r].append(finish)
            finishes.append(finish)

        self._steps_run += 1
        step_ready = max(finishes)
        self.now = max(self.now, step_ready)
        return step_ready

    # ------------------------------------------------------------------
    def checkpoint_phase(self, model_size: int, step: int) -> float:
        """Every worker writes its recovery state to stable storage.

        Appended to each worker's own timeline (PS workers share no
        barrier); future crash restores read the checkpoint back at the
        same cost instead of recomputing lineage.
        """
        duration = self.cluster.network.transfer_seconds(model_size)
        t = max(0, self._steps_run - 1)
        for r in range(self.num_workers):
            last = (self._finish_times[r][-1]
                    if self._finish_times[r] else 0.0)
            if duration > 0:
                self.trace.add(worker_label(r), last, last + duration,
                               "checkpoint", t)
            if self._finish_times[r]:
                self._finish_times[r][-1] = last + duration
        self._crashes.checkpoint_seconds = duration
        self.now = max(self.now, max(
            (ft[-1] for ft in self._finish_times if ft), default=self.now))
        return duration


class PsTrainer(DistributedTrainer):
    """One pull/train/push step on a :class:`PsEngine`.

    A subclass supplies its local round (:meth:`_local_solves`), its
    consistency controller (``_controller``), the servers' combine and,
    for Angel, a per-worker overhead.  The workers pull the frozen
    barrier model ``w``; the combine runs in the parent, in worker order.
    """

    #: Workers pull and push through the parameter server, never a
    #: collective.
    fixed_fields = {"collective": "flat", "tasks_per_executor": 1,
                    "local_solver": "mgd"}

    _controller: Controller
    _engine: PsEngine | None = None

    def _prepare(self, data: PartitionedDataset) -> None:
        self._engine = PsEngine(self.cluster, controller=self._controller,
                                faults=self.faults, recovery=self.recovery)
        self._install_recovery_costs(self._engine, data)

    def _local_solves(self, w: np.ndarray, lr: float,
                      data: PartitionedDataset) -> list[tuple]:
        """One ``(local model, stats)`` per worker, trained from ``w``."""
        raise NotImplementedError

    def _overhead_seconds(self, stats: list[LocalStats],
                          model_size: int) -> list[float] | None:
        """Per-worker work beyond the local solve (none by default)."""
        return None

    def _combine(self, w: np.ndarray,
                 locals_: list[np.ndarray]) -> np.ndarray:
        """Model averaging: the servers average the pushed models."""
        return ordered_sum(locals_) / len(locals_)

    def _run_step(self, step: int, w: np.ndarray,
                  data: PartitionedDataset) -> np.ndarray:
        engine = self._engine
        assert engine is not None
        results = self._local_solves(w, self.schedule.at(step), data)
        locals_ = [local_w for local_w, _ in results]
        stats = [s for _, s in results]
        # Under --sparse-comm a worker's push (its delta against the
        # pulled model) is priced at the support local training touched.
        engine.run_step([self._stats_seconds(s, i)
                         for i, s in enumerate(stats)],
                        data.n_features,
                        overhead_seconds=self._overhead_seconds(
                            stats, data.n_features),
                        push_values=push_wire_values(
                            w, locals_, self.config.sparse_comm))
        return self._combine(w, locals_)
