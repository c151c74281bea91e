"""Distributed trainer base class and result container.

Every system in the study — MLlib, MLlib + model averaging, MLlib*,
Petuum, Petuum* and Angel — extends :class:`DistributedTrainer`.  The base
class owns the training loop skeleton shared by Algorithm 2 and
Algorithm 3:

1. partition the data across workers (``LoadData``),
2. initialize the global model (``InitialModel``),
3. repeat communication steps until convergence or the step cap,
4. after every step, evaluate the full-dataset objective (the paper's
   y-axis) against the *simulated* clock (the paper's x-axis).

Subclasses implement :meth:`_prepare` (engine/state construction) and
:meth:`_run_step` (one communication step: local work + communication,
returning the new global model).  Objective evaluation is monitoring and
costs no simulated time.  The loop itself is :class:`TrainingSession`,
which ``fit`` drains and the :mod:`repro.sched` scheduler pauses at
barriers.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..analysis.sanitizer import BarrierSanitizer
from ..cluster import ClusterSpec, Trace
from ..cluster.faults import (FailureRecord, RecoveryPolicy,
                              build_failure_model)
from ..data import SparseDataset
from ..collectives import Topology, open_topology
from ..engine import (BspEngine, CommRecord, PartitionedDataset,
                      TreeAggregateModel)
from ..engine.backend import ExecutionBackend, SerialBackend, make_backend
from ..glm import GLMModel, LocalStats, Objective, get_schedule
from ..metrics import TrainingHistory
from ..perf.profiler import NullProfiler, PhaseProfiler
from .config import TrainerConfig
from .worker import run_dual_on_partition, send_model_task

__all__ = ["GapRecord", "TrainResult", "TrainingSession",
           "DistributedTrainer"]


@dataclass(frozen=True)
class GapRecord:
    """One certified duality-gap evaluation (dual local solvers only).

    ``gap = primal - dual`` upper-bounds the primal suboptimality
    ``P(w) - P(w*)`` by weak duality — a convergence *certificate* the
    run carries alongside the training history's objective values.
    Monitoring only: evaluated in the parent at the history's cadence,
    costing no simulated time.
    """

    step: int
    seconds: float
    gap: float
    primal: float
    dual: float


@dataclass(frozen=True)
class TrainResult:
    """Everything a training run produced."""

    model: GLMModel
    history: TrainingHistory
    trace: Trace
    converged: bool
    diverged: bool
    #: Injected executor crashes the run recovered from (empty unless
    #: fault injection was configured).
    failures: tuple[FailureRecord, ...] = ()
    #: Wire accounting, one record per priced communication phase (empty
    #: for trainers without a comm-recording engine).
    comm: tuple[CommRecord, ...] = ()
    #: Certified duality-gap report, one record per evaluated step
    #: (empty unless a dual local solver — cocoa/cocoa+ — ran).
    duality_gaps: tuple[GapRecord, ...] = ()

    @property
    def final_objective(self) -> float:
        return self.history.final_objective

    @property
    def recovery_seconds(self) -> float:
        """Total failure-recovery downtime across all nodes."""
        return self.trace.recovery_seconds()

    @property
    def comm_seconds(self) -> float:
        """Total priced communication seconds across recorded phases."""
        return sum(r.seconds for r in self.comm)

    @property
    def comm_compression(self) -> float:
        """Overall dense-over-wire volume ratio of the run."""
        wire = sum(r.wire_values for r in self.comm)
        if wire <= 0:
            return 1.0
        return sum(r.dense_values for r in self.comm) / wire


class DistributedTrainer:
    """Template for distributed MGD systems.

    A BSP/PS trainer's ``_run_step`` is "local round -> price it -> its
    own communication".  :meth:`_local_round` is the one place a
    superstep's per-worker tasks are dispatched and their results — and
    the worker state that round-trips with them (RNG streams, dual
    blocks; both rebuilt per session) — come back;
    :meth:`_send_model_round` is that round for the SendModel trainers.

    Parameters
    ----------
    objective:
        The GLM objective (loss + regularizer) to minimize.
    cluster:
        Simulated cluster the system runs on.
    config:
        Hyperparameters and run control.
    """

    #: Human-readable system name, overridden by subclasses.
    system = "abstract"

    #: Config fields the system cannot honour, each mapped to the one
    #: value it runs as; :meth:`check_supported` rejects any other value by
    #: name instead of silently running as that value.  Only MLlib runs
    #: waves of tasks per executor, and only the SendModel trainers
    #: (MLlib*, MLlib+MA) the dual CoCoA family.
    fixed_fields: dict[str, object] = {"tasks_per_executor": 1,
                                       "local_solver": "mgd"}

    #: Whether the run partitions the model across its executors as
    #: AllReduce owners, which needs one coordinate per executor.
    allreduce_owners = False

    #: The session's collective topology (BSP trainers only; opened with
    #: the engine by :meth:`_open_bsp_engine`).
    _topology: Topology

    def __init__(self, objective: Objective, cluster: ClusterSpec,
                 config: TrainerConfig | None = None) -> None:
        self.objective = objective
        self.cluster = cluster
        self.config = config if config is not None else TrainerConfig()
        self.schedule = get_schedule(self.config.lr_schedule,
                                     self.config.learning_rate)
        #: Fault-injection model and recovery policy derived from the
        #: config; engines consult them so failures stretch the simulated
        #: clock without ever touching the numerics.  Validated against
        #: the cluster size here: a scripted crash aimed at an executor
        #: the cluster does not have raises instead of never firing.
        self.faults = build_failure_model(
            self.config.failure_rate, self.config.failure_schedule,
            self.config.seed, num_executors=cluster.num_executors)
        self.recovery = RecoveryPolicy(
            max_retries=self.config.max_retries,
            checkpoint_every=self.config.checkpoint_every,
            restart_seconds=self.config.restart_seconds)
        #: Barrier sanitizer (``--sanitize``): freezes the model at every
        #: superstep boundary and logs barrier digests.  Disabled (all
        #: hooks no-ops) unless ``config.sanitize`` is set.
        self.sanitizer = BarrierSanitizer(enabled=self.config.sanitize)
        #: Execution backend for the per-worker local solves
        #: (``config.backend``), built per ``fit``; after it, an empty
        #: serial stub that holds no partition.
        self._backend: ExecutionBackend = SerialBackend()
        #: Wall-clock profiler hook (:mod:`repro.perf.profiler`); install
        #: a ``PhaseProfiler`` before ``fit`` to collect phase timings.
        self.profiler: PhaseProfiler = NullProfiler()
        #: Per-worker RNG streams, rebuilt by every ``TrainingSession``;
        #: tasks hand them back advanced (see :meth:`_local_round`).
        self._rngs: list[np.random.Generator] = []
        #: Per-worker dual blocks (one array of dual variables per
        #: partition row) when a dual local solver is active; ``None``
        #: under the primal default.  Round-tripped through the task
        #: functions exactly like the RNG streams, so dual state lives
        #: in the parent and runs stay bit-identical across backends.
        self._duals: list[np.ndarray] | None = None
        self._dual_spec = None
        #: Measured transport accounting of the last closed ``socket``
        #: session (else ``None``), which ``repro perf`` compares with the
        #: simulated :class:`NetworkModel` pricing.
        self.last_wire_stats: dict | None = None

    # ------------------------------------------------------------------
    # subclass contract
    # ------------------------------------------------------------------
    def _prepare(self, data: PartitionedDataset) -> None:
        """Build engine/state for a run.  Called once per ``fit``."""
        raise NotImplementedError

    def _run_step(self, step: int, w: np.ndarray,
                  data: PartitionedDataset) -> np.ndarray:
        """Execute communication step ``step`` (1-based); return new model."""
        raise NotImplementedError

    def _engine_started(self):
        engine = getattr(self, "_engine", None)
        assert engine is not None, "fit() not started"
        return engine

    def _clock(self) -> float:
        """Current simulated time (the engine's clock; engine-less
        trainers override)."""
        return self._engine_started().now

    def _trace(self) -> Trace:
        """The trace collected so far."""
        return self._engine_started().trace

    def _on_initial_model(self, w: np.ndarray,
                          data: PartitionedDataset) -> None:
        """Hook invoked once with the initial model (after ``_prepare``).

        Trainers that keep internal per-worker state seeded from the
        initial model (e.g. the asynchronous trainer) override this; the
        default is a no-op because most trainers receive the model through
        ``_run_step``.
        """

    def _failures(self) -> list[FailureRecord]:
        """Crash records collected by the engine (empty without one)."""
        engine = getattr(self, "_engine", None)
        return list(getattr(engine, "failures", []))

    def _comm_records(self) -> list[CommRecord]:
        """Comm accounting collected by the engine (empty without one)."""
        engine = getattr(self, "_engine", None)
        return list(getattr(engine, "comm_records", []))

    def _checkpoint_phase(self, step: int, model_size: int) -> None:
        """Write a recovery checkpoint (engines price it).  A no-op
        without an engine: the event-driven async trainer rejects
        ``checkpoint_every`` up front, and the scheduler's preemption
        checkpoint of an async job costs nothing."""
        engine = getattr(self, "_engine", None)
        if engine is not None:
            engine.checkpoint_phase(model_size, step)

    def _open_bsp_engine(self, data: PartitionedDataset,
                         tree: TreeAggregateModel | None = None,
                         ) -> BspEngine:
        """Build a run's BSP engine with its recovery costs, and open the
        collective topology (``config.collective``) that will price the
        run's exchanges on it."""
        engine = BspEngine(self.cluster, tree=tree, faults=self.faults,
                           recovery=self.recovery)
        self._install_recovery_costs(engine, data)
        self._topology = open_topology(
            self.config, self.cluster,
            engine.tree.plan(data.num_partitions))
        if self.allreduce_owners:
            engine.shuffle.check_owners(data.n_features,
                                        data.num_partitions, "AllReduce")
        return engine

    def _install_recovery_costs(self, engine,
                                data: PartitionedDataset) -> None:
        """Price lineage recomputation of each executor's cached partition
        (one sparse pass) for the engine's crash-recovery accounting."""
        engine.set_recovery_costs([
            self.cluster.compute.sparse_pass_seconds(
                part.nnz, self.cluster.executors[i])
            for i, part in enumerate(data.partitions)])

    # ------------------------------------------------------------------
    def _init_dual_state(self, data: PartitionedDataset) -> None:
        """Build the run's dual state when a dual solver is configured.

        Called by every ``TrainingSession``: resolves the
        :class:`~repro.glm.dual.DualSolverSpec` (family defaults for
        gamma, ``sigma' = gamma * K``) and zero-initializes one dual
        block per partition.  ``alpha = 0`` is feasible for every
        conjugate, so the first certificate is valid from step 0.
        Resets to ``None`` under the primal default so a trainer reused
        across configs never reports a stale gap.
        """
        from ..glm import make_dual_spec, require_dual_capable
        if self.config.local_solver == "mgd":
            self._duals = None
            self._dual_spec = None
            return
        require_dual_capable(self.objective)
        self._dual_spec = make_dual_spec(
            self.config.local_solver, self.config.gamma,
            self.config.local_iters, data.dataset.X.shape[0],
            data.num_partitions)
        self._duals = [np.zeros(part.n_rows) for part in data.partitions]

    def _certified_gap(self, w: np.ndarray, data: PartitionedDataset,
                       ) -> tuple[float, float, float] | None:
        """``(gap, primal, dual)`` for the current iterate, or ``None``
        when no dual solver is active.  Parent-side and unpriced, so it
        is backend-invariant monitoring like the objective evaluation."""
        if self._duals is None:
            return None
        from ..glm import certified_gap
        return certified_gap(self.objective, w, data.partitions,
                             self._duals, data.dataset)

    # ------------------------------------------------------------------
    def _worker_rngs(self, num_workers: int) -> list[np.random.Generator]:
        """Independent, reproducible per-worker RNG streams."""
        root = np.random.SeedSequence(self.config.seed)
        return [np.random.default_rng(s) for s in root.spawn(num_workers)]

    def _batch_size(self, partition_rows: int) -> int:
        """Mini-batch rows for a partition under ``batch_fraction``."""
        return max(1, int(round(self.config.batch_fraction * partition_rows)))

    def _compute_seconds(self, nnz_processed: int, dense_ops: int,
                         executor_index: int) -> float:
        """Price local work on executor ``executor_index``."""
        node = self.cluster.executors[executor_index]
        cm = self.cluster.compute
        return (cm.sparse_pass_seconds(nnz_processed, node)
                + cm.dense_op_seconds(dense_ops, node))

    def _stats_seconds(self, stats: LocalStats, i: int) -> float:
        """Price the work executor ``i``'s local-solve task reported."""
        return self._compute_seconds(stats.nnz_processed, stats.dense_ops, i)

    # ------------------------------------------------------------------
    def _local_round(self, task: Callable[..., tuple],
                     args_for: Callable[[int], tuple],
                     data: PartitionedDataset) -> list[tuple]:
        """One superstep's local solves, one task per partition.

        Worker ``i`` runs ``task(partition_i, *args_for(i), rng_i)`` on
        the execution backend.  Every task hands its generator back as
        the last element of its result; it is kept for the next round
        and the rest of each result is returned, in partition order.
        """
        results = self._backend.map_partitions(
            task, [(*args_for(i), self._rngs[i])
                   for i in range(data.num_partitions)])
        self._rngs = [result[-1] for result in results]
        return [result[:-1] for result in results]

    def _send_model_round(self, step: int, w: np.ndarray,
                          data: PartitionedDataset,
                          ) -> tuple[list[np.ndarray], list[float]]:
        """The SendModel local round: one m-vector per executor and the
        priced seconds it took.

        Primal (``mgd``): local SGD passes from ``w``; the vector is the
        executor's local *model*, to be averaged.  Dual (``cocoa`` /
        ``cocoa+``): H SDCA epochs over the executor's dual block; the
        vector is a gamma-scaled model *delta*, to be summed onto ``w``,
        and the committed dual blocks are kept for the next round like
        the RNGs.
        """
        if self._duals is None:
            lr = self.schedule.at(step)
            results = self._local_round(
                send_model_task,
                lambda i: (w, self.objective, lr, self.config), data)
        else:
            duals = self._duals
            results = self._local_round(
                run_dual_on_partition,
                lambda i: (w, self.objective, self._dual_spec, duals[i]),
                data)
            self._duals = [alpha for _, alpha, _ in results]
        return ([result[0] for result in results],
                [self._stats_seconds(result[-1], i)
                 for i, result in enumerate(results)])

    # ------------------------------------------------------------------
    def check_supported(self) -> None:
        """Raise ``ValueError`` naming the config this system cannot run."""
        unsupported = [f"{name}={getattr(self.config, name)!r}"
                       for name, value in self.fixed_fields.items()
                       if getattr(self.config, name) != value]
        if unsupported:
            raise ValueError(
                f"{self.system} does not support {', '.join(unsupported)}"
                "; it runs only as " + ", ".join(
                    f"{name}={value!r}"
                    for name, value in self.fixed_fields.items()))

    def open_session(self, dataset: SparseDataset,
                     partition_strategy: str = "random",
                     initial_weights: np.ndarray | None = None, *,
                     start_step: int = 0,
                     history: TrainingHistory | None = None,
                     clock_offset: float = 0.0) -> "TrainingSession":
        """Partition ``dataset``, build the backend, and open a stepwise
        :class:`TrainingSession`.

        The keyword-only parameters exist for *resumed* runs (the
        :mod:`repro.sched` elastic scheduler re-opens a job at a new
        executor width from its barrier state): ``start_step`` continues
        absolute step numbering (so learning-rate schedules see the same
        step indices as an uninterrupted run), ``history`` carries the
        earlier segments' convergence points, and ``clock_offset`` is the
        simulated seconds already consumed — the fresh engine's clock is
        reported relative to it.  Defaults describe a run from scratch.
        """
        self.check_supported()
        data = PartitionedDataset.load(dataset, self.cluster,
                                       strategy=partition_strategy,
                                       seed=self.config.seed)
        # This run's pool: partitions installed once, torn down by
        # ``TrainingSession.close``.  The except path covers *every*
        # failure from pool creation through session construction —
        # including a partial ``install_partitions`` (half-started
        # daemons, an allocated shared-memory store) — so no worker
        # processes, threads or shm segments leak when opening raises.
        backend = make_backend(self.config.backend)
        backend.profiler = self.profiler
        try:
            backend.install_partitions(data.partitions)
            self._backend = backend
            return TrainingSession(self, dataset, data, initial_weights,
                                   start_step=start_step, history=history,
                                   clock_offset=clock_offset)
        except BaseException:
            backend.close()
            self._backend = SerialBackend()
            raise

    def fit(self, dataset: SparseDataset,
            partition_strategy: str = "random",
            initial_weights: np.ndarray | None = None) -> TrainResult:
        """Train on ``dataset``; returns model + history + trace.

        ``initial_weights`` warm-starts from a previous model (e.g.
        ``previous_result.model.weights``) instead of the zero vector —
        Algorithm 2's ``InitialModel(w0)`` with a non-trivial ``w0``.
        """
        session = self.open_session(dataset, partition_strategy,
                                    initial_weights)
        try:
            while not session.finished:
                session.run_step()
            return session.result()
        finally:
            session.close()


class TrainingSession:
    """One training run, advanced a superstep at a time.

    A session pauses at every superstep barrier: ``run_step()`` executes
    exactly one communication step (plus the checkpoint/eval bookkeeping
    the ``fit`` loop would do there) and returns.  Draining a session is
    *the* ``fit`` implementation — not a reimplementation of it — so a
    run interleaved with other jobs by the cluster scheduler performs the
    identical operation sequence, and fixed-width scheduled runs are
    bit-identical to standalone ones by construction.

    Sessions are created by :meth:`DistributedTrainer.open_session`; see
    its docstring for the resume parameters (``start_step`` / ``history``
    / ``clock_offset``).  ``close()`` tears down the execution backend;
    the owner must call it (``fit`` does so in a ``finally``).
    """

    def __init__(self, trainer: DistributedTrainer, dataset: SparseDataset,
                 data: PartitionedDataset,
                 initial_weights: np.ndarray | None, *,
                 start_step: int = 0,
                 history: TrainingHistory | None = None,
                 clock_offset: float = 0.0) -> None:
        config = trainer.config
        if not 0 <= start_step <= config.max_steps:
            raise ValueError(
                f"start_step must be in [0, max_steps={config.max_steps}]; "
                f"got {start_step}")
        if clock_offset < 0:
            raise ValueError("clock_offset must be non-negative")
        if start_step > 0 and initial_weights is None:
            raise ValueError("resuming from a nonzero step needs the "
                             "barrier weights to resume from")
        self.trainer = trainer
        self.dataset = dataset
        self.data = data
        self.clock_offset = clock_offset
        self.step = start_step
        self.converged = False
        self.diverged = False
        self._closed = False

        trainer._rngs = trainer._worker_rngs(data.num_partitions)
        trainer._init_dual_state(data)
        trainer._prepare(data)
        if initial_weights is None:
            w = np.zeros(dataset.n_features)
        else:
            if initial_weights.shape != (dataset.n_features,):
                raise ValueError(
                    f"initial_weights has shape {initial_weights.shape}, "
                    f"expected ({dataset.n_features},)")
            w = np.array(initial_weights, dtype=np.float64, copy=True)
        # Under --sanitize the model handed to workers is read-only; any
        # in-place mutation of broadcast state raises at the faulting
        # line instead of silently coupling workers.
        w = trainer.sanitizer.freeze(w)
        trainer.sanitizer.record_barrier(start_step, w)
        trainer._on_initial_model(w, data)
        self.w = w
        if history is None:
            history = TrainingHistory(system=trainer.system,
                                      dataset=dataset.name,
                                      detail=trainer.objective.describe())
        self.history = history
        #: Certified duality-gap report (dual solvers only), one
        #: :class:`GapRecord` per evaluated step.
        self.gaps: list[GapRecord] = []
        if start_step == 0:
            with trainer.profiler.phase("evaluate"):
                objective_value = trainer.objective.value(w, dataset.X,
                                                          dataset.y)
            history.record(0, self.clock(), objective_value)
            self._record_gap(0)

    def _record_gap(self, step: int) -> None:
        """Append the dual certificate at ``step`` (no-op for primal)."""
        gap_info = self.trainer._certified_gap(self.w, self.data)
        if gap_info is not None:
            gap, primal, dual = gap_info
            self.gaps.append(GapRecord(step=step, seconds=self.clock(),
                                       gap=gap, primal=primal, dual=dual))

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """True once the step cap, convergence, or divergence is hit."""
        return (self.converged or self.diverged
                or self.step >= self.trainer.config.max_steps)

    def clock(self) -> float:
        """Job-relative simulated time (earlier segments included)."""
        return self.clock_offset + self.trainer._clock()

    def run_step(self) -> int:
        """Advance one superstep; returns the (absolute) step executed."""
        if self._closed:
            raise RuntimeError("training session is closed")
        if self.finished:
            raise RuntimeError("training session already finished")
        trainer = self.trainer
        config = trainer.config
        step = self.step + 1
        with trainer.profiler.phase("superstep"):
            w = trainer._run_step(step, self.w, self.data)
        w = trainer.sanitizer.freeze(w)
        trainer.sanitizer.record_barrier(step, w)
        self.w = w
        self.step = step
        is_last = step == config.max_steps
        if (trainer.recovery.writes_checkpoints and not is_last
                and step % trainer.recovery.checkpoint_every == 0):
            trainer._checkpoint_phase(step, self.dataset.n_features)
        if step % config.eval_every and not is_last:
            return step
        with trainer.profiler.phase("evaluate"):
            objective_value = trainer.objective.value(w, self.dataset.X,
                                                      self.dataset.y)
        self.history.record(step, self.clock(), objective_value)
        self._record_gap(step)
        if (not math.isfinite(objective_value)
                or objective_value > config.divergence_limit):
            self.diverged = True
        else:
            threshold = config.stop_threshold
            if threshold is not None and objective_value <= threshold:
                self.converged = True
        return step

    def result(self) -> TrainResult:
        """Package the session's current state as a :class:`TrainResult`."""
        trainer = self.trainer
        model = GLMModel(weights=self.w, objective=trainer.objective)
        return TrainResult(model=model, history=self.history,
                           trace=trainer._trace(),
                           converged=self.converged, diverged=self.diverged,
                           failures=tuple(trainer._failures()),
                           comm=tuple(trainer._comm_records()),
                           duality_gaps=tuple(self.gaps))

    def close(self) -> None:
        """Tear down the execution backend (idempotent)."""
        if self._closed:
            return
        self._closed = True
        trainer = self.trainer
        # Harvest measured transport accounting (socket backend) before
        # the pool disappears behind the serial stub.
        trainer.last_wire_stats = trainer._backend.wire_summary()
        trainer._backend.close()
        trainer._backend = SerialBackend()
