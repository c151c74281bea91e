"""Trainer configuration shared by all systems.

One config object covers every trainer; fields that a given paradigm does
not use are simply ignored (e.g. ``batch_fraction`` drives SendGradient
batch sampling and PS batch sizes, while SendModel trainers use
``local_epochs`` and ``local_chunk_size``).  The paper tunes batch size and
learning rate per (system, dataset) by grid search; the benches do a small
grid over these fields.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cluster.faults import RecoveryPolicy
from ..collectives import COLLECTIVES, SPARSE_COMM_MODES
from ..engine.backend import BACKENDS
from ..glm import DUAL_SOLVERS, SCHEDULES

__all__ = ["TrainerConfig", "LOCAL_SOLVERS"]

#: Valid ``TrainerConfig.local_solver`` values: primal MGD, then the duals.
LOCAL_SOLVERS = ("mgd",) + DUAL_SOLVERS


@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters and run control for distributed MGD.

    Parameters
    ----------
    learning_rate:
        Base step size (eta).
    lr_schedule:
        ``constant``, ``inv_sqrt`` (MLlib's default decay) or ``inv_time``.
    batch_fraction:
        Mini-batch size as a fraction of each worker's partition
        (MLlib's ``miniBatchFraction``; also Petuum/Angel batch size).
    local_epochs:
        SendModel only: local passes over the partition per communication
        step (the ``T'`` of Algorithm 2).
    local_chunk_size:
        SendModel only: examples per local SGD update.  1 is textbook
        per-example SGD; larger values vectorize the same schedule.
    lazy_l2:
        L2 decay in local SGD: on, the Bottou lazy/scaled representation
        (Section IV-B1); off (``--eager-l2``), dense decay every update —
        the ablation bench's slower eager mode.
    max_steps:
        Hard cap on communication steps.
    eval_every:
        Evaluate the full-dataset objective every this many steps
        (monitoring only; costs no simulated time).  The final step is
        always evaluated.  Raise this for systems that take thousands of
        cheap steps (MLlib, Petuum) to keep host-side runtime down.
    tasks_per_executor:
        Waves of tasks per executor in SendGradient trainers
        (Section V-C).  Each wave pays a task-launch overhead and ships
        its own gradient into the aggregation; the paper found 1 optimal.
    stop_threshold:
        Stop early once the full-dataset objective is at or below this
        value (None disables early stopping).
    divergence_limit:
        Abort when the objective exceeds this value (catches model
        summation blowing up).
    seed:
        Seed for batch sampling / shuffling; runs are deterministic.
    failure_rate:
        Per-(step, executor) crash probability (0 disables fault
        injection).  Draws are seeded and order-independent; see
        :class:`repro.cluster.faults.RandomFailures`.
    failure_schedule:
        Scripted failures, e.g. ``"3@12"`` (executor 3 dies at step 12),
        ``"1@5:reduce_scatter"``, ``"0@2x5"`` (five crashes in a row).
        See :func:`repro.cluster.faults.parse_failure_schedule`.
    max_retries:
        Recoveries allowed per crash site before the run is declared
        lost with :class:`repro.cluster.faults.RecoveryError`.
    checkpoint_every:
        Steps between checkpoint writes; recoveries restore from the
        latest one.  0 (the default) writes none and recovers by Spark
        lineage recompute.
    restart_seconds:
        Fixed executor restart/reschedule delay paid per recovery.
    sanitize:
        Enable the barrier sanitizer: broadcast/pulled model arrays are
        frozen (``ndarray.setflags(write=False)``) at superstep
        boundaries so in-place mutation of shared state raises at the
        faulting line, and barrier-time digests verify model replicas
        stay bit-identical.  Monitoring only — a clean run is
        bit-identical with or without it.  See
        :mod:`repro.analysis.sanitizer`.
    sparse_comm:
        Communication wire format: ``off`` (the paper's dense ``2 k m``
        exchange — the default, keeping priced seconds bit-identical to
        the dense engine), ``auto`` (SparCML-style index/value encoding
        per message whenever ``nnz < m / 2``), or ``on`` (force sparse
        encoding, useful to demonstrate the crossover).  Sparsity changes
        priced communication cost only, never the numerics — iterates are
        bit-identical across all three modes.  See
        :mod:`repro.collectives.sparse`.
    backend:
        Host-side execution backend for the per-worker local solves:
        ``serial`` (in-process reference loop), ``shm`` (process pool
        over shared-memory CSR shards with a zero-copy broadcast arena)
        or ``socket`` (long-lived worker daemons over localhost TCP
        whose bytes-on-wire and wall seconds are measured for
        ``repro perf``).  A *wall-clock* knob only: every backend
        produces bit-identical iterates, histories and simulated
        seconds (fixed per-worker RNG streams, fixed combine order).  See :mod:`repro.engine.backend` and
        ``docs/performance.md``.
    collective:
        Aggregation topology: ``flat`` (the paper's shuffle AllReduce /
        treeAggregate — the default, bit-identical to the seed pricing),
        ``hier`` (two-tier intra-node combine + cross-node exchange over
        ``ClusterSpec.placement``) or ``switch`` (SwitchML-style
        in-network aggregation with a bounded slot pool).  A *pricing*
        knob only: every topology runs the same flat combine kernels, so
        iterates are bit-identical across all three.  BSP systems only:
        the parameter-server systems (Petuum, Petuum*, Angel, ASGD)
        reject anything but ``flat``.  See ``docs/communication.md``.
    switch_slots:
        ``switch`` only: aggregation slots in the switch register pool.
        Vectors needing more chunks than slots stream in multiple
        rounds, paying one extra latency per stall.
    switch_chunk:
        ``switch`` only: values per in-flight chunk in the switch pool.
    local_solver:
        SendModel local-solve family: ``mgd`` (the paper's primal
        minibatch-gradient passes — the default, bit-identical to the
        seed) or the dual coordinate-ascent family ``cocoa`` /
        ``cocoa+`` (SDCA epochs over each partition's dual variables;
        workers ship gamma-scaled model *deltas* that are summed, and a
        certified duality gap is reported per evaluation).  Requires L2
        regularization and a loss with an implemented conjugate.  See
        :mod:`repro.glm.dual` and ``docs/algorithms.md``.
    gamma:
        Dual solvers only: outer aggregation weight applied to every
        worker's delta (and, identically, to its retained dual block).
        ``None`` picks the family default — ``1/K`` (averaging) for
        ``cocoa``, ``1`` (adding) for ``cocoa+``.  The local subproblem
        scaling ``sigma' = gamma * K`` keeps any choice in ``(0, 1]``
        safe.
    local_iters:
        Dual solvers only: the local-iteration budget ``H`` — SDCA
        passes over the worker's dual block per communication step (the
        compute-vs-communication lever of Duenner et al.).
    """

    learning_rate: float = 0.1
    lr_schedule: str = "constant"
    batch_fraction: float = 0.01
    local_epochs: int = 1
    local_chunk_size: int = 32
    lazy_l2: bool = True
    max_steps: int = 100
    eval_every: int = 1
    tasks_per_executor: int = 1
    stop_threshold: float | None = None
    divergence_limit: float = 1.0e6
    seed: int = 0
    failure_rate: float = 0.0
    failure_schedule: str | None = None
    max_retries: int = 2
    checkpoint_every: int = 0
    restart_seconds: float = 1.0
    sanitize: bool = False
    sparse_comm: str = "off"
    backend: str = "serial"
    collective: str = "flat"
    switch_slots: int = 512
    switch_chunk: int = 256
    local_solver: str = "mgd"
    gamma: float | None = None
    local_iters: int = 1

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.lr_schedule not in SCHEDULES:
            raise ValueError(f"lr_schedule must be one of {SCHEDULES}, got "
                             f"{self.lr_schedule!r}")
        if not 0 < self.batch_fraction <= 1:
            raise ValueError("batch_fraction must be in (0, 1]")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be at least 1")
        if self.local_chunk_size < 1:
            raise ValueError("local_chunk_size must be at least 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be at least 1")
        if self.tasks_per_executor < 1:
            raise ValueError("tasks_per_executor must be at least 1")
        if self.divergence_limit <= 0:
            raise ValueError("divergence_limit must be positive")
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")
        # The recovery fields' own checks (same messages).
        RecoveryPolicy(self.max_retries, self.checkpoint_every,
                       self.restart_seconds)
        if self.sparse_comm not in SPARSE_COMM_MODES:
            raise ValueError("sparse_comm must be 'auto', 'on' or 'off'")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got "
                             f"{self.backend!r}")
        if self.collective not in COLLECTIVES:
            raise ValueError("collective must be 'flat', 'hier' or "
                             "'switch'")
        if self.switch_slots < 1:
            raise ValueError("switch_slots must be at least 1")
        if self.switch_chunk < 1:
            raise ValueError("switch_chunk must be at least 1")
        if self.local_solver not in LOCAL_SOLVERS:
            raise ValueError("local_solver must be 'mgd', 'cocoa' or "
                             "'cocoa+'")
        if self.gamma is not None and not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.local_iters < 1:
            raise ValueError("local_iters must be at least 1")

    def with_overrides(self, **kwargs) -> "TrainerConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
