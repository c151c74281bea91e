"""Job specifications and runtime job state for the cluster scheduler.

A :class:`JobSpec` is the immutable, JSON-round-trippable description a
user submits (``repro sched submit``): which system to train, how many
executors it wants (and, if elastic, the width range it tolerates), its
priority weight, and the synthetic workload recipe.  A :class:`Job` is
the scheduler's mutable runtime record for one spec — queue state, the
granted gang block, barrier-resume state (weights, steps done, consumed
simulated seconds), and the accounting the :class:`SchedReport` reads.

Every job trains on its *own* synthetic dataset (deterministic from the
spec) over its *own* sub-cluster of the granted width, so a fixed-width
job run through the scheduler is bit-identical to the same spec run
standalone — the contract the ``sched-standalone`` row of
``benchmarks/bench_claims.py`` checks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..data import SparseDataset, SyntheticSpec, generate
from ..glm import Objective
from ..metrics import TrainingHistory

__all__ = ["JobSpec", "Job"]


@dataclass(frozen=True)
class JobSpec:
    """One training job as submitted to the scheduler queue.

    Parameters
    ----------
    name:
        Unique job name (queue key and gantt row label).
    system:
        Trainer system name (any key of ``repro.cli.SYSTEMS``).
    arrival:
        Simulated second at which the job enters the queue.
    priority:
        Fair-share weight (>= 1).  Higher weight means a larger executor
        share under the ``fair`` policy and earlier admission order;
        FIFO ignores it.
    executors:
        Requested gang width (executors granted together or not at all).
    min_executors / max_executors:
        Elastic width range; both default to ``executors`` (rigid).  An
        elastic scheduler may start the job anywhere in the range and
        grow/shrink it at superstep barriers.
    steps:
        Communication-step budget (the job finishes early only on
        convergence/divergence, exactly like a standalone run).
    n_rows / n_features / nnz_per_row / data_seed:
        Synthetic workload recipe (see :class:`repro.data.SyntheticSpec`).
    loss / l2:
        Objective: loss name and L2 strength (0 = unregularized).
    learning_rate / lr_schedule / batch_fraction / local_chunk_size:
        Trainer hyperparameters, forwarded into the per-job
        :class:`~repro.core.TrainerConfig`.
    eval_every / seed:
        Evaluation cadence and trainer seed, forwarded likewise.
    """

    name: str
    system: str = "MLlib*"
    arrival: float = 0.0
    priority: int = 1
    executors: int = 4
    min_executors: int | None = None
    max_executors: int | None = None
    steps: int = 5
    n_rows: int = 240
    n_features: int = 64
    nnz_per_row: float = 8.0
    data_seed: int = 17
    loss: str = "hinge"
    l2: float = 0.1
    learning_rate: float = 0.5
    lr_schedule: str = "inv_sqrt"
    batch_fraction: float = 0.25
    local_chunk_size: int = 16
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job name must be non-empty")
        if self.arrival < 0:
            raise ValueError("arrival must be non-negative")
        if self.priority < 1:
            raise ValueError("priority must be at least 1")
        if self.executors < 1:
            raise ValueError("executors must be at least 1")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        lo, hi = self.width_range
        if not 1 <= lo <= self.executors <= hi:
            raise ValueError(
                f"need 1 <= min_executors ({lo}) <= executors "
                f"({self.executors}) <= max_executors ({hi})")
        from ..cli import SYSTEMS
        owners = getattr(SYSTEMS.get(self.system), "allreduce_owners", False)
        if owners and self.n_features < hi:
            raise ValueError(
                f"n_features ({self.n_features}) must be >= max_executors "
                f"({hi}): the AllReduce model partition needs at least "
                "one coordinate per executor")
        # Reject bad hyperparameters at submission, not when the queue
        # reaches this job mid-schedule.
        self.trainer_config()
        self.objective()

    # ------------------------------------------------------------------
    @property
    def width_range(self) -> tuple[int, int]:
        """(min, max) executor width the job tolerates."""
        lo = self.min_executors if self.min_executors is not None \
            else self.executors
        hi = self.max_executors if self.max_executors is not None \
            else self.executors
        return lo, hi

    @property
    def elastic(self) -> bool:
        lo, hi = self.width_range
        return lo != hi

    def dataset(self) -> SparseDataset:
        """The job's synthetic training set (deterministic from the spec)."""
        return generate(SyntheticSpec(n_rows=self.n_rows,
                                      n_features=self.n_features,
                                      nnz_per_row=self.nnz_per_row,
                                      seed=self.data_seed),
                        name=f"{self.name}-data")

    def objective(self) -> Objective:
        if self.l2 > 0:
            return Objective(self.loss, "l2", self.l2)
        return Objective(self.loss)

    def trainer_config(self):
        """The per-job :class:`~repro.core.TrainerConfig`."""
        from ..core import TrainerConfig
        return TrainerConfig(max_steps=self.steps,
                             learning_rate=self.learning_rate,
                             lr_schedule=self.lr_schedule,
                             batch_fraction=self.batch_fraction,
                             local_chunk_size=self.local_chunk_size,
                             eval_every=self.eval_every,
                             seed=self.seed)

    def make_trainer(self, cluster):
        """Build this spec's trainer over ``cluster`` (one per segment)."""
        # Imported lazily: repro.cli imports repro.sched for the job CLI,
        # and the SYSTEMS registry lives there.
        from ..cli import SYSTEMS
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; expected "
                             f"one of {sorted(SYSTEMS)}")
        return SYSTEMS[self.system](self.objective(), cluster,
                                    self.trainer_config())

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Plain-dict form for the queue file / trace files."""
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "JobSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown JobSpec fields: {unknown}")
        return cls(**payload)


@dataclass
class Job:
    """Mutable runtime state for one submitted spec.

    All times are global scheduler seconds except ``clock``, which is the
    job-relative simulated training time consumed so far (the x-axis of
    the job's convergence history, matching a standalone run for
    fixed-width jobs).
    """

    spec: JobSpec
    seq: int  # submission sequence number (deterministic tie-break)
    state: str = "queued"  # running, preempted, finished or cancelled
    #: Granted gang block [start, end) in pool slots; None while queued.
    block: tuple[int, int] | None = None
    #: Width the dispatcher wants the job at (applied at its barrier).
    target_width: int | None = None
    preempt_requested: bool = False
    steps_done: int = 0
    clock: float = 0.0
    weights: np.ndarray | None = None
    history: TrainingHistory | None = None
    converged: bool = False
    diverged: bool = False
    first_start: float | None = None
    finish_time: float | None = None
    #: Global second at which the job last entered the queue (arrival, or
    #: the preemption instant); drives queue-wait accounting.
    queued_since: float = 0.0
    queue_wait: float = 0.0
    preemptions: int = 0
    resizes: int = 0
    #: Executor-seconds actually held (width x global holding time).
    executor_seconds: float = 0.0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def width(self) -> int:
        return 0 if self.block is None else self.block[1] - self.block[0]

    @property
    def jct(self) -> float | None:
        """Job completion time: finish minus arrival (None if unfinished)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.spec.arrival

    def summary(self) -> dict:
        """Queue-file / report row for this job."""
        return {
            "name": self.name,
            "state": self.state,
            "priority": self.spec.priority,
            "arrival": self.spec.arrival,
            "steps_done": self.steps_done,
            "steps": self.spec.steps,
            "width": self.width,
            "first_start": self.first_start,
            "finish_time": self.finish_time,
            "jct": self.jct,
            "queue_wait": self.queue_wait,
            "preemptions": self.preemptions,
            "resizes": self.resizes,
            "converged": self.converged,
            "diverged": self.diverged,
        }
