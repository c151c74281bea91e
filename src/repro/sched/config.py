"""Cluster-scheduler configuration.

One frozen dataclass, mirroring :class:`repro.core.TrainerConfig`'s
conventions: validation in ``__post_init__``, ``with_overrides`` for
copies, and one CLI flag per field, generated by ``repro.cli`` from the
field and its docstring entry below.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["SchedConfig", "SCHED_POLICIES"]

#: Admission/ordering policies the dispatcher understands.
SCHED_POLICIES = ("fifo", "fair")


@dataclass(frozen=True)
class SchedConfig:
    """Run control for the multi-tenant cluster scheduler.

    Parameters
    ----------
    policy:
        ``fifo`` — admit strictly in arrival order (with backfill: a
        later job may start only if it fits without delaying nothing —
        i.e. whenever a free gang block exists).  ``fair`` — weighted
        fair share: queue ordered by (priority, arrival) and running
        elastic jobs steered toward executor shares proportional to
        their priority weights.
    elastic:
        Allow jobs to grow/shrink between their ``min_executors`` and
        ``max_executors`` at superstep barriers.  Off, every job holds
        exactly ``executors`` for its whole run.
    preempt:
        Allow the dispatcher to preempt a running job (checkpoint at its
        next barrier, release its gang block, re-queue) when a
        strictly-higher-priority job is starved.  ``fair`` policy only.
    total_executors:
        Executors in the shared simulated cluster the scheduler carves
        gang blocks out of.
    resize_every:
        Consider elastic width changes only at every Nth barrier of a
        job (1 = every barrier).  Spaces out re-partition costs.
    seed:
        Seed for per-job sub-cluster construction; the schedule itself
        is deterministic given the arrival trace — same seed + trace
        replays to a byte-identical schedule log.
    """

    policy: str = "fifo"
    elastic: bool = False
    preempt: bool = False
    total_executors: int = 8
    resize_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.policy not in SCHED_POLICIES:
            raise ValueError(f"policy must be one of {SCHED_POLICIES}; "
                             f"got {self.policy!r}")
        if self.total_executors < 1:
            raise ValueError("total_executors must be at least 1")
        if self.resize_every < 1:
            raise ValueError("resize_every must be at least 1")
        if self.preempt and self.policy != "fair":
            raise ValueError("preemption needs the 'fair' policy (FIFO "
                             "admission order never starves by priority)")

    def with_overrides(self, **kwargs) -> "SchedConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
