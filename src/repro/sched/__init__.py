"""Multi-tenant cluster scheduler with elastic training.

The subsystem behind ``repro sched``: a deterministic event-driven
scheduler (:class:`ClusterScheduler`) multiplexing a shared pool of
simulated executors across a queue of training jobs — gang placement,
FIFO or weighted fair-share admission (:mod:`repro.sched.policy`),
elastic width changes and preemption at superstep barriers via
:class:`repro.core.TrainingSession`, and a byte-identity schedule log
(:class:`SchedLog`).
"""

from .config import SCHED_POLICIES, SchedConfig
from .job import Job, JobSpec
from .log import SchedLog
from .policy import (JobView, dispatch_admission_width, dispatch_fair_shares,
                     dispatch_order, dispatch_preemption_victim)
from .pool import ExecutorPool
from .scheduler import ClusterScheduler, SchedResult
from .workload import poisson_job_trace

__all__ = [
    "SCHED_POLICIES", "SchedConfig",
    "Job", "JobSpec",
    "SchedLog",
    "JobView", "dispatch_order", "dispatch_fair_shares",
    "dispatch_admission_width", "dispatch_preemption_victim",
    "ExecutorPool",
    "ClusterScheduler", "SchedResult",
    "poisson_job_trace",
]
