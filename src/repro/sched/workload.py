"""Synthetic multi-tenant workloads: Poisson job arrival traces.

Mirrors :func:`repro.serve.loadgen.poisson_arrivals` one level up — the
arrivals here are whole training jobs, not inference requests.  Gaps are
exponential with the configured rate, and each arrival's job shape
(steps, gang width, priority, data size) is drawn from the same seeded
generator, so a trace is a pure function of ``(rate, duration, seed)``
and two runs over it are byte-identical replays of each other.

Priorities follow the job's length: short jobs get the heavy weight, so
the ``fair`` policy approximates shortest-job-first — the mechanism
behind its p95-JCT win over FIFO (``sched-fair-beats-fifo`` in
``benchmarks/bench_claims.py``).
"""

from __future__ import annotations

import numpy as np

from .job import JobSpec

__all__ = ["poisson_job_trace"]


def poisson_job_trace(rate: float, duration: float, seed: int = 0, *,
                      system: str = "MLlib*", elastic: bool = False,
                      max_width: int = 6) -> list[JobSpec]:
    """Draw a Poisson trace of training jobs over ``[0, duration)``.

    Parameters
    ----------
    rate:
        Mean arrivals per simulated second.
    duration:
        Arrival window; jobs arriving past it are not generated (their
        *runs* may extend past it freely).
    seed:
        Trace seed; same ``(rate, duration, seed)`` → same spec list.
    system:
        Trainer system every job uses.
    elastic:
        Give each job a width range (half its request up to
        ``max_width``) instead of a rigid gang.
    max_width:
        Cap on any job's maximum width (keep below the scheduler pool).

    Every job trains a 64-feature model (wider than any gang).
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if max_width < 1:
        raise ValueError("max_width must be at least 1")
    rng = np.random.default_rng(seed)
    specs: list[JobSpec] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration:
            break
        index = len(specs)
        steps = int(rng.integers(3, 9))
        executors = int(rng.choice((2, 3, 4)))
        executors = min(executors, max_width)
        if elastic:
            lo = max(1, executors // 2)
            hi = min(max_width, executors + 2)
        else:
            lo = hi = executors
        # Short jobs weigh more: fair share then approximates SJF.
        priority = 3 if steps <= 5 else 1
        n_rows = int(120 + 40 * rng.integers(0, 4))
        specs.append(JobSpec(
            name=f"job-{index:03d}",
            system=system,
            arrival=round(t, 6),
            priority=priority,
            executors=executors,
            min_executors=lo,
            max_executors=hi,
            steps=steps,
            n_rows=n_rows,
            n_features=64,
            nnz_per_row=6.0,
            data_seed=seed * 1009 + index,
            seed=seed,
        ))
    return specs
