"""One timed ``fit``, the probes taken from outside the program, and the
small statistics helpers every report line goes through.

A *fit* here is exactly what ``DistributedTrainer.fit`` does — open a
session, drain it, package the result, close — driven step by step from
this file so each part gets its own wall-clock span without touching the
program.  ``fit_wall_s`` is the sum of those spans; the resource probes
between them are therefore never inside a reported time.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.perf.profiler import PhaseProfiler

from workloads import Workload

__all__ = ["FitSample", "timed_fit", "quartiles", "percentile", "spin_ms",
           "cpu_jiffies", "peak_rss_mb", "child_pids"]

_SHM_DIR = "/dev/shm"


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile that refuses to extrapolate: a percentile
    is reported only with at least ten samples beyond it (p90 needs 100,
    p99 needs 1000), because a tail read off fewer does not repeat."""
    if not 0 < pct < 100:
        raise ValueError("pct must be in (0, 100)")
    beyond = len(samples) * (100.0 - pct) / 100.0
    if beyond < 10:
        raise ValueError(
            f"p{pct:g} needs at least ten samples beyond it; "
            f"{len(samples)} samples leave {beyond:.1f}")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(len(ordered) * pct / 100.0) - 1)]


def spin_ms() -> float:
    """Host noise probe: a fixed NumPy + pure-Python spin, best of 15.
    Elementwise on purpose: the first BLAS calls of a process pay a
    thread-pool start-up that would read as host drift."""
    a = np.arange(120_000, dtype=np.float64)
    best = float("inf")
    for _ in range(15):
        start = time.perf_counter()
        acc = 0.0
        for _ in range(30):
            acc += float((a * a).sum())
        for i in range(50_000):
            acc += i * 0.5
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def cpu_jiffies() -> tuple[int, int]:
    """``(busy, stolen)`` jiffies of the whole machine from ``/proc/stat``;
    the share stolen between two readings is how much of the CPU time
    this guest asked for the host gave to somebody else."""
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    user, nice, system, steal = fields[0], fields[1], fields[2], fields[7]
    return user + nice + system + steal, steal


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its reaped children
    (pages shared between them are counted twice)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# outside-the-program probes
# ----------------------------------------------------------------------
def child_pids() -> set[int]:
    """PIDs whose parent is this process, read from ``/proc``.

    multiprocessing's resource tracker is left out: the first shared
    segment starts it and it serves the process until exit by design, so
    it is neither a worker nor a leak (``run.py`` ends it before exit).
    """
    me = os.getpid()
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline") as handle:
                cmdline = handle.read()
        except OSError:  # exited between listdir and open
            continue
        # "pid (comm) state ppid ..." — comm may contain spaces.
        if (int(stat.rsplit(")", 1)[1].split()[1]) == me
                and "multiprocessing.resource_tracker" not in cmdline):
            found.add(int(entry))
    return found


def _shm_entries() -> set[str]:
    return set(os.listdir(_SHM_DIR))


def _own_segments(before: set[str]) -> dict[str, int]:
    """New ``/dev/shm`` entries this process has mapped -> size in bytes
    (mapping is what separates ours from a neighbour's)."""
    new = _shm_entries() - before
    if not new:
        return {}
    with open("/proc/self/maps") as handle:
        maps = handle.read()
    return {name: os.stat(f"{_SHM_DIR}/{name}").st_size
            for name in new if f"{_SHM_DIR}/{name}" in maps}


# ----------------------------------------------------------------------
# one fit
# ----------------------------------------------------------------------
@dataclass
class FitSample:
    """Everything observed about one ``fit`` (one operation)."""

    open_s: float
    step_walls: list[float]
    result_s: float
    close_s: float
    digest: str
    points: tuple[tuple[int, float, float], ...]
    sim_to_target_s: float | None
    partition_rows: list[int]
    children: int
    segment_bytes: int
    leaked_children: int
    leaked_segments: int
    #: The ``TrainResult`` — kept for traced fits only, so the repeats'
    #: traces do not pile up in ``peak_rss_mb``.
    result: object | None
    wire_stats: dict | None
    failures: list[str] = field(default_factory=list)

    @property
    def steps_s(self) -> float:
        return sum(self.step_walls)

    @property
    def setup_s(self) -> float:
        return self.open_s + self.close_s

    @property
    def wall_s(self) -> float:
        return self.open_s + self.steps_s + self.result_s + self.close_s

    @property
    def final_objective(self) -> float:
        return self.points[-1][2]


def timed_fit(workload: Workload, seed: int, dataset,
              backend: str | None = None,
              profiler: PhaseProfiler | None = None) -> FitSample:
    """Run one fit of ``workload`` and check it.

    ``backend`` overrides the recipe's (the serial twin); ``profiler``
    turns the program's own ``superstep`` / ``evaluate`` / ``local_solve``
    spans on (the traced pass).  Per-fit checks land in ``failures``:
    finite objective, target reached, nothing left behind.
    """
    trainer = workload.trainer(seed, backend)
    if profiler is not None:
        trainer.profiler = profiler
    kids_before, shm_before = child_pids(), _shm_entries()
    clock = time.perf_counter

    t0 = clock()
    session = trainer.open_session(dataset)
    open_s = clock() - t0
    step_walls: list[float] = []
    try:
        kids_during: set[int] = set()
        segments: dict[str, int] = {}
        while not session.finished:
            t0 = clock()
            session.run_step()
            step_walls.append(clock() - t0)
            if len(step_walls) == 1:
                # Pools fork lazily on the first submit, so the fleet is
                # only visible once a step has run.
                kids_during = child_pids() - kids_before
                segments = _own_segments(shm_before)
        t0 = clock()
        result = session.result()
        result_s = clock() - t0
    finally:
        t0 = clock()
        session.close()
        close_s = clock() - t0

    weights = np.ascontiguousarray(result.model.weights)
    points = tuple((p.step, p.seconds, p.objective)
                   for p in result.history.points)
    reached = result.history.first_reaching(workload.target)
    leaked_kids = child_pids() - kids_before
    leaked_segs = set(segments) & _shm_entries()
    sample = FitSample(
        open_s=open_s, step_walls=step_walls, result_s=result_s,
        close_s=close_s,
        digest=hashlib.sha256(weights.tobytes()).hexdigest(),
        points=points,
        sim_to_target_s=reached.seconds if reached is not None else None,
        partition_rows=[p.n_rows for p in session.data.partitions],
        children=len(kids_during),
        segment_bytes=sum(segments.values()),
        leaked_children=len(leaked_kids),
        leaked_segments=len(leaked_segs),
        result=result if profiler is not None else None,
        wire_stats=trainer.last_wire_stats)
    if not math.isfinite(sample.final_objective):
        sample.failures.append("final objective is not finite")
    if reached is None:
        sample.failures.append(
            f"objective never reached the target {workload.target}")
    if leaked_kids:
        sample.failures.append(
            f"{len(leaked_kids)} child process(es) alive after close")
    if leaked_segs:
        sample.failures.append(
            f"{len(leaked_segs)} /dev/shm segment(s) left after close")
    return sample
