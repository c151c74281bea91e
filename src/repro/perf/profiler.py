"""Wall-clock phase profiler for host-side performance measurement.

``repro``'s simulated clock answers "how long would this take on the
modelled cluster"; this profiler answers "how long did the *simulation*
take on this machine" — the quantity the wall-clock fast path (parallel
backends + CSR kernels) optimizes.  Phases nest and accumulate:

    profiler = PhaseProfiler()
    trainer.profiler = profiler          # trainers carry a hook
    trainer.fit(dataset)
    profiler.wall("local_solve")         # seconds inside worker solves

The trainer template times ``superstep`` (one ``_run_step``) and
``evaluate`` (full-dataset objective, monitoring only); the execution
backend times ``local_solve`` (the fanned-out per-worker work).

Wall-clock reads live *only* under ``repro/perf/`` — the determinism lint
(DET001) forbids them everywhere else and exempts this directory by rule
scope (see :mod:`repro.analysis.rules`).  Nothing measured here ever
flows into simulated seconds: the profiler observes, the cost model
prices.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

__all__ = ["PhaseProfiler", "PhaseStat", "NullProfiler", "measure"]

T = TypeVar("T")


@dataclass
class PhaseStat:
    """Accumulated wall time for one named phase."""

    calls: int = 0
    wall: float = 0.0

    @property
    def mean(self) -> float:
        return self.wall / self.calls if self.calls else 0.0


class PhaseProfiler:
    """Accumulates wall-clock time per named phase (re-entrant, nestable)."""

    def __init__(self) -> None:
        self._stats: dict[str, PhaseStat] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under ``name`` (adds to prior calls)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            stat = self._stats.setdefault(name, PhaseStat())
            stat.calls += 1
            stat.wall += time.perf_counter() - start

    def wall(self, name: str) -> float:
        """Total wall seconds accumulated under ``name`` (0.0 if unseen)."""
        stat = self._stats.get(name)
        return stat.wall if stat is not None else 0.0

    def report(self) -> dict[str, PhaseStat]:
        """Phase name -> accumulated stat, in first-seen order."""
        return dict(self._stats)

    def rows(self) -> list[list[object]]:
        """Table rows (phase, calls, total s, mean ms) for CLI output."""
        return [[name, stat.calls, round(stat.wall, 4),
                 round(1e3 * stat.mean, 4)]
                for name, stat in self._stats.items()]


class _NullPhase:
    """A reusable no-op context manager (cheaper than nullcontext())."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_PHASE = _NullPhase()


class NullProfiler(PhaseProfiler):
    """Profiling disabled: every hook is a no-op.

    The default on trainers and backends, so instrumentation costs nothing
    unless a real :class:`PhaseProfiler` is installed.
    """

    def phase(self, name: str) -> _NullPhase:  # type: ignore[override]
        return _NULL_PHASE

    def wall(self, name: str) -> float:
        return 0.0

    def report(self) -> dict[str, PhaseStat]:
        return {}


def measure(fn: Callable[[], T], repeats: int = 1) -> tuple[T, float]:
    """Run ``fn`` ``repeats`` times; return (last result, best wall secs).

    Best-of-N is the standard microbenchmark estimator: the minimum is the
    least contaminated by scheduler noise on a shared host.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    best = float("inf")
    result: T
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return result, best
