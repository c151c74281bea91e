"""Wall-clock performance layer: profiling and network validation.

Besides the socket transport (:mod:`repro.engine.wire`,
:mod:`repro.engine.daemon`), this package is the only place in ``repro``
that reads the host wall clock; the determinism lint (``DET001``) scopes
it out structurally (:mod:`repro.analysis.rules`), not by ``noqa``.  Its
readings never feed the simulated clock: they measure the host-side
speed (the per-phase :mod:`repro.perf.profiler` ``benchmarks/e2e`` reads,
and the measured-vs-simulated wire check behind ``repro perf``).
Import :mod:`repro.perf.netcheck` explicitly: it imports the trainers,
which import the profiler.
"""

from .profiler import NullProfiler, PhaseProfiler, PhaseStat

__all__ = ["PhaseProfiler", "PhaseStat", "NullProfiler"]
