"""Wall-clock performance layer: profiling and network validation.

This package is the **only** place in ``repro`` allowed to read the host
wall clock.  Everywhere else, "seconds" means *simulated* seconds priced
by the cluster cost model, and the determinism lint (``DET001``) rejects
``time.*`` calls outright; the lint rules scope ``repro/perf/`` out
explicitly (see :mod:`repro.analysis.rules`) rather than via per-line
``noqa`` so the exemption is structural and reviewable in one place.

Wall-clock readings made here are **never** fed back into the simulation
— they exist to measure the reproduction's own host-side speed: the
per-phase :mod:`repro.perf.profiler` read by ``benchmarks/e2e``, and the
measured-vs-simulated wire check behind ``repro perf``.

Only :mod:`repro.perf.profiler` is re-exported here;
:mod:`repro.perf.netcheck` imports the trainers (which import the
profiler for their instrumentation hooks), so import it explicitly as
``repro.perf.netcheck`` to avoid the cycle.
"""

from .profiler import NullProfiler, PhaseProfiler, PhaseStat

__all__ = ["PhaseProfiler", "PhaseStat", "NullProfiler"]
