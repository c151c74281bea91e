"""Wall-clock benchmark harness: kernel and backend speedup studies.

Everything in this module measures *real elapsed time* — the one thing
the rest of ``repro`` is forbidden to look at (rule ``DET001`` scopes
its wall-clock check so that ``repro/perf/`` is the only package allowed
to read the clock).  Two studies:

* :func:`kernel_benchmarks` times each hot local-solver path twice —
  once on the retained reference implementations
  (:mod:`repro.glm.reference`) and once on the fast CSR kernels
  (:mod:`repro.glm.kernels`) — and asserts the resulting weight vectors
  are **bit-identical** before reporting the speedup.  A measurement that
  changed the numerics is a bug, not a result.
* :func:`backend_sweep` runs one trainer end-to-end under each execution
  backend (every name in ``BACKENDS`` by default, plus a
  serial-with-reference-kernels baseline representing the pre-PR code)
  and asserts every run's convergence history matches point-for-point
  before reporting wall-clock speedups.

This module imports trainer machinery, so ``repro.perf.__init__`` does
not re-export it (that would create an import cycle through
``core.trainer`` -> ``perf.profiler``); import it explicitly as
``repro.perf.harness``.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np
import scipy.sparse as sp

from ..data import SparseDataset, SyntheticSpec, generate
from ..engine.backend import BACKENDS
from ..glm import Objective, mgd_epoch, sgd_epoch, use_reference_kernels
from .profiler import measure

__all__ = ["kernel_benchmarks", "backend_sweep", "KERNEL_CASE_NAMES"]

#: The kernel paths timed by :func:`kernel_benchmarks` — one per epoch
#: solver dispatch branch (lazy chunked SGD, eager chunked SGD via L1,
#: and mini-batch GD).
KERNEL_CASE_NAMES = ("sgd_lazy_l2", "sgd_lazy_unreg", "sgd_eager_l1",
                     "mgd_epoch")


def _workload(rows: int, features: int, nnz_per_row: float,
              seed: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """A synthetic partition shaped like one worker's share of WX."""
    dataset = generate(SyntheticSpec(n_rows=rows, n_features=features,
                                     nnz_per_row=nnz_per_row, noise=0.02,
                                     seed=seed), name="perf-kernels")
    return dataset.X, dataset.y


def kernel_benchmarks(rows: int = 1500, features: int = 40000,
                      nnz_per_row: float = 40.0, chunk_size: int = 64,
                      lr: float = 0.1, seed: int = 11,
                      repeats: int = 3) -> list[dict[str, Any]]:
    """Time reference vs fast kernels; assert bit-identity; report speedup.

    The default shape (wide model, short chunks) is the regime the fast
    kernels target: the reference path materializes an ``m``-length dense
    gradient per chunk, so its cost is dominated by ``features`` rather
    than by the data.
    """
    X, y = _workload(rows, features, nnz_per_row, seed)
    cases: dict[str, tuple[Objective, Callable[[], np.ndarray]]] = {}

    def sgd_runner(objective: Objective) -> Callable[[], np.ndarray]:
        def run() -> np.ndarray:
            w = np.zeros(X.shape[1])
            rng = np.random.default_rng(seed)
            new_w, _ = sgd_epoch(objective, w, X, y, lr, rng,
                                 chunk_size=chunk_size)
            return new_w
        return run

    def mgd_runner(objective: Objective) -> Callable[[], np.ndarray]:
        def run() -> np.ndarray:
            w = np.zeros(X.shape[1])
            rng = np.random.default_rng(seed)
            new_w, _ = mgd_epoch(objective, w, X, y, lr, chunk_size, rng)
            return new_w
        return run

    cases["sgd_lazy_l2"] = (Objective("hinge", "l2", 0.1), sgd_runner)
    cases["sgd_lazy_unreg"] = (Objective("logistic"), sgd_runner)
    cases["sgd_eager_l1"] = (Objective("hinge", "l1", 0.01), sgd_runner)
    cases["mgd_epoch"] = (Objective("squared", "l2", 0.1), mgd_runner)

    entries: list[dict[str, Any]] = []
    for name in KERNEL_CASE_NAMES:
        objective, make_runner = cases[name]
        run = make_runner(objective)
        with use_reference_kernels():
            w_ref, ref_seconds = measure(run, repeats)
        w_fast, fast_seconds = measure(run, repeats)
        if not np.array_equal(w_ref, w_fast):
            raise AssertionError(
                f"kernel case '{name}': fast result differs from the "
                "reference implementation — refusing to report a speedup "
                "for changed numerics")
        entries.append({
            "kernel": name,
            "reference_seconds": ref_seconds,
            "fast_seconds": fast_seconds,
            "speedup": ref_seconds / fast_seconds if fast_seconds else
            float("inf"),
            "bit_identical": True,
        })
    return entries


def backend_sweep(make_trainer: Callable[[str], Any],
                  dataset: SparseDataset,
                  backends: Sequence[str] = BACKENDS,
                  repeats: int = 1,
                  include_reference_baseline: bool = True,
                  ) -> dict[str, Any]:
    """Wall-clock one trainer end-to-end under each execution backend.

    ``make_trainer(backend)`` must return a fresh trainer whose config
    uses that backend; each timed run constructs its own trainer so no
    state leaks between measurements.  With
    ``include_reference_baseline`` the sweep starts with a
    serial-backend run on the reference kernels — the pre-optimization
    code on the pre-optimization execution path — and reports every
    speedup against it.

    Every run's convergence history must match the first run's
    point-for-point (steps, simulated seconds and objective values);
    a mismatch raises instead of reporting a speedup.
    """
    seconds: dict[str, float] = {}
    points: dict[str, list] = {}

    def run(backend: str) -> Any:
        return make_trainer(backend).fit(dataset)

    if include_reference_baseline:
        with use_reference_kernels():
            result, secs = measure(lambda: run("serial"), repeats)
        seconds["serial+reference"] = secs
        points["serial+reference"] = list(result.history.points)
    for backend in backends:
        result, secs = measure(lambda b=backend: run(b), repeats)
        seconds[backend] = secs
        points[backend] = list(result.history.points)

    names = list(points)
    first = points[names[0]]
    for name in names[1:]:
        if points[name] != first:
            raise AssertionError(
                f"run '{name}' produced a different convergence history "
                f"than '{names[0]}' — backends/kernels must be "
                "bit-identical")

    baseline = names[0]
    return {
        "baseline": baseline,
        "seconds": seconds,
        "speedup_vs_baseline": {
            name: seconds[baseline] / secs if secs else float("inf")
            for name, secs in seconds.items()
        },
        "bit_identical": True,
        "history_points": len(first),
    }
