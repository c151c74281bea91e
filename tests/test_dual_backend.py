"""Dual (CoCoA-family) training through the full distributed stack.

``local_solver`` must be a *convergence* knob, never an execution one:
for a fixed solver the run is one deterministic computation, and every
backend / collective / sanitizer combination must reproduce it bit for
bit — histories point-for-point, weights and the recorded duality-gap
certificates exactly equal.  This extends the golden-workload battery of
``tests/test_perf_backend.py`` to the dual paths of the two SendModel
systems that support them.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from data.make_golden import golden_workload
from repro.core import (MLlibModelAveragingTrainer, MLlibStarTrainer,
                        MLlibTrainer, TrainerConfig)
from repro.engine.backend import BACKENDS
from repro.glm import Objective

DUAL_SYSTEMS = {
    "MLlib*": MLlibStarTrainer,
    "MLlib+MA": MLlibModelAveragingTrainer,
}

#: Serial reference runs, memoized per (system, solver) — every backend,
#: collective and sanitizer comparison reuses the same baseline.
_SERIAL_MEMO: dict[tuple[str, str], object] = {}


def _run(system: str, solver: str, backend: str = "serial", **overrides):
    key = (system, solver)
    plain = backend == "serial" and not overrides
    if plain and key in _SERIAL_MEMO:
        return _SERIAL_MEMO[key]
    dataset, cluster, config = golden_workload()
    config = dataclasses.replace(config, backend=backend,
                                 local_solver=solver, local_iters=2,
                                 **overrides)
    objective = Objective("hinge", "l2", 0.1)
    result = DUAL_SYSTEMS[system](objective, cluster, config).fit(dataset)
    if plain:
        _SERIAL_MEMO[key] = result
    return result


def _assert_matches_serial(system: str, solver: str, backend: str = "serial",
                           **overrides) -> None:
    serial = _run(system, solver)
    other = _run(system, solver, backend, **overrides)
    assert list(other.history.points) == list(serial.history.points)
    assert np.array_equal(other.model.weights, serial.model.weights)
    # The certificates are part of the deterministic contract too: same
    # steps, same simulated seconds, bit-equal gap/primal/dual floats.
    assert list(other.duality_gaps) == list(serial.duality_gaps)


class TestDualBackendBitIdentity:
    @pytest.mark.parametrize("system", sorted(DUAL_SYSTEMS))
    @pytest.mark.parametrize("solver", ["cocoa", "cocoa+"])
    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_backends_match_serial(self, system, solver, backend):
        _assert_matches_serial(system, solver, backend)

    @pytest.mark.parametrize("system", sorted(DUAL_SYSTEMS))
    @pytest.mark.parametrize("solver", ["cocoa", "cocoa+"])
    def test_sanitizer_does_not_perturb(self, system, solver):
        # The sanitizer freezes broadcast arrays; the dual tasks promise
        # read-only access to the shared iterate, so sanitized runs must
        # be bit-identical, not merely crash-free.
        _assert_matches_serial(system, solver, sanitize=True)

    def test_dual_runs_actually_descend(self):
        result = _run("MLlib*", "cocoa+")
        gaps = [g.gap for g in result.duality_gaps]
        assert gaps[-1] < 0.5 * gaps[0]


def _assert_same_values(system: str, solver: str, backend: str = "serial",
                        **overrides) -> None:
    # Collectives and the sparse wire re-price communication, so the
    # simulated timeline legitimately differs — but every *value* must
    # stay bit-identical: per-step objectives, final weights, and the
    # gap/primal/dual floats of each certificate.
    serial = _run(system, solver)
    other = _run(system, solver, backend, **overrides)
    assert ([(p.step, p.objective) for p in other.history.points]
            == [(p.step, p.objective) for p in serial.history.points])
    assert np.array_equal(other.model.weights, serial.model.weights)
    assert ([(g.step, g.gap, g.primal, g.dual) for g in other.duality_gaps]
            == [(g.step, g.gap, g.primal, g.dual)
                for g in serial.duality_gaps])


class TestDualCollectives:
    @pytest.mark.parametrize("collective", ["hier", "switch"])
    def test_collectives_match_flat(self, collective):
        # The delta exchange rides the same combine="sum" wire as the
        # primal gradients; hier and switch re-bracket the summation in
        # a fixed order that must reproduce the flat values exactly.
        _assert_same_values("MLlib*", "cocoa+", collective=collective)

    def test_sparse_wire_is_value_free(self):
        # --sparse-comm auto changes message *pricing* only; the dense
        # deltas must decode to the same floats.
        _assert_same_values("MLlib*", "cocoa+", sparse_comm="auto")

    def test_hier_socket_combination(self):
        _assert_same_values("MLlib*", "cocoa", backend="socket",
                            collective="hier")


class TestGapRecording:
    def test_gap_follows_eval_cadence(self):
        # Certificates are monitoring output, recorded exactly where the
        # history records objective values: every eval_every steps plus
        # the final step, with step 0 always present.
        dataset, cluster, config = golden_workload()
        config = dataclasses.replace(config, local_solver="cocoa+",
                                     eval_every=2)  # max_steps == 5
        result = MLlibStarTrainer(Objective("hinge", "l2", 0.1), cluster,
                                  config).fit(dataset)
        assert [g.step for g in result.duality_gaps] == [0, 2, 4, 5]
        history_steps = [p.step for p in result.history.points]
        assert [g.step for g in result.duality_gaps] == history_steps
        clock = {p.step: p.seconds for p in result.history.points}
        assert all(g.seconds == clock[g.step] for g in result.duality_gaps)

    def test_certificates_cost_no_simulated_time(self):
        # Gap evaluation happens in the parent off the simulated clock:
        # a dual run's timeline must price exactly the same phases
        # whether or not anyone looks at the certificates.
        a = _run("MLlib*", "cocoa+")
        b = _run("MLlib*", "cocoa+", eval_every=5)
        assert [g.step for g in b.duality_gaps] == [0, 5]
        assert b.history.total_seconds == a.history.total_seconds
        assert np.array_equal(b.model.weights, a.model.weights)


class TestDualGuards:
    def test_unsupported_system_rejects_dual_solver(self):
        dataset, cluster, config = golden_workload()
        config = dataclasses.replace(config, local_solver="cocoa")
        trainer = MLlibTrainer(Objective("hinge", "l2", 0.1), cluster,
                               config)
        with pytest.raises(ValueError, match="does not support"):
            trainer.fit(dataset)

    def test_dual_needs_l2(self):
        dataset, cluster, config = golden_workload()
        config = dataclasses.replace(config, local_solver="cocoa+")
        trainer = MLlibStarTrainer(Objective("hinge"), cluster, config)
        with pytest.raises(ValueError, match="l2"):
            trainer.fit(dataset)


class TestLinterScope:
    def test_derived_scope_covers_the_dual_task(self):
        # The backend-rule linter derives its task-function scope from
        # submit sites; the dual path's worker task must be picked up
        # automatically (no hand-maintained list to forget).
        from repro.analysis import CallGraph
        from repro.analysis.engine import collect_files, load_source
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        files = [load_source(p) for p in collect_files([src])]
        graph = CallGraph(files)
        assert ("repro.core.worker.run_dual_on_partition"
                in set(graph.task_functions()))

    def test_tree_stays_lint_clean(self):
        from repro.analysis import run_analysis
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        report = run_analysis([src])
        assert report.violations == []
