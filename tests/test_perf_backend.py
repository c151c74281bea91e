"""Execution backends: bit-identity, pool mechanics, profiler, CLI.

``TrainerConfig.backend`` is a wall-clock knob and nothing else: every
system must produce point-for-point identical histories and bit-identical
weights under every name in ``BACKENDS``.  The golden workload
(tests/data/make_golden.py) is the probe — it covers all nine systems
with fixed seeds.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from data.make_golden import GOLDEN_PATH, SYSTEMS, golden_workload
from repro.core import TrainerConfig
from repro.data import Partition
from repro.engine.backend import (BACKENDS, SerialBackend, ShmBackend,
                                  make_backend)
from repro.glm import Objective
from repro.perf.profiler import (NullProfiler, PhaseProfiler, measure)

#: Serial reference results, computed once per system — every backend
#: comparison reuses the same baseline.
_SERIAL_MEMO: dict[str, object] = {}


def _run(system: str, backend: str):
    if backend == "serial" and system in _SERIAL_MEMO:
        return _SERIAL_MEMO[system]
    trainer_cls, loss = SYSTEMS[system]
    dataset, cluster, config = golden_workload()
    config = dataclasses.replace(config, backend=backend)
    objective = Objective(loss, "l2", 0.1)
    result = trainer_cls(objective, cluster, config).fit(dataset)
    if backend == "serial":
        _SERIAL_MEMO[system] = result
    return result


def _assert_matches_serial(system: str, backend: str) -> None:
    serial = _run(system, "serial")
    other = _run(system, backend)
    assert list(other.history.points) == list(serial.history.points)
    assert np.array_equal(other.model.weights, serial.model.weights)


class TestBackendBitIdentity:
    # One method per non-reference backend, not one test over
    # BACKENDS[1:]: the ids are long-lived (the recorded tier-1 floor and
    # CI selections name them).
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_shm_matches_serial(self, system):
        _assert_matches_serial(system, "shm")

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_socket_matches_serial(self, system):
        _assert_matches_serial(system, "socket")

    def test_every_backend_has_a_battery(self):
        # A backend added to BACKENDS must get its method above.
        missing = [name for name in BACKENDS[1:]
                   if not any(method.startswith(f"test_{name}_match")
                              for method in dir(self))]
        assert missing == []

    def test_shm_reproduces_golden_file(self):
        # The committed golden values were produced by the serial path;
        # the process pool must land on them too.
        golden = json.loads(Path(GOLDEN_PATH).read_text())
        result = _run("MLlib*", "shm")
        pinned = golden["MLlib*"]
        assert result.final_objective == pytest.approx(
            pinned["final_objective"], rel=1e-9)
        assert result.history.total_seconds == pytest.approx(
            pinned["total_seconds"], rel=1e-9)
        assert result.history.total_steps == pinned["total_steps"]


def _partitions(k: int = 3) -> list[Partition]:
    import scipy.sparse as sp
    parts = []
    for i in range(k):
        X = sp.random(4, 6, density=0.5, format="csr",
                      random_state=np.random.RandomState(i))
        parts.append(Partition(index=i, X=X,
                               y=np.full(4, float(i))))
    return parts


def _label_task(part: Partition, offset: float) -> float:
    return float(part.y[0]) + offset


def shm_segments() -> set[str]:
    """Entries of ``/dev/shm``, where POSIX shared memory shows up (empty
    on platforms that keep it elsewhere)."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class TestBackendMechanics:
    def test_make_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="backend"):
            make_backend("gpu")

    def test_backends_tuple_matches_config_validation(self):
        for name in BACKENDS:
            config = TrainerConfig(backend=name)
            assert config.backend == name
        # The removed backends get the ordinary unknown-name error.
        for name in ("bogus", "processes", "threads"):
            with pytest.raises(ValueError, match="backend"):
                TrainerConfig(backend=name)
            with pytest.raises(ValueError, match="backend"):
                make_backend(name)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_map_preserves_partition_order(self, name):
        backend = make_backend(name)
        try:
            backend.install_partitions(_partitions())
            got = backend.map_partitions(_label_task,
                                         [(10.0,), (20.0,), (30.0,)])
            assert got == [10.0, 21.0, 32.0]
        finally:
            backend.close()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_run_one_targets_the_right_partition(self, name):
        backend = make_backend(name)
        try:
            backend.install_partitions(_partitions())
            assert backend.run_one(_label_task, 2, (0.5,)) == 2.5
        finally:
            backend.close()

    def test_pool_size_capped_by_partitions(self):
        backend = ShmBackend(max_workers=None)
        backend.install_partitions(_partitions(2))
        assert backend._pool_size(2) <= 2
        backend.close()

    def test_close_is_idempotent(self):
        before = shm_segments()
        backend = ShmBackend()
        backend.install_partitions(_partitions(2))
        if os.path.isdir("/dev/shm"):  # partitions + broadcast arena
            assert len(shm_segments() - before) == 2
        backend.map_partitions(_label_task, [(0.0,), (0.0,)])
        backend.close()
        assert shm_segments() <= before
        backend.close()

    def test_pool_backend_needs_partitions(self):
        # A plain RuntimeError, NOT an assert: the guard must survive
        # ``python -O`` stripping assert statements.
        backend = ShmBackend()
        with pytest.raises(RuntimeError, match="install_partitions"):
            backend.map_partitions(_label_task, [(0.0,)])

    def test_serial_backend_is_the_post_fit_stub(self):
        # fit() leaves a SerialBackend installed so post-run introspection
        # (direct _run_step calls in tests) keeps working.
        backend = SerialBackend()
        backend.install_partitions(_partitions(1))
        assert backend.run_one(_label_task, 0, (1.0,)) == 1.0


class TestPhaseProfiler:
    def test_phases_accumulate(self):
        profiler = PhaseProfiler()
        for _ in range(3):
            with profiler.phase("work"):
                pass
        stat = profiler.report()["work"]
        assert stat.calls == 3
        assert stat.wall >= 0.0
        assert stat.mean == pytest.approx(stat.wall / 3)

    def test_rows_shape_and_order(self):
        profiler = PhaseProfiler()
        with profiler.phase("a"):
            pass
        with profiler.phase("b"):
            pass
        rows = profiler.rows()
        assert [r[0] for r in rows] == ["a", "b"]  # first-seen order
        for row in rows:
            name, calls, wall, mean_ms = row
            assert calls == 1
            assert wall >= 0.0 and mean_ms >= 0.0

    def test_reset(self):
        profiler = PhaseProfiler()
        with profiler.phase("x"):
            pass
        profiler.reset()
        assert profiler.report() == {}

    def test_null_profiler_records_nothing(self):
        profiler = NullProfiler()
        with profiler.phase("x"):
            pass
        assert profiler.report() == {}

    def test_measure_returns_result_and_best(self):
        result, best = measure(lambda: 41 + 1, repeats=3)
        assert result == 42
        assert best >= 0.0

    def test_measure_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            measure(lambda: None, repeats=0)

    def test_trainer_profiler_hook(self):
        from repro.core import MLlibStarTrainer
        dataset, cluster, config = golden_workload()
        trainer = MLlibStarTrainer(Objective("hinge", "l2", 0.1), cluster,
                                   config)
        trainer.profiler = PhaseProfiler()
        trainer.fit(dataset)
        report = trainer.profiler.report()
        assert report["superstep"].calls == config.max_steps
        assert report["local_solve"].calls == config.max_steps
        assert "evaluate" in report


class TestPerfCli:
    def test_perf_command_smoke(self, capsys, tmp_path):
        from repro.cli import main
        out = tmp_path / "perf.json"
        code = main(["perf", "--executors", "2", "--steps", "2",
                     "--out", str(out)])
        assert code == 0
        assert "bit-identity gate: PASSED" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["bit_identical"] is True
        assert set(payload) == {
            "bit_identical", "workload", "measured", "simulated",
            "ratio_measured_over_simulated", "fitted", "per_superstep"}

    def test_train_with_shm_backend(self, capsys):
        from repro.cli import main
        code = main(["train", "--system", "MLlib*",
                     "--dataset", "tests/data/tiny.libsvm",
                     "--executors", "2", "--steps", "2",
                     "--eval-every", "2", "--backend", "shm"])
        assert code == 0
        assert "final objective" in capsys.readouterr().out

    def test_removed_backend_is_rejected_by_the_parser(self, capsys):
        from repro.cli import main
        assert BACKENDS == ("serial", "shm", "socket")
        for name in ("processes", "threads"):
            with pytest.raises(SystemExit) as excinfo:
                main(["train", "--backend", name])
            assert excinfo.value.code == 2
            message = capsys.readouterr().err
            assert all(repr(valid) in message for valid in BACKENDS)
