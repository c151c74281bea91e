"""Unit tests for repro.ps.server and repro.ps.engine."""

import numpy as np
import pytest

from repro.cluster import cluster1, cluster2
from repro.ps import BSP, SSP, ParameterServer, PsEngine
from repro.ps.engine import worker_label


class TestParameterServer:
    def test_pull_initial_zero(self):
        ps = ParameterServer(model_size=10, num_servers=2)
        assert np.array_equal(ps.pull(), np.zeros(10))

    def test_pull_returns_copy(self):
        ps = ParameterServer(model_size=4, num_servers=1)
        ps.pull()[0] = 99.0
        assert ps.pull()[0] == 0.0

    def test_push_sum_accumulates(self):
        ps = ParameterServer(model_size=4, num_servers=2)
        ps.push_sum(np.ones(4))
        ps.push_sum(2 * np.ones(4))
        assert np.allclose(ps.pull(), 3 * np.ones(4))

    def test_average_cycle(self):
        ps = ParameterServer(model_size=4, num_servers=2)
        ps.push_for_average(np.ones(4))
        ps.push_for_average(3 * np.ones(4))
        assert ps.pending_count == 2
        new = ps.apply_average()
        assert np.allclose(new, 2 * np.ones(4))
        assert ps.pending_count == 0

    def test_apply_average_without_pushes(self):
        ps = ParameterServer(model_size=4, num_servers=1)
        with pytest.raises(RuntimeError):
            ps.apply_average()

    def test_initial_model(self):
        init = np.arange(6.0)
        ps = ParameterServer(model_size=6, num_servers=3, initial=init)
        assert np.array_equal(ps.pull(), init)

    def test_shape_validation(self):
        ps = ParameterServer(model_size=4, num_servers=2)
        with pytest.raises(ValueError):
            ps.push_sum(np.ones(5))
        with pytest.raises(ValueError):
            ParameterServer(model_size=2, num_servers=4)


class TestPsEngine:
    def test_bsp_steps_monotone_clock(self):
        engine = PsEngine(cluster1(executors=4), controller=BSP())
        t1 = engine.run_step([1.0] * 4, model_size=1000)
        t2 = engine.run_step([1.0] * 4, model_size=1000)
        assert t2 > t1
        assert engine.now == pytest.approx(t2)

    def test_comm_seconds_positive(self):
        engine = PsEngine(cluster1(executors=4))
        assert engine.comm_seconds(100_000) > 0

    def test_emits_compute_and_send_spans(self):
        engine = PsEngine(cluster1(executors=2))
        engine.run_step([1.0, 2.0], model_size=1000)
        for r in range(2):
            kinds = {s.kind for s in engine.trace.spans_for(worker_label(r))}
            assert "compute" in kinds
            assert "send" in kinds

    def test_bsp_waits_on_straggler(self):
        engine = PsEngine(cluster1(executors=2), controller=BSP())
        engine.run_step([0.1, 5.0], model_size=100)
        engine.run_step([0.1, 5.0], model_size=100)
        # The fast worker must have waited before its second step.
        assert engine.trace.wait_seconds(worker_label(0)) > 0

    def test_ssp_hides_straggler_latency(self):
        """Identical workloads; SSP's makespan <= BSP's."""
        def total_time(controller):
            engine = PsEngine(cluster2(machines=8, seed=3),
                              controller=controller)
            last = 0.0
            for _ in range(10):
                last = engine.run_step([0.5] * 8, model_size=10_000)
            return last

        assert total_time(SSP(staleness=3)) <= total_time(BSP())

    def test_overhead_added(self):
        base = PsEngine(cluster1(executors=2))
        t_plain = base.run_step([1.0, 1.0], model_size=100)
        with_oh = PsEngine(cluster1(executors=2))
        t_oh = with_oh.run_step([1.0, 1.0], model_size=100,
                                overhead_seconds=[2.0, 2.0])
        assert t_oh == pytest.approx(t_plain + 2.0)

    def test_validation(self):
        engine = PsEngine(cluster1(executors=2))
        with pytest.raises(ValueError):
            engine.run_step([1.0], model_size=100)
        with pytest.raises(ValueError):
            engine.run_step([1.0, -1.0], model_size=100)
