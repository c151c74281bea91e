"""Unit tests for repro.ps.engine."""

import pytest

from repro.cluster import cluster1, cluster2
from repro.ps import BSP, SSP, PsEngine
from repro.ps.engine import worker_label


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

    def test_rejected_step_leaves_no_state(self):
        """A bad duration is refused before any span, record or finish
        time is written, so the next step sees consistent histories."""
        engine = PsEngine(cluster1(executors=4), controller=BSP())
        twin = PsEngine(cluster1(executors=4), controller=BSP())
        for e in (engine, twin):
            e.run_step([0.1] * 4, 100)

        def state():
            return (len(engine.trace), len(engine.comm_records), engine.now,
                    [list(f) for f in engine._finish_times])

        before = state()
        for compute, overhead in (([0.1, 0.1, -1.0, 0.1], None),
                                  ([0.1] * 4, [0.0, 0.0, 0.0, -1.0])):
            with pytest.raises(ValueError, match="non-negative"):
                engine.run_step(compute, 100, overhead_seconds=overhead)
            assert state() == before
        assert (engine.run_step([0.2] * 4, 100)
                == twin.run_step([0.2] * 4, 100))
