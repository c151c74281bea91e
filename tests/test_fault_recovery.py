"""Fault injection and recovery across the trainers (the PR 1 tentpole).

The design contract under test: **failures change the clock, never the
weights**.  A run with injected crashes must produce bit-identical
iterates to the failure-free run — only the simulated times, the trace
and the failure log differ.  On top of that, recovery must be faithful to
each system's communication pattern: losing an AllReduce owner stalls
every peer, losing a SendGradient executor delays only the driver fan-in.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (FailureEvent, FailureModel, RecoveryError,
                           build_failure_model, parse_failure_schedule)
from repro.core import (MLlibModelAveragingTrainer, MLlibStarTrainer,
                        MLlibTrainer, SparkMlStarTrainer, TrainerConfig)
from repro.data import SyntheticSpec, generate
from repro.glm import Objective
from repro.ps import AngelTrainer, PetuumStarTrainer

from conftest import assert_fault_trace_invariants


def fit_pair(trainer_cls, dataset, cluster, faulty_config, **kwargs):
    """Fit the same workload with and without the config's failures."""
    obj = Objective("hinge")
    clean_config = faulty_config.with_overrides(
        failure_rate=0.0, failure_schedule=None)
    clean = trainer_cls(obj, cluster, clean_config, **kwargs).fit(dataset)
    faulty = trainer_cls(obj, cluster, faulty_config, **kwargs).fit(dataset)
    return clean, faulty


# ----------------------------------------------------------------------
# schedule grammar
# ----------------------------------------------------------------------
class TestScheduleParsing:
    def test_simple_entry(self):
        (event,) = parse_failure_schedule("3@12")
        assert event == FailureEvent(executor=3, step=12)

    def test_phase_and_repeats(self):
        events = parse_failure_schedule("1@5:reduce_scatter, 0@2x5")
        assert events[0].phase == "reduce_scatter"
        assert events[0].executor == 1 and events[0].step == 5
        assert events[1].repeats == 5
        assert events[1].phase == "compute"

    def test_bad_entries_raise(self):
        with pytest.raises(ValueError, match="failure schedule"):
            parse_failure_schedule("nonsense")
        with pytest.raises(ValueError, match="integers"):
            parse_failure_schedule("a@b")
        for spec in ("1@2x", "1@2xa"):
            with pytest.raises(ValueError,
                               match=rf"{spec!r}.*EXECUTOR@STEP"):
                parse_failure_schedule(spec)
        with pytest.raises(ValueError, match="phase"):
            parse_failure_schedule("1@2:warp_drive")

    def test_build_composes(self):
        model = build_failure_model(rate=0.1, schedule="1@2", seed=7)
        assert model.enabled
        assert model.crash_event(2, "compute", 1, 0) is not None

    def test_build_defaults_to_disabled(self):
        assert not build_failure_model().enabled
        assert build_failure_model() == FailureModel()


class TestFailureModels:
    def test_random_failures_are_deterministic(self):
        a = FailureModel(rate=0.3, seed=5)
        b = FailureModel(rate=0.3, seed=5)
        outcomes_a = [a.crash_event(s, "compute", e, 0) is not None
                      for s in range(1, 30) for e in range(4)]
        outcomes_b = [b.crash_event(s, "compute", e, 0) is not None
                      for s in range(1, 30) for e in range(4)]
        assert outcomes_a == outcomes_b
        assert any(outcomes_a) and not all(outcomes_a)

    def test_random_failures_vary_with_seed(self):
        a = FailureModel(rate=0.3, seed=5)
        b = FailureModel(rate=0.3, seed=6)
        outcomes = [(a.crash_event(s, "compute", e, 0) is None)
                    == (b.crash_event(s, "compute", e, 0) is None)
                    for s in range(1, 40) for e in range(4)]
        assert not all(outcomes)

    def test_scheduled_repeats_gate_attempts(self):
        model = FailureModel(events=(FailureEvent(0, 2, repeats=2),))
        assert model.crash_event(2, "compute", 0, 0) is not None
        assert model.crash_event(2, "compute", 0, 1) is not None
        assert model.crash_event(2, "compute", 0, 2) is None
        assert model.crash_event(3, "compute", 0, 0) is None

    def test_schedule_fires_before_the_rate(self):
        # On an attempt where the rate would crash too, the scripted
        # event (repeats=2, unlike the rate's) is returned; once its
        # repeats are spent the seeded draw decides again.
        event = FailureEvent(1, 2, repeats=2)
        rated = FailureModel(rate=0.99, seed=0)
        both = FailureModel(rate=0.99, seed=0, events=(event,))
        drawn = [rated.crash_event(2, "compute", 1, a) for a in range(3)]
        assert None not in drawn and event not in drawn
        assert [both.crash_event(2, "compute", 1, a)
                for a in range(3)] == [event, event, drawn[2]]


# ----------------------------------------------------------------------
# crash at a step: clock stretches, weights don't
# ----------------------------------------------------------------------
BSP_TRAINERS = [MLlibTrainer, MLlibModelAveragingTrainer, MLlibStarTrainer]


class TestCrashAtStep:
    @pytest.mark.parametrize("trainer_cls", BSP_TRAINERS)
    def test_weights_identical_time_larger(self, trainer_cls, tiny_dataset,
                                           small_cluster, fault_config):
        clean, faulty = fit_pair(trainer_cls, tiny_dataset, small_cluster,
                                 fault_config("2@2"))
        np.testing.assert_array_equal(clean.model.weights,
                                      faulty.model.weights)
        assert faulty.history.objectives() == clean.history.objectives()
        assert faulty.history.total_seconds > clean.history.total_seconds
        assert len(faulty.failures) == 1
        assert faulty.failures[0].node == "executor-3"
        assert faulty.failures[0].step == 2
        assert faulty.recovery_seconds > 0
        assert clean.recovery_seconds == 0 and not clean.failures
        assert_fault_trace_invariants(faulty)
        assert_fault_trace_invariants(clean)

    def test_mllib_aggregate_crash_redoes_compute(self, tiny_dataset,
                                                  small_cluster,
                                                  fault_config):
        """A treeAggregate crash voids the in-memory gradient: the retry
        carries a compute span (the redo) before the resend."""
        clean, faulty = fit_pair(MLlibTrainer, tiny_dataset, small_cluster,
                                 fault_config("2@2:aggregate"))
        np.testing.assert_array_equal(clean.model.weights,
                                      faulty.model.weights)
        spans = [s for s in faulty.trace.spans_for("executor-3")
                 if s.step == 2]
        kinds = [s.kind for s in spans]
        assert "recovery" in kinds
        # redo compute happens after the recovery span
        recovery_end = max(s.end for s in spans if s.kind == "recovery")
        assert any(s.kind == "compute" and s.start >= recovery_end
                   for s in spans)
        assert_fault_trace_invariants(faulty)

    def test_multiple_scheduled_crashes(self, tiny_dataset, small_cluster,
                                        fault_config):
        clean, faulty = fit_pair(MLlibStarTrainer, tiny_dataset,
                                 small_cluster, fault_config("0@1,3@3"))
        np.testing.assert_array_equal(clean.model.weights,
                                      faulty.model.weights)
        assert {(f.node, f.step) for f in faulty.failures} == {
            ("executor-1", 1), ("executor-4", 3)}
        assert_fault_trace_invariants(faulty)

    def test_random_failures_reproducible_run_to_run(self, tiny_dataset,
                                                     small_cluster,
                                                     fault_config):
        config = fault_config(None, failure_rate=0.2, seed=9)
        obj = Objective("hinge")
        first = MLlibTrainer(obj, small_cluster, config).fit(tiny_dataset)
        second = MLlibTrainer(obj, small_cluster, config).fit(tiny_dataset)
        assert first.failures == second.failures
        assert first.failures  # rate 0.2 over 4x4 attempts: ~never empty
        assert (first.history.total_seconds
                == second.history.total_seconds)
        np.testing.assert_array_equal(first.model.weights,
                                      second.model.weights)


# ----------------------------------------------------------------------
# the AllReduce asymmetry: a lost owner stalls every peer
# ----------------------------------------------------------------------
class TestCrashDuringReduceScatter:
    def test_owner_loss_stalls_all_peers(self, tiny_dataset, small_cluster,
                                         fault_config):
        clean, faulty = fit_pair(
            MLlibStarTrainer, tiny_dataset, small_cluster,
            fault_config("1@2:reduce_scatter"))
        np.testing.assert_array_equal(clean.model.weights,
                                      faulty.model.weights)
        assert faulty.failures[0].phase == "reduce_scatter"
        # Every *other* executor pays for the owner's recovery as barrier
        # wait: their wait time strictly exceeds the clean run's.
        for i in (0, 2, 3):
            label = f"executor-{i + 1}"
            assert (faulty.trace.wait_seconds(label)
                    > clean.trace.wait_seconds(label))
        assert_fault_trace_invariants(faulty)

    def test_recovered_owner_pays_peer_refill(self, tiny_dataset,
                                              small_cluster, fault_config):
        """After the owner restarts, peers re-send their pieces: the retry
        timeline carries a recv (refill fan-in) span."""
        _, faulty = fit_pair(MLlibStarTrainer, tiny_dataset, small_cluster,
                             fault_config("1@2:reduce_scatter"))
        spans = [s for s in faulty.trace.spans_for("executor-2")
                 if s.step == 2]
        recovery_end = max(s.end for s in spans if s.kind == "recovery")
        assert any(s.kind == "recv" and s.start >= recovery_end
                   for s in spans)

    def test_sendgradient_crash_does_not_stall_compute_peers(
            self, tiny_dataset, small_cluster, fault_config):
        """The contrast case: in MLlib a compute-phase crash costs peers
        only the barrier-to-slowest time they already risk, and the driver
        fan-in shifts — there is no peer re-send."""
        _, faulty = fit_pair(MLlibTrainer, tiny_dataset, small_cluster,
                             fault_config("1@2"))
        recovered = [s for s in faulty.trace.spans_for("executor-2")
                     if s.step == 2]
        recovery_end = max(s.end for s in recovered
                           if s.kind == "recovery")
        after = sorted((s for s in recovered
                        if s.start >= recovery_end - 1e-12
                        and s.kind != "recovery"),
                       key=lambda s: s.start)
        # The retry is just the redone compute; the broadcast recv at the
        # end of the step is the only recv, exactly as in a clean run.
        assert after[0].kind == "compute"
        assert sum(1 for s in recovered if s.kind == "recv") == 1


# ----------------------------------------------------------------------
# retry exhaustion
# ----------------------------------------------------------------------
class TestRetryExhaustion:
    @pytest.mark.parametrize("trainer_cls", [MLlibTrainer, MLlibStarTrainer])
    def test_crash_past_max_retries_raises(self, trainer_cls, tiny_dataset,
                                           small_cluster, fault_config):
        config = fault_config("2@2x3", max_retries=2)
        trainer = trainer_cls(Objective("hinge"), small_cluster, config)
        with pytest.raises(RecoveryError, match="retry budget"):
            trainer.fit(tiny_dataset)

    @pytest.mark.parametrize("trainer_cls", [MLlibTrainer, MLlibStarTrainer])
    def test_budget_exactly_sufficient(self, trainer_cls, tiny_dataset,
                                       small_cluster, fault_config):
        """repeats == max_retries: the last permitted retry succeeds."""
        clean, faulty = fit_pair(trainer_cls, tiny_dataset, small_cluster,
                                 fault_config("2@2x2", max_retries=2))
        np.testing.assert_array_equal(clean.model.weights,
                                      faulty.model.weights)
        assert len(faulty.failures) == 2
        assert [f.attempt for f in faulty.failures] == [0, 1]
        assert_fault_trace_invariants(faulty)

    def test_zero_retries(self, tiny_dataset, small_cluster, fault_config):
        config = fault_config("0@1", max_retries=0)
        trainer = MLlibTrainer(Objective("hinge"), small_cluster, config)
        with pytest.raises(RecoveryError):
            trainer.fit(tiny_dataset)


# ----------------------------------------------------------------------
# checkpoint / restore
# ----------------------------------------------------------------------
class TestCheckpointRestore:
    def test_restore_resumes_identically(self, tiny_dataset, small_cluster,
                                         fault_config):
        for trainer_cls in (MLlibTrainer, MLlibStarTrainer):
            clean, faulty = fit_pair(
                trainer_cls, tiny_dataset, small_cluster,
                fault_config("1@3", checkpoint_every=2))
            np.testing.assert_array_equal(clean.model.weights,
                                          faulty.model.weights)
            assert faulty.history.objectives() == clean.history.objectives()
            checkpoints = [s for s in faulty.trace.spans
                           if s.kind == "checkpoint"]
            assert checkpoints, "checkpoint_every=2 must write checkpoints"
            assert_fault_trace_invariants(faulty)

    def test_checkpoints_cost_time_without_failures(self, tiny_dataset,
                                                    small_cluster,
                                                    fault_config):
        clean = MLlibTrainer(
            Objective("hinge"), small_cluster,
            fault_config(None)).fit(tiny_dataset)
        ckpt = MLlibTrainer(
            Objective("hinge"), small_cluster,
            fault_config(None, checkpoint_every=1)).fit(tiny_dataset)
        np.testing.assert_array_equal(clean.model.weights,
                                      ckpt.model.weights)
        assert ckpt.history.total_seconds > clean.history.total_seconds

    def test_restore_reads_checkpoint_not_lineage(self, small_dataset,
                                                  small_cluster,
                                                  fault_config):
        """With a checkpoint on disk and restart cost zeroed, the recovery
        downtime is exactly one checkpoint read — not a lineage rebuild."""
        result = MLlibTrainer(
            Objective("hinge"), small_cluster,
            fault_config("1@3", checkpoint_every=2,
                         restart_seconds=0.0)).fit(small_dataset)
        ckpt = next(s for s in result.trace.spans
                    if s.kind == "checkpoint")
        recovery = [s for s in result.trace.spans if s.kind == "recovery"]
        assert len(recovery) == 1
        assert recovery[0].duration == pytest.approx(ckpt.duration)


# ----------------------------------------------------------------------
# PS-side trainers
# ----------------------------------------------------------------------
class TestParameterServerRecovery:
    @pytest.mark.parametrize("trainer_cls", [PetuumStarTrainer,
                                             AngelTrainer])
    def test_crash_preserves_weights(self, trainer_cls, tiny_dataset,
                                     small_cluster, fault_config):
        clean, faulty = fit_pair(trainer_cls, tiny_dataset, small_cluster,
                                 fault_config("2@2"))
        np.testing.assert_array_equal(clean.model.weights,
                                      faulty.model.weights)
        assert faulty.history.total_seconds > clean.history.total_seconds
        assert len(faulty.failures) == 1
        assert faulty.failures[0].node == "worker-3"
        assert_fault_trace_invariants(faulty)

    def test_ps_retry_exhaustion(self, tiny_dataset, small_cluster,
                                 fault_config):
        config = fault_config("0@2x4", max_retries=1)
        trainer = PetuumStarTrainer(Objective("hinge"), small_cluster,
                                    config)
        with pytest.raises(RecoveryError, match="retry budget"):
            trainer.fit(tiny_dataset)


# ----------------------------------------------------------------------
# trace traffic across a crash: delivered values only
# ----------------------------------------------------------------------
class TestCrashTraffic:
    def test_cut_send_delivers_nothing_and_refill_is_counted(self):
        from repro.cluster import cluster1
        from repro.engine import BspEngine
        k, m = 8, 1000
        engine = BspEngine(
            cluster1(executors=k),
            faults=build_failure_model(schedule="1@1:reduce_scatter",
                                       num_executors=k))
        engine.reduce_scatter_phase(m, 1, redo_seconds=[0.01] * k)
        crashed = engine.trace.spans_for("executor-2")
        kinds = [s.kind for s in crashed]
        assert kinds[:3] == ["send", "recovery", "compute"]
        assert crashed[0].values == 0.0  # cut short: nothing delivered
        refill = crashed[kinds.index("recv")]
        piece = m / k
        assert refill.values == (k - 1) * piece  # every peer re-sends
        # The seven healthy senders each delivered their k - 1 pieces.
        assert engine.trace.traffic_values(step=1) == (
            (k - 1) * (k - 1) * piece + refill.values)


# ----------------------------------------------------------------------
# satellite 4: clear error when num_executors > model_size
# ----------------------------------------------------------------------
class TestTooManyExecutors:
    def narrow_dataset(self):
        return generate(SyntheticSpec(n_rows=64, n_features=3,
                                      nnz_per_row=2.0, seed=1),
                        name="narrow")

    def test_mllib_star_raises_clearly(self, small_cluster):
        trainer = MLlibStarTrainer(Objective("hinge"), small_cluster,
                                   TrainerConfig(max_steps=1))
        with pytest.raises(ValueError, match="num_executors > model_size"):
            trainer.fit(self.narrow_dataset())

    def test_spark_ml_star_raises_clearly(self, small_cluster):
        trainer = SparkMlStarTrainer(Objective("squared"), small_cluster,
                                     TrainerConfig(max_steps=1))
        with pytest.raises(ValueError, match="num_executors > model_size"):
            trainer.fit(self.narrow_dataset())

    def test_engine_level_guard(self, small_cluster):
        from repro.engine import BspEngine
        engine = BspEngine(small_cluster)
        with pytest.raises(ValueError, match="num_executors > model_size"):
            engine.reduce_scatter_phase(3, step=1)
        with pytest.raises(ValueError, match="num_executors > model_size"):
            engine.all_gather_phase(2, step=1)

    def test_mllib_unaffected(self, small_cluster):
        """SendGradient has no per-owner partitioning: small models fine."""
        result = MLlibTrainer(Objective("hinge"), small_cluster,
                              TrainerConfig(max_steps=2)).fit(
            self.narrow_dataset())
        assert result.history.total_steps == 2
