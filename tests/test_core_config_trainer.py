"""Unit tests for repro.core.config and the trainer template."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from data.make_golden import SYSTEMS, golden_workload
from repro.core import (MLlibModelAveragingTrainer, MLlibStarTrainer,
                        MLlibTrainer, TrainerConfig, TrainResult)
from repro.glm import Objective


class TestTrainerConfig:
    def test_defaults_valid(self):
        TrainerConfig()

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", 0.0),
        ("lr_schedule", "bogus"),
        ("batch_fraction", 0.0),
        ("batch_fraction", 1.5),
        ("local_epochs", 0),
        ("local_chunk_size", 0),
        ("max_steps", 0),
        ("eval_every", 0),
        ("divergence_limit", 0.0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            TrainerConfig(**{field: value})

    def test_with_overrides(self):
        base = TrainerConfig(max_steps=10)
        other = base.with_overrides(max_steps=20, learning_rate=0.5)
        assert other.max_steps == 20
        assert other.learning_rate == 0.5
        assert base.max_steps == 10  # original untouched

    def test_frozen(self):
        with pytest.raises(AttributeError):
            TrainerConfig().max_steps = 5


class TestFitLoop:
    def test_history_starts_at_step_zero(self, tiny_dataset, small_cluster):
        trainer = MLlibStarTrainer(Objective("hinge"), small_cluster,
                                   TrainerConfig(max_steps=3))
        result = trainer.fit(tiny_dataset)
        assert result.history.points[0].step == 0
        assert result.history.points[0].seconds == 0.0

    def test_history_lengths(self, tiny_dataset, small_cluster):
        trainer = MLlibStarTrainer(Objective("hinge"), small_cluster,
                                   TrainerConfig(max_steps=5))
        result = trainer.fit(tiny_dataset)
        assert len(result.history) == 6  # step 0 + 5 steps

    def test_eval_every_thins_history(self, tiny_dataset, small_cluster):
        trainer = MLlibTrainer(Objective("hinge"), small_cluster,
                               TrainerConfig(max_steps=10, eval_every=5))
        result = trainer.fit(tiny_dataset)
        assert [p.step for p in result.history] == [0, 5, 10]

    def test_final_step_always_evaluated(self, tiny_dataset, small_cluster):
        trainer = MLlibTrainer(Objective("hinge"), small_cluster,
                               TrainerConfig(max_steps=7, eval_every=5))
        result = trainer.fit(tiny_dataset)
        assert result.history.points[-1].step == 7

    def test_early_stop_on_threshold(self, tiny_dataset, small_cluster):
        trainer = MLlibStarTrainer(
            Objective("hinge"), small_cluster,
            TrainerConfig(max_steps=50, stop_threshold=0.9))
        result = trainer.fit(tiny_dataset)
        assert result.converged
        assert result.history.total_steps < 50

    def test_simulated_time_monotone(self, tiny_dataset, small_cluster):
        trainer = MLlibStarTrainer(Objective("hinge"), small_cluster,
                                   TrainerConfig(max_steps=5))
        secs = trainer.fit(tiny_dataset).history.seconds()
        assert secs == sorted(secs)
        assert secs[-1] > 0

    def test_deterministic_given_seed(self, tiny_dataset, small_cluster):
        def run():
            trainer = MLlibStarTrainer(Objective("hinge"), small_cluster,
                                       TrainerConfig(max_steps=4, seed=3))
            return trainer.fit(tiny_dataset)
        a, b = run(), run()
        assert np.array_equal(a.model.weights, b.model.weights)
        assert a.history.objectives() == b.history.objectives()
        assert a.history.seconds() == b.history.seconds()

    def test_result_fields(self, tiny_dataset, small_cluster):
        trainer = MLlibStarTrainer(Objective("hinge"), small_cluster,
                                   TrainerConfig(max_steps=2))
        result = trainer.fit(tiny_dataset)
        assert isinstance(result, TrainResult)
        assert result.model.dim == tiny_dataset.n_features
        assert len(result.trace) > 0
        assert not result.diverged
        assert result.final_objective == result.history.final_objective


class TestRefitResetsSessionState:
    """The base owns the per-worker RNG streams and dual blocks and
    rebuilds them per session: a second ``fit`` on the same trainer
    object is the same computation, not a continuation of the first."""

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_second_fit_is_bit_identical(self, system):
        trainer_cls, loss = SYSTEMS[system]
        dataset, cluster, config = golden_workload()
        trainer = trainer_cls(Objective(loss, "l2", 0.1), cluster, config)
        first, second = trainer.fit(dataset), trainer.fit(dataset)
        assert np.array_equal(second.model.weights, first.model.weights)
        assert list(second.history.points) == list(first.history.points)
        assert len(second.trace) == len(first.trace)

    @pytest.mark.parametrize("trainer_cls", [MLlibStarTrainer,
                                             MLlibModelAveragingTrainer])
    def test_second_dual_fit_starts_from_fresh_blocks(self, trainer_cls):
        dataset, cluster, config = golden_workload()
        config = dataclasses.replace(config, local_solver="cocoa+",
                                     local_iters=2)
        trainer = trainer_cls(Objective("hinge", "l2", 0.1), cluster, config)
        first, second = trainer.fit(dataset), trainer.fit(dataset)
        # alpha = 0 again at step 0, and the same RNG streams after it.
        assert second.duality_gaps[0] == first.duality_gaps[0]
        assert second.duality_gaps == first.duality_gaps
        assert np.array_equal(second.model.weights, first.model.weights)


class TestTasksPerExecutor:
    """Only MLlib runs waves of tasks per executor; every other system
    rejects the field by name instead of silently running one wave."""

    @pytest.mark.parametrize("system",
                             sorted(set(SYSTEMS) - {"MLlib"}))
    def test_rejected_by_name(self, system):
        trainer_cls, loss = SYSTEMS[system]
        dataset, cluster, config = golden_workload()
        trainer = trainer_cls(Objective(loss, "l2", 0.1), cluster,
                              config.with_overrides(tasks_per_executor=4))
        with pytest.raises(ValueError, match=(
                "does not support tasks_per_executor=4")):
            trainer.fit(dataset)

    def test_cli_exits_1(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-m", "repro", "train", "--system", "MLlib*",
             "--dataset", "avazu", "--executors", "4", "--steps", "3",
             "--tasks-per-executor", "4"],
            env=env, capture_output=True, text=True)
        assert run.returncode == 1
        assert "does not support tasks_per_executor=4" in run.stderr
