"""Behavioural tests for the three Spark-side trainers."""

import numpy as np
import pytest

from repro.core import (MLlibModelAveragingTrainer, MLlibStarTrainer,
                        MLlibTrainer, TrainerConfig)
from repro.engine import DRIVER_LABEL
from repro.glm import Objective


CFG = TrainerConfig(max_steps=8, learning_rate=0.1, seed=1)


class TestMLlib:
    def test_objective_decreases(self, tiny_dataset, small_cluster):
        result = MLlibTrainer(Objective("hinge"), small_cluster, CFG).fit(
            tiny_dataset)
        objs = result.history.objectives()
        assert objs[-1] < objs[0]

    def test_driver_is_busy(self, tiny_dataset, small_cluster):
        result = MLlibTrainer(Objective("hinge"), small_cluster, CFG).fit(
            tiny_dataset)
        assert result.trace.busy_seconds(DRIVER_LABEL) > 0

    def test_one_update_per_step(self, tiny_dataset, small_cluster):
        """SendGradient: driver 'update' spans == number of steps."""
        result = MLlibTrainer(Objective("hinge"), small_cluster, CFG).fit(
            tiny_dataset)
        updates = [s for s in result.trace.spans_for(DRIVER_LABEL)
                   if s.kind == "update"]
        assert len(updates) == result.history.total_steps

    def test_executors_wait_during_driver_work(self, tiny_dataset,
                                               small_cluster):
        result = MLlibTrainer(Objective("hinge"), small_cluster, CFG).fit(
            tiny_dataset)
        waits = sum(result.trace.wait_seconds(f"executor-{i + 1}")
                    for i in range(4))
        assert waits > 0


class TestMLlibMA:
    def test_converges_faster_than_mllib_per_step(self, small_dataset,
                                                  small_cluster):
        """Model averaging: many updates per step => lower objective after
        the same number of communication steps."""
        obj = Objective("hinge")
        mllib = MLlibTrainer(obj, small_cluster, CFG).fit(small_dataset)
        ma = MLlibModelAveragingTrainer(obj, small_cluster, CFG).fit(
            small_dataset)
        assert ma.final_objective < mllib.final_objective

    def test_still_uses_driver(self, tiny_dataset, small_cluster):
        result = MLlibModelAveragingTrainer(
            Objective("hinge"), small_cluster, CFG).fit(tiny_dataset)
        assert result.trace.busy_seconds(DRIVER_LABEL) > 0


class TestMLlibStar:
    def test_matches_ma_numerics_exactly(self, small_dataset, small_cluster):
        """AllReduce changes the communication pattern, NOT the math:
        MLlib* and MLlib+MA must produce identical iterates."""
        obj = Objective("hinge", "l2", 0.1)
        ma = MLlibModelAveragingTrainer(obj, small_cluster, CFG).fit(
            small_dataset)
        star = MLlibStarTrainer(obj, small_cluster, CFG).fit(small_dataset)
        assert np.allclose(ma.model.weights, star.model.weights)
        assert ma.history.objectives() == pytest.approx(
            star.history.objectives())

    def test_driver_does_no_data_work(self, tiny_dataset, small_cluster):
        result = MLlibStarTrainer(Objective("hinge"), small_cluster,
                                  CFG).fit(tiny_dataset)
        assert result.trace.busy_seconds(DRIVER_LABEL) == 0.0

    def test_faster_steps_than_ma_for_large_models(self, small_cluster):
        """With a big model, MLlib* steps must be cheaper than MLlib+MA's
        (same local math; cheaper communication)."""
        from repro.data import SyntheticSpec, generate
        big = generate(SyntheticSpec(n_rows=400, n_features=30_000,
                                     nnz_per_row=10.0, seed=5), "bigmodel")
        obj = Objective("hinge")
        cfg = TrainerConfig(max_steps=3, seed=1)
        ma = MLlibModelAveragingTrainer(obj, small_cluster, cfg).fit(big)
        star = MLlibStarTrainer(obj, small_cluster, cfg).fit(big)
        assert star.history.total_seconds < ma.history.total_seconds

    def test_model_smaller_than_executors_rejected(self, small_cluster):
        from repro.data import SyntheticSpec, generate
        micro = generate(SyntheticSpec(n_rows=50, n_features=3,
                                       nnz_per_row=2.0, seed=1), "micro")
        trainer = MLlibStarTrainer(Objective("hinge"), small_cluster, CFG)
        with pytest.raises(ValueError, match="partition"):
            trainer.fit(micro)


class TestLearningRateSchedules:
    def test_inv_sqrt_schedule_used(self, tiny_dataset, small_cluster):
        cfg = CFG.with_overrides(lr_schedule="inv_sqrt")
        result = MLlibTrainer(Objective("hinge"), small_cluster, cfg).fit(
            tiny_dataset)
        assert result.history.final_objective < 1.0
