"""Tests for multi-wave task scheduling."""

import numpy as np
import pytest

from repro.core import MLlibTrainer, TrainerConfig
from repro.data import SyntheticSpec, generate
from repro.engine import TreeAggregateModel
from repro.glm import Objective


@pytest.fixture
def ds():
    return generate(SyntheticSpec(n_rows=500, n_features=40, seed=6),
                    name="split-me")


class TestWaves:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(tasks_per_executor=0)

    def test_tree_timing_scales_with_messages(self):
        from repro.cluster import cluster1
        model = TreeAggregateModel(depth=2)
        cluster = cluster1()
        one = model.timing(cluster, 100_000, messages_per_executor=1)
        four = model.timing(cluster, 100_000, messages_per_executor=4)
        assert four.aggregator_seconds > 2 * one.aggregator_seconds

    def test_tree_timing_rejects_zero_messages(self):
        from repro.cluster import cluster1
        with pytest.raises(ValueError):
            TreeAggregateModel().timing(cluster1(), 100,
                                        messages_per_executor=0)

    def test_more_waves_more_time(self, ds, small_cluster):
        obj = Objective("hinge")
        times = {}
        for waves in (1, 4):
            cfg = TrainerConfig(max_steps=3, batch_fraction=0.2,
                                tasks_per_executor=waves, seed=1)
            result = MLlibTrainer(obj, small_cluster, cfg).fit(ds)
            times[waves] = result.history.total_seconds
        assert times[4] > times[1]

    def test_single_wave_unchanged_numerics(self, ds, small_cluster):
        """waves=1 must match the pre-feature behaviour exactly."""
        obj = Objective("hinge")
        cfg = TrainerConfig(max_steps=4, batch_fraction=0.2, seed=1)
        a = MLlibTrainer(obj, small_cluster, cfg).fit(ds)
        b = MLlibTrainer(obj, small_cluster,
                         cfg.with_overrides(tasks_per_executor=1)).fit(ds)
        assert np.array_equal(a.model.weights, b.model.weights)

    def test_waves_still_converge(self, ds, small_cluster):
        obj = Objective("hinge")
        cfg = TrainerConfig(max_steps=10, batch_fraction=0.2,
                            tasks_per_executor=3, seed=1)
        result = MLlibTrainer(obj, small_cluster, cfg).fit(ds)
        assert result.final_objective < result.history.objectives()[0]
