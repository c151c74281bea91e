"""Behavioural tests for the parameter-server trainers."""

import numpy as np
import pytest

from repro.core import TrainerConfig
from repro.data import SyntheticSpec, generate
from repro.glm import Objective
from repro.ps import (BSP, SSP, AngelTrainer, PetuumStarTrainer,
                      PetuumTrainer)


CFG = TrainerConfig(max_steps=10, learning_rate=0.05, batch_fraction=0.2,
                    seed=1)


class TestPetuum:
    def test_runs_and_records(self, tiny_dataset, small_cluster):
        result = PetuumTrainer(Objective("hinge"), small_cluster, CFG).fit(
            tiny_dataset)
        assert len(result.history) == 11

    def test_summation_diverges_with_aggressive_rate(self, small_dataset,
                                                     small_cluster):
        """Model summation's known failure mode (Section IV-B1 remark):
        with k workers each pushing a full delta, the effective step is
        k * eta, which blows up where averaging stays stable."""
        obj = Objective("squared")
        cfg = TrainerConfig(max_steps=40, learning_rate=0.1,
                            batch_fraction=0.5, local_chunk_size=1000,
                            seed=1)
        summation = PetuumTrainer(obj, small_cluster, cfg).fit(small_dataset)
        averaging = PetuumStarTrainer(obj, small_cluster, cfg).fit(
            small_dataset)
        assert summation.diverged or (
            summation.final_objective > 10 * averaging.final_objective)
        assert not averaging.diverged

    def test_regularized_petuum_one_update_per_step(self, tiny_dataset,
                                                    small_cluster):
        """With L2 != 0 Petuum does plain GD per batch => objective falls
        slowly compared to the unregularized parallel-SGD mode."""
        reg = PetuumStarTrainer(Objective("hinge", "l2", 0.1),
                                small_cluster, CFG).fit(tiny_dataset)
        assert reg.history.final_objective < reg.history.objectives()[0]

    def test_uses_ssp_by_default(self, small_cluster):
        trainer = PetuumTrainer(Objective("hinge"), small_cluster, CFG)
        assert isinstance(trainer._controller, SSP)


class TestPetuumStar:
    def test_averaging_beats_summation_stability(self, small_dataset,
                                                 small_cluster):
        obj = Objective("hinge")
        star = PetuumStarTrainer(obj, small_cluster, CFG).fit(small_dataset)
        assert not star.diverged
        assert star.final_objective < star.history.objectives()[0]

    def test_system_names(self, small_cluster):
        assert PetuumTrainer(Objective("hinge"), small_cluster).system == (
            "Petuum")
        assert PetuumStarTrainer(Objective("hinge"),
                                 small_cluster).system == "Petuum*"


class TestAngel:
    def test_objective_decreases(self, tiny_dataset, small_cluster):
        result = AngelTrainer(Objective("hinge"), small_cluster, CFG).fit(
            tiny_dataset)
        objs = result.history.objectives()
        assert objs[-1] < objs[0]

    def test_uses_bsp_by_default(self, small_cluster):
        trainer = AngelTrainer(Objective("hinge"), small_cluster, CFG)
        assert isinstance(trainer._controller, BSP)

    def test_small_batches_cost_more_time(self, tiny_dataset, small_cluster):
        """Section V-B2: per-batch buffer allocation penalizes small
        batches — same epochs, more simulated seconds."""
        obj = Objective("hinge")
        small_batches = AngelTrainer(
            obj, small_cluster,
            CFG.with_overrides(batch_fraction=0.01)).fit(tiny_dataset)
        large_batches = AngelTrainer(
            obj, small_cluster,
            CFG.with_overrides(batch_fraction=0.5)).fit(tiny_dataset)
        assert (small_batches.history.total_seconds
                > large_batches.history.total_seconds)

    def test_per_epoch_communication(self, tiny_dataset, small_cluster):
        """One send span per worker per step (epoch), however many batches
        the epoch contains."""
        result = AngelTrainer(Objective("hinge"), small_cluster,
                              CFG.with_overrides(max_steps=3,
                                                 batch_fraction=0.05),
                              ).fit(tiny_dataset)
        sends = [s for s in result.trace.spans_for("worker-1")
                 if s.kind == "send"]
        assert len(sends) == 3


class TestCrossSystem:
    def test_all_ps_systems_deterministic(self, tiny_dataset, small_cluster):
        for cls in (PetuumTrainer, PetuumStarTrainer, AngelTrainer):
            a = cls(Objective("hinge"), small_cluster, CFG).fit(tiny_dataset)
            b = cls(Objective("hinge"), small_cluster, CFG).fit(tiny_dataset)
            assert np.array_equal(a.model.weights, b.model.weights), cls

    @pytest.mark.parametrize(
        "cls", [PetuumTrainer, PetuumStarTrainer, AngelTrainer])
    def test_fits_fewer_features_than_executors(self, cls, small_cluster):
        """The servers combine whole models, so no system needs a
        coordinate per worker: 3 features train on 4 executors."""
        narrow = generate(SyntheticSpec(n_rows=80, n_features=3,
                                        nnz_per_row=2.0, seed=5),
                          name="narrow")
        result = cls(Objective("hinge"), small_cluster,
                     CFG.with_overrides(max_steps=3)).fit(narrow)
        assert result.history.total_steps == 3
        assert result.model.weights.shape == (3,)
