"""Regression: failure schedules that could never fire are rejected.

A scripted crash aimed at executor ``i`` on a cluster with ``k <= i``
executors used to be silently inert — the run completed with zero
failures and the experiment measured nothing.  ``build_failure_model``
and both engines now validate the schedule against the actual cluster
size and raise ``ValueError`` up front.
"""

from __future__ import annotations

import pytest

from repro.cluster import cluster1
from repro.cluster.faults import (FailureModel, build_failure_model,
                                  parse_failure_schedule)
from repro.core import MLlibStarTrainer, TrainerConfig
from repro.engine.driver import BspEngine
from repro.glm import Objective
from repro.ps import PetuumTrainer
from repro.ps.engine import PsEngine


def test_build_failure_model_rejects_out_of_cluster_executor():
    with pytest.raises(ValueError, match="executor 9"):
        build_failure_model(0.0, "9@3", 0, num_executors=4)


def test_build_failure_model_error_names_step_and_bounds():
    with pytest.raises(ValueError,
                       match=r"executor 5 at step 2.*only 4 executors"
                             r".*0\.\.3.*never fire"):
        build_failure_model(0.0, "5@2", 0, num_executors=4)


def test_build_failure_model_accepts_in_range_schedule():
    model = build_failure_model(0.0, "3@2", 0, num_executors=4)
    assert model.events == tuple(parse_failure_schedule("3@2"))
    assert model.enabled and model.rate == 0.0


def test_build_failure_model_without_cluster_size_defers():
    # No num_executors: construction-time validation is the caller's job
    # (the engines do it); parsing alone must not fail.
    model = build_failure_model(0.0, "9@3", 0)
    with pytest.raises(ValueError):
        model.validate_executors(4)
    model.validate_executors(10)


def test_composite_model_validates_every_member():
    # A schedule plus a rate is one model; every event is checked.
    composite = build_failure_model(0.1, "1@2,7@3", 5)
    assert composite.enabled and composite.rate == 0.1
    with pytest.raises(ValueError, match="executor 7"):
        composite.validate_executors(4)
    composite.validate_executors(8)


def test_unscripted_models_validate_cluster_size_only():
    FailureModel().validate_executors(1)
    FailureModel(rate=0.1, seed=0).validate_executors(1)
    with pytest.raises(ValueError, match="at least one executor"):
        FailureModel().validate_executors(0)
    with pytest.raises(ValueError, match="at least one executor"):
        FailureModel(rate=0.1, seed=0).validate_executors(0)


def test_bsp_engine_rejects_impossible_schedule_at_construction():
    cluster = cluster1(executors=4)
    faults = FailureModel(events=tuple(parse_failure_schedule("6@1")))
    with pytest.raises(ValueError, match="executor 6"):
        BspEngine(cluster, faults=faults)


def test_ps_engine_rejects_impossible_schedule_at_construction():
    cluster = cluster1(executors=4)
    faults = FailureModel(events=tuple(parse_failure_schedule("6@1")))
    with pytest.raises(ValueError, match="executor 6"):
        PsEngine(cluster, faults=faults)


@pytest.mark.parametrize("trainer_cls", [MLlibStarTrainer, PetuumTrainer])
def test_trainer_construction_fails_fast(trainer_cls):
    config = TrainerConfig(max_steps=2, failure_schedule="8@1", seed=0)
    with pytest.raises(ValueError, match="executor 8"):
        trainer_cls(Objective("hinge"), cluster1(executors=4), config)


def test_trainer_accepts_boundary_executor(tiny_dataset):
    # executor index k-1 is the last valid target; the run must both
    # construct and actually exercise the scripted crash.
    config = TrainerConfig(max_steps=3, failure_schedule="3@2",
                           batch_fraction=0.25, seed=0)
    trainer = MLlibStarTrainer(Objective("hinge"), cluster1(executors=4),
                               config)
    result = trainer.fit(tiny_dataset)
    assert len(result.failures) == 1
    assert result.failures[0].node == "executor-4"
