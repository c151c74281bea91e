"""Unit tests for repro.planner (step-cost advisor priced by the engines)."""

import pytest

from repro.cli import SYSTEMS
from repro.cluster import cluster1, cluster2
from repro.core import TrainerConfig
from repro.data import SyntheticSpec, generate
from repro.engine import BspEngine
from repro.glm import Objective
from repro.planner import (ADVISABLE_SYSTEMS, WorkloadProfile,
                           estimate_step_cost, rank_systems)

CLUSTERS = {"cluster1x4": lambda: cluster1(executors=4),
            "cluster2x8": lambda: cluster2(machines=8)}


@pytest.fixture
def big_model_profile():
    return WorkloadProfile(model_size=5_000_000,
                           nnz_per_step_per_worker=100_000)


@pytest.fixture
def small_model_profile():
    return WorkloadProfile(model_size=500,
                           nnz_per_step_per_worker=100_000)


class TestWorkloadProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(model_size=0, nnz_per_step_per_worker=1)
        with pytest.raises(ValueError):
            WorkloadProfile(model_size=1, nnz_per_step_per_worker=-1)


class TestEstimateStepCost:
    def test_every_system_priced(self, big_model_profile):
        cluster = cluster1()
        for system in ADVISABLE_SYSTEMS:
            cost = estimate_step_cost(system, cluster, big_model_profile)
            assert cost.total > 0
            assert cost.system == system

    def test_unknown_system(self, big_model_profile):
        with pytest.raises(KeyError):
            estimate_step_cost("Horovod", cluster1(), big_model_profile)

    def test_mllib_has_driver_component(self, big_model_profile):
        cost = estimate_step_cost("MLlib", cluster1(), big_model_profile)
        assert cost.driver > 0

    def test_star_has_no_driver_component(self, big_model_profile):
        cost = estimate_step_cost("MLlib*", cluster1(), big_model_profile)
        assert cost.driver == 0.0

    def test_star_comm_beats_driver_path_for_big_models(
            self, big_model_profile):
        cluster = cluster1()
        star = estimate_step_cost("MLlib*", cluster, big_model_profile)
        mllib = estimate_step_cost("MLlib", cluster, big_model_profile)
        assert star.communication + star.driver < (
            mllib.communication + mllib.driver) / 2

    def test_small_models_are_latency_bound(self, small_model_profile):
        """With a tiny model, AllReduce's extra messages erode the win."""
        cluster = cluster1()
        star = estimate_step_cost("MLlib*", cluster, small_model_profile)
        mllib = estimate_step_cost("MLlib", cluster, small_model_profile)
        big_gap = (mllib.communication + mllib.driver) / max(
            1e-12, star.communication)
        assert big_gap < 3  # no large advantage at this scale

    def test_describe(self, big_model_profile):
        text = estimate_step_cost("MLlib", cluster1(),
                                  big_model_profile).describe()
        assert "MLlib" in text and "driver" in text


class TestRankSystems:
    def test_sorted_cheapest_first(self, big_model_profile):
        costs = rank_systems(cluster1(), big_model_profile)
        totals = [c.total for c in costs]
        assert totals == sorted(totals)
        assert len(costs) == len(ADVISABLE_SYSTEMS)

    def test_star_wins_big_models(self, big_model_profile):
        """For communication-dominated workloads the advisor must put the
        AllReduce and PS systems ahead of driver-centric MLlib."""
        costs = rank_systems(cluster1(), big_model_profile)
        order = [c.system for c in costs]
        assert order.index("MLlib*") < order.index("MLlib")
        assert order.index("MLlib*") < order.index("MLlib+MA")


class TestPredictionMatchesMeasurement:
    def test_star_step_cost_close_to_measured(self):
        """The advisor prices the same phases the trainer executes, so the
        prediction should sit near a measured homogeneous-cluster run."""
        from repro.core import MLlibStarTrainer

        dataset = generate(SyntheticSpec(n_rows=2000, n_features=5000,
                                         nnz_per_row=10.0, seed=3), "pred")
        cluster = cluster1(executors=4)
        cfg = TrainerConfig(max_steps=4, local_chunk_size=64, seed=1)
        result = MLlibStarTrainer(Objective("hinge"), cluster, cfg).fit(
            dataset)
        measured_per_step = result.history.total_seconds / 4

        nnz_per_worker = dataset.nnz / 4
        profile = WorkloadProfile(model_size=5000,
                                  nnz_per_step_per_worker=nnz_per_worker)
        predicted = estimate_step_cost("MLlib*", cluster1(executors=4),
                                       profile).total
        assert predicted == pytest.approx(measured_per_step, rel=0.5)


class TestPredictionIsTheEngine:
    """The advisor runs step 1 on the engine and phases the trainer runs,
    so a real fault-free fit agrees with it exactly."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate(SyntheticSpec(n_rows=400, n_features=500,
                                      nnz_per_row=10.0, seed=3), "pred")

    @pytest.mark.parametrize("make_cluster", CLUSTERS.values(), ids=CLUSTERS)
    @pytest.mark.parametrize("system", ADVISABLE_SYSTEMS)
    def test_communication_and_driver_match_a_fit(self, dataset, system,
                                                  make_cluster):
        # No regularizer: MLlib's driver update touches m coordinates,
        # the update the advisor prices.
        result = SYSTEMS[system](
            Objective("hinge"), make_cluster(),
            TrainerConfig(max_steps=1, seed=1)).fit(dataset)
        fit_compute = max(s.end for s in result.trace.spans
                          if s.kind == "compute")
        cluster = make_cluster()
        cost = estimate_step_cost(system, cluster, WorkloadProfile(
            model_size=dataset.n_features,
            nnz_per_step_per_worker=dataset.nnz / cluster.num_executors))
        # Equal up to the rounding of adding, then subtracting, a
        # different compute duration on the clock.
        assert cost.communication + cost.driver == pytest.approx(
            result.history.total_seconds - fit_compute, rel=1e-12,
            abs=1e-15)

    @pytest.mark.parametrize("system", ADVISABLE_SYSTEMS)
    def test_heterogeneous_compute_is_the_engine_compute_phase(self, system):
        nnz = 100_000
        cluster = cluster2(machines=8)
        work = [cluster.compute.sparse_pass_seconds(2 * nnz, node)
                for node in cluster.executors]
        expected = BspEngine(cluster).compute_phase(work, 1)
        cost = estimate_step_cost(system, cluster2(machines=8),
                                  WorkloadProfile(model_size=5000,
                                                  nnz_per_step_per_worker=nnz))
        assert cost.compute == expected
