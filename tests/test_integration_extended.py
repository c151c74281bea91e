"""Extended integration tests: engine variants, extensions, exports."""

import numpy as np

from repro.cluster import ComputeCostModel, cluster1, cluster2
from repro.core import (MLlibStarTrainer, MLlibTrainer, SparkMlStarTrainer,
                        SparkMlTrainer, TrainerConfig)
from repro.engine import TreeAggregateModel
from repro.glm import Objective
from repro.metrics import write_histories_json, write_history_csv
from repro.tuning import GridSearch


class TestEngineVariantsInTrainers:
    def test_flat_aggregation_slower_driver(self, small_dataset,
                                            small_cluster):
        """A depth-1 tree loads the driver more than MLlib's depth-2."""
        obj = Objective("hinge")
        cfg = TrainerConfig(max_steps=3, seed=1)
        from repro.data import SyntheticSpec, generate
        big = generate(SyntheticSpec(n_rows=400, n_features=20_000,
                                     nnz_per_row=8.0, seed=4), "big")
        flat = MLlibTrainer(obj, small_cluster, cfg,
                            tree=TreeAggregateModel(depth=1)).fit(big)
        tree = MLlibTrainer(obj, small_cluster, cfg,
                            tree=TreeAggregateModel(depth=2)).fit(big)
        assert flat.trace.busy_seconds("driver") > (
            tree.trace.busy_seconds("driver"))

    def test_custom_compute_model_scales_time(self, tiny_dataset):
        obj = Objective("hinge")
        cfg = TrainerConfig(max_steps=3, seed=1)
        slow_compute = ComputeCostModel(sec_per_nnz=1e-5)
        fast = MLlibStarTrainer(obj, cluster1(executors=4), cfg).fit(
            tiny_dataset)
        slow = MLlibStarTrainer(
            obj, cluster1(executors=4, compute=slow_compute), cfg).fit(
            tiny_dataset)
        assert slow.history.total_seconds > fast.history.total_seconds
        assert np.allclose(fast.model.weights, slow.model.weights)


class TestSparkMlOnCatalogData:
    def test_lbfgs_converges_on_url_analog(self):
        from repro.data import url_like
        dataset = url_like()
        obj = Objective("logistic", "l2", 0.01)
        result = SparkMlStarTrainer(obj, cluster1(executors=8),
                                    TrainerConfig(max_steps=15,
                                                  seed=1)).fit(dataset)
        # L-BFGS on a smooth strongly convex objective: big reduction.
        assert result.final_objective < 0.55 * result.history.objectives()[0]
        assert result.model.accuracy(dataset.X, dataset.y) > 0.85

    def test_lbfgs_beats_mgd_per_communication_step(self):
        from repro.data import url_like
        dataset = url_like()
        obj = Objective("logistic", "l2", 0.01)
        cfg = TrainerConfig(max_steps=10, learning_rate=0.5,
                            lr_schedule="inv_sqrt", seed=1)
        lbfgs = SparkMlTrainer(obj, cluster1(), cfg).fit(dataset)
        mgd = MLlibTrainer(obj, cluster1(), cfg).fit(dataset)
        assert lbfgs.final_objective < mgd.final_objective


class TestExportsOnRealRuns:
    def test_csv_json_round_trip(self, tiny_dataset, small_cluster,
                                 tmp_path):
        obj = Objective("hinge")
        result = MLlibStarTrainer(obj, small_cluster,
                                  TrainerConfig(max_steps=4, seed=1)).fit(
            tiny_dataset)
        write_history_csv([result.history], tmp_path / "run.csv")
        write_histories_json([result.history], tmp_path / "run.json")
        import json
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload[0]["objectives"] == result.history.objectives()


class TestGridSearchAcrossSystems:
    def test_grid_search_works_for_lbfgs_trainer(self, tiny_dataset,
                                                 small_cluster):
        search = GridSearch(
            trainer_cls=SparkMlStarTrainer,
            objective=Objective("logistic", "l2", 0.01),
            cluster=small_cluster,
            base_config=TrainerConfig(max_steps=5, seed=1),
        )
        best = search.best(tiny_dataset, {"seed": [1, 2]})
        assert best.best_objective < 0.7  # below log(2) start


class TestHeterogeneousClusterDeterminism:
    def test_same_seed_same_timeline(self, tiny_dataset):
        obj = Objective("hinge")
        cfg = TrainerConfig(max_steps=4, seed=2)

        def run():
            return MLlibStarTrainer(obj, cluster2(machines=4, seed=9),
                                    cfg).fit(tiny_dataset)
        a, b = run(), run()
        assert a.history.seconds() == b.history.seconds()
        assert np.array_equal(a.model.weights, b.model.weights)

    def test_different_seed_different_timeline(self, tiny_dataset):
        obj = Objective("hinge")
        cfg = TrainerConfig(max_steps=4, seed=2)
        a = MLlibStarTrainer(obj, cluster2(machines=4, seed=1), cfg).fit(
            tiny_dataset)
        b = MLlibStarTrainer(obj, cluster2(machines=4, seed=2), cfg).fit(
            tiny_dataset)
        assert a.history.seconds() != b.history.seconds()
