"""Tests for the asynchronous SGD trainer (real staleness numerics)."""

import re

import numpy as np
import pytest

from repro.cluster import cluster1, cluster2
from repro.core import TrainerConfig
from repro.glm import Objective
from repro.ps import (AngelTrainer, AsyncSgdTrainer, PetuumStarTrainer,
                      PetuumTrainer, PsEngine)


CFG = TrainerConfig(max_steps=20, learning_rate=0.2, batch_fraction=0.1,
                    seed=1)


class TestAsyncSgd:
    def test_objective_decreases(self, tiny_dataset, small_cluster):
        result = AsyncSgdTrainer(Objective("hinge"), small_cluster,
                                 CFG).fit(tiny_dataset)
        assert result.final_objective < result.history.objectives()[0]

    def test_updates_per_step_equals_workers(self, tiny_dataset,
                                             small_cluster):
        trainer = AsyncSgdTrainer(Objective("hinge"), small_cluster, CFG)
        trainer.fit(tiny_dataset)
        # 20 steps x 4 workers pushes, each logged once.
        assert len(trainer.staleness_log) == 20 * 4

    def test_staleness_positive_with_multiple_workers(self, tiny_dataset,
                                                      small_cluster):
        trainer = AsyncSgdTrainer(Objective("hinge"), small_cluster, CFG)
        trainer.fit(tiny_dataset)
        assert trainer.mean_staleness > 0

    def test_staleness_zero_with_single_worker(self, tiny_dataset):
        from repro.cluster import ClusterSpec, homogeneous_nodes
        solo = ClusterSpec(nodes=homogeneous_nodes(2))
        trainer = AsyncSgdTrainer(Objective("hinge"), solo, CFG)
        trainer.fit(tiny_dataset)
        assert trainer.mean_staleness == 0.0

    def test_staleness_grows_with_workers(self, small_dataset):
        def staleness(k):
            trainer = AsyncSgdTrainer(Objective("hinge"),
                                      cluster1(executors=k), CFG)
            trainer.fit(small_dataset)
            return trainer.mean_staleness
        assert staleness(8) > staleness(2)

    def test_clock_monotone_and_no_waits(self, tiny_dataset, small_cluster):
        result = AsyncSgdTrainer(Objective("hinge"), small_cluster,
                                 CFG).fit(tiny_dataset)
        secs = result.history.seconds()
        assert secs == sorted(secs)
        # ASP never blocks: no wait spans at all.
        for node in result.trace.nodes():
            assert result.trace.wait_seconds(node) == 0.0

    def test_send_spans_cost_one_ps_pull_push(self, tiny_dataset,
                                              small_cluster):
        """Every pull + push is the parameter-server price, one shard
        per worker (the event clock is always dense)."""
        result = AsyncSgdTrainer(Objective("hinge"), small_cluster,
                                 CFG).fit(tiny_dataset)
        comm = PsEngine(small_cluster).comm_seconds(tiny_dataset.n_features)
        sends = [s for node in result.trace.nodes()
                 for s in result.trace.spans_for(node) if s.kind == "send"]
        assert len(sends) >= 20 * 4
        for span in sends:
            assert span.end == span.start + comm

    @pytest.mark.parametrize("overrides", [
        {"failure_schedule": "1@2"},
        {"failure_rate": 0.5},
        {"checkpoint_every": 2},
        {"failure_schedule": "1@2", "checkpoint_every": 2},
        {"collective": "hier"},
    ])
    def test_rejects_fault_and_checkpoint_fields(self, tiny_dataset,
                                                 small_cluster, overrides):
        """The event clock has no crash loop, and no parameter-server
        system runs a collective, so these fields are rejected by name
        instead of running fault-free or flat."""
        trainers = [AsyncSgdTrainer]
        if set(overrides) == {"collective"}:
            trainers += [PetuumTrainer, PetuumStarTrainer, AngelTrainer]
        for trainer_cls in trainers:
            trainer = trainer_cls(Objective("hinge"), small_cluster,
                                  CFG.with_overrides(**overrides))
            with pytest.raises(ValueError, match=(
                    f"{re.escape(trainer.system)} does not support")) as err:
                trainer.fit(tiny_dataset)
            for name in overrides:
                assert name in str(err.value)

    def test_deterministic(self, tiny_dataset, small_cluster):
        a = AsyncSgdTrainer(Objective("hinge"), small_cluster, CFG).fit(
            tiny_dataset)
        b = AsyncSgdTrainer(Objective("hinge"), small_cluster, CFG).fit(
            tiny_dataset)
        assert np.array_equal(a.model.weights, b.model.weights)

    def test_warm_start(self, tiny_dataset, small_cluster):
        obj = Objective("hinge")
        first = AsyncSgdTrainer(obj, small_cluster, CFG).fit(tiny_dataset)
        resumed = AsyncSgdTrainer(obj, small_cluster, CFG).fit(
            tiny_dataset, initial_weights=first.model.weights)
        assert resumed.history.objectives()[0] == pytest.approx(
            first.final_objective)

    def test_fast_workers_push_more_on_heterogeneous_cluster(
            self, small_dataset):
        """No barrier: a much faster worker completes more cycles.

        The cluster is configured compute-bound (cheap network, expensive
        compute) so node speed, not message latency, sets the cycle time.
        """
        from repro.cluster import (ClusterSpec, ComputeCostModel,
                                   NetworkModel, NodeSpec)
        nodes = [NodeSpec(node_id=0),
                 NodeSpec(node_id=1, speed=4.0),
                 NodeSpec(node_id=2, speed=1.0)]
        cluster = ClusterSpec(
            nodes=nodes,
            network=NetworkModel(alpha=1e-6),
            compute=ComputeCostModel(sec_per_nnz=1e-5))
        trainer = AsyncSgdTrainer(
            Objective("hinge"), cluster,
            CFG.with_overrides(max_steps=40, batch_fraction=0.5))
        result = trainer.fit(small_dataset)
        fast_sends = sum(1 for s in result.trace.spans_for("worker-1")
                         if s.kind == "send")
        slow_sends = sum(1 for s in result.trace.spans_for("worker-2")
                         if s.kind == "send")
        assert fast_sends > slow_sends

    def test_beats_bsp_wall_clock_under_stragglers(self, small_dataset):
        """The reference-[13] claim: async hides straggler latency."""
        from repro.core import MLlibTrainer
        obj = Objective("hinge")
        cfg = CFG.with_overrides(max_steps=30)
        asgd = AsyncSgdTrainer(
            obj, cluster2(machines=8, straggler_sigma=0.5, seed=4),
            cfg).fit(small_dataset)
        bsp = MLlibTrainer(
            obj, cluster2(machines=8, straggler_sigma=0.5, seed=4),
            cfg).fit(small_dataset)
        # 8x the updates in less simulated time.
        assert asgd.history.total_seconds < bsp.history.total_seconds
        assert asgd.final_objective <= bsp.final_objective + 0.05
