"""Baseline MLlib: the SendGradient paradigm (Figure 2(a)).

One communication step of MLlib's ``GradientDescent``:

1. the driver broadcasts the current model (priced at the *end* of the
   previous step here, so step 1 starts from the initial broadcast-free
   state as in Spark, where the initial zero model is part of the closure);
2. every executor samples a mini-batch from its cached partition and
   computes its gradient at the received model (one compiled call);
3. gradients are combined hierarchically via ``treeAggregate``;
4. the driver applies one (1) update to the global model;
5. the driver broadcasts the updated model for the next step.

Bottlenecks B1 (one update per step) and B2 (driver + intermediate
aggregators serialize while executors wait) both live here, and both are
visible in the emitted trace.
"""

from __future__ import annotations

import numpy as np

from ..cluster import ClusterSpec
from ..collectives import ordered_sum
from ..engine import BspEngine, PartitionedDataset, TreeAggregateModel
from ..glm import Objective, apply_update
from .config import TrainerConfig
from .trainer import DistributedTrainer
from .worker import gradient_wave_task

__all__ = ["MLlibTrainer"]


class MLlibTrainer(DistributedTrainer):
    """Spark MLlib's distributed MGD (SendGradient + treeAggregate)."""

    system = "MLlib"
    fixed_fields = {"local_solver": "mgd"}

    def __init__(self, objective: Objective, cluster: ClusterSpec,
                 config: TrainerConfig | None = None,
                 tree: TreeAggregateModel | None = None) -> None:
        super().__init__(objective, cluster, config)
        self._tree = tree
        self._engine: BspEngine | None = None

    # ------------------------------------------------------------------
    def _prepare(self, data: PartitionedDataset) -> None:
        self._engine = self._open_bsp_engine(data, tree=self._tree)

    # ------------------------------------------------------------------
    def _run_step(self, step: int, w: np.ndarray,
                  data: PartitionedDataset) -> np.ndarray:
        engine = self._engine
        assert engine is not None
        m = data.n_features
        lr = self.schedule.at(step)

        # Phase 1: executors compute batch gradients at the current model.
        # With multiple waves, each executor runs its tasks sequentially
        # (one core slot per the paper's setting), each task sampling a
        # share of the batch, paying a launch overhead, and later shipping
        # its own gradient (Section V-C); the parent prices the nnz.
        waves = self.config.tasks_per_executor
        launch = self.cluster.compute.task_launch_seconds
        results = self._local_round(
            gradient_wave_task,
            lambda i: (w, self.objective, waves, max(
                1, self._batch_size(data.partitions[i].n_rows) // waves)),
            data)
        task_grads = [grads for grads, _ in results]
        durations: list[float] = []
        for i, (_, nnz_list) in enumerate(results):
            seconds = 0.0
            for nnz in nnz_list:
                seconds += launch + self._compute_seconds(2 * nnz, 0, i)
            durations.append(seconds)
        engine.compute_phase(durations, step)

        # Phase 2: hierarchical aggregation — one message per task.  An
        # executor crashing here recomputes its batch gradients before
        # resending.  --sparse-comm prices each message at its gradient's
        # support; --collective picks the topology that carries it.
        engine.tree_aggregate_phase(
            m, step, messages_per_executor=waves, redo_seconds=durations,
            wire=self._topology.fan_in_wire(task_grads, m))

        # Phase 3: the single model update at the driver (bottleneck B1),
        # with the mean of the executors' mean gradients (one wave's mean
        # is its gradient, bit for bit).
        gradients = [grads[0] if waves == 1 else ordered_sum(grads) / waves
                     for grads in task_grads]
        mean_grad = ordered_sum(gradients) / len(gradients)
        new_w = apply_update(w, mean_grad, lr, self.objective)
        update_coords = 2 * m if self.objective.regularizer.is_dense else m
        update_seconds = self.cluster.compute.dense_op_seconds(
            update_coords, self.cluster.driver)
        engine.driver_update_phase(update_seconds, step)

        # Phase 4: broadcast the updated model for the next step.
        engine.broadcast_phase(m, step)
        return new_w
