"""Angel: SendModel over parameter servers, per-epoch.

Section III-B2's two distinctions from Petuum, both reproduced:

* **Communication frequency** — Angel workers talk to the servers once per
  *epoch* (a full pass over the local partition), not once per batch.
* **Local computation** — Angel always performs mini-batch gradient
  descent on each batch (one update per batch), regardless of the
  regularization term.

Section V-B2 additionally attributes Angel's weakness at small batch sizes
to an implementation detail: "Angel stores the accumulated gradients for
each batch in a separate vector.  For each batch, we need to allocate
memory for the vector and collect it back."  We model that as a per-batch
overhead proportional to the model size (allocate + zero + garbage-collect
one dense vector), controlled by ``alloc_overhead_coords_factor``; the
Angel batch-size ablation bench sweeps it.
"""

from __future__ import annotations

import numpy as np

from ..cluster import ClusterSpec
from ..engine import PartitionedDataset
from ..glm import Objective
from ..core.config import TrainerConfig
from ..core.trainer import DistributedTrainer
from ..core.worker import angel_epoch_task
from .consistency import BSP
from .engine import PsEngine, push_wire_values

__all__ = ["AngelTrainer"]


class AngelTrainer(DistributedTrainer):
    """Angel: per-epoch communication, per-batch GD, averaging servers."""

    system = "Angel"

    #: Dense coordinates' worth of work charged per batch for gradient
    #: buffer allocation + GC (Section V-B2's overhead).
    alloc_overhead_coords_factor = 3.0
    #: Workers pull and push through the parameter server, never a
    #: collective.
    fixed_fields = {"collective": "flat"}

    def __init__(self, objective: Objective, cluster: ClusterSpec,
                 config: TrainerConfig | None = None) -> None:
        super().__init__(objective, cluster, config)
        self._controller = BSP()
        self._engine: PsEngine | None = None

    # ------------------------------------------------------------------
    def _prepare(self, data: PartitionedDataset) -> None:
        self._engine = PsEngine(self.cluster, controller=self._controller,
                                faults=self.faults, recovery=self.recovery)
        self._install_recovery_costs(self._engine, data)

    # ------------------------------------------------------------------
    def _run_step(self, step: int, w: np.ndarray,
                  data: PartitionedDataset) -> np.ndarray:
        engine = self._engine
        assert engine is not None
        m = data.n_features
        lr = self.schedule.at(step)

        # Per-epoch local work fans out across the execution backend;
        # pricing (including the per-batch allocation overhead) stays in
        # the parent against the returned stats.
        results = self._local_round(
            angel_epoch_task,
            lambda i: (w, self.objective, lr, self._batch_size(
                data.partitions[i].n_rows)), data)
        locals_: list[np.ndarray] = []
        durations: list[float] = []
        overheads: list[float] = []
        for i, (local_w, stats) in enumerate(results):
            locals_.append(local_w)
            durations.append(self._stats_seconds(stats, i))
            # One gradient buffer allocated and collected per batch.
            batches = stats.n_updates
            overhead_coords = (batches * self.alloc_overhead_coords_factor
                               * m)
            overheads.append(self.cluster.compute.dense_op_seconds(
                overhead_coords, self.cluster.executors[i]))
        # Under --sparse-comm a worker's push (its delta against the
        # pulled model) is priced at the support local training touched.
        engine.run_step(durations, m, overhead_seconds=overheads,
                        push_values=push_wire_values(
                            w, locals_, self.config.sparse_comm))
        return np.mean(locals_, axis=0)
