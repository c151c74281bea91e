"""Petuum and Petuum*: SendModel over parameter servers, per-batch.

Section III-B1's description, reproduced faithfully:

* Workers communicate with the servers **per batch** (one batch = one
  communication step).
* With **no regularization**, workers run parallel SGD *inside* each batch
  — many local updates per communication step.
* With **nonzero regularization**, workers perform one gradient-descent
  update over the batch per step — a single update per communication step
  (dense L2 updates are expensive, so Petuum avoids per-example updates).
* Original **Petuum** combines worker results by *model summation* (the
  servers add up the pushed deltas), which "suffers from potential
  divergence" (Section IV-B1 remark, refs [15], [18]).
* **Petuum*** is the paper's fixed variant: summation replaced by model
  averaging.  It also uses SSP to hide straggler latency (Section V-B2).
"""

from __future__ import annotations

import numpy as np

from ..cluster import ClusterSpec
from ..engine import PartitionedDataset
from ..glm import Objective
from ..core.config import TrainerConfig
from ..core.trainer import DistributedTrainer
from ..core.worker import petuum_batch_task
from .consistency import SSP
from .engine import PsEngine, push_wire_values
from .server import ParameterServer

__all__ = ["PetuumTrainer", "PetuumStarTrainer"]


class PetuumTrainer(DistributedTrainer):
    """Original Petuum: per-batch communication, model summation."""

    system = "Petuum"
    #: How the servers combine pushed worker results.
    combine = "sum"
    #: Workers pull and push through the parameter server, never a
    #: collective.
    fixed_fields = {"collective": "flat"}

    def __init__(self, objective: Objective, cluster: ClusterSpec,
                 config: TrainerConfig | None = None) -> None:
        super().__init__(objective, cluster, config)
        self._controller = SSP(staleness=2)
        self._engine: PsEngine | None = None
        self._server: ParameterServer | None = None

    # ------------------------------------------------------------------
    def _prepare(self, data: PartitionedDataset) -> None:
        self._engine = PsEngine(self.cluster, controller=self._controller,
                                faults=self.faults, recovery=self.recovery)
        self._install_recovery_costs(self._engine, data)

    def _on_initial_model(self, w: np.ndarray,
                          data: PartitionedDataset) -> None:
        self._server = ParameterServer(
            model_size=data.n_features,
            num_servers=data.num_partitions,
            initial=w, sanitize=self.config.sanitize)

    # ------------------------------------------------------------------
    def _combine(self, w: np.ndarray,
                 locals_: list[np.ndarray]) -> np.ndarray:
        """Model summation via the server: every worker pushes its delta."""
        assert self._server is not None, "fit() not started"
        for local in locals_:
            self._server.push_sum(local - w)
        return self._server.pull()

    def _run_step(self, step: int, w: np.ndarray,
                  data: PartitionedDataset) -> np.ndarray:
        engine = self._engine
        assert engine is not None
        lr = self.schedule.at(step)
        # Per-batch local work fans out across the execution backend; the
        # server pushes below stay in the parent, in worker order.
        results = self._local_round(
            petuum_batch_task,
            lambda i: (w, self.objective, lr, self._batch_size(
                data.partitions[i].n_rows), self.config), data)
        locals_ = [local_w for local_w, _ in results]
        durations = [self._stats_seconds(stats, i)
                     for i, (_, stats) in enumerate(results)]
        # Under --sparse-comm a worker's push (the delta ``local - w``)
        # is priced at its support — the coordinates local SGD touched.
        engine.run_step(durations, data.n_features,
                        push_values=push_wire_values(
                            w, locals_, self.config.sparse_comm))
        return self._combine(w, locals_)


class PetuumStarTrainer(PetuumTrainer):
    """Petuum*: summation replaced by model averaging (the paper's fix)."""

    system = "Petuum*"
    combine = "average"

    def _combine(self, w: np.ndarray,
                 locals_: list[np.ndarray]) -> np.ndarray:
        assert self._server is not None, "fit() not started"
        for local in locals_:
            self._server.push_for_average(local)
        return self._server.apply_average()
