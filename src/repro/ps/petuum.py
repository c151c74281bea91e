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

from ..engine import PartitionedDataset
from ..core.worker import petuum_batch_task
from .consistency import SSP
from .engine import PsTrainer

__all__ = ["PetuumTrainer", "PetuumStarTrainer"]


class PetuumTrainer(PsTrainer):
    """Original Petuum: per-batch communication, model summation."""

    system = "Petuum"
    _controller = SSP(staleness=2)

    def _local_solves(self, w: np.ndarray, lr: float,
                      data: PartitionedDataset) -> list[tuple]:
        return self._local_round(
            petuum_batch_task,
            lambda i: (w, self.objective, lr, self._batch_size(
                data.partitions[i].n_rows), self.config), data)

    def _combine(self, w: np.ndarray,
                 locals_: list[np.ndarray]) -> np.ndarray:
        """Model summation: the servers add every worker's delta."""
        model = np.array(w, copy=True)
        for local in locals_:
            model += local - w
        return model


class PetuumStarTrainer(PetuumTrainer):
    """Petuum*: summation replaced by model averaging (the paper's fix)."""

    system = "Petuum*"
    _combine = PsTrainer._combine
