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
one dense vector), controlled by ``alloc_overhead_coords_factor``.  The
Angel batch-size ablation bench sweeps ``batch_fraction``: the smaller
the batch, the more often a worker pays it.
"""

from __future__ import annotations

import numpy as np

from ..engine import PartitionedDataset
from ..core.worker import angel_epoch_task
from ..glm import LocalStats
from .consistency import BSP
from .engine import PsTrainer

__all__ = ["AngelTrainer"]


class AngelTrainer(PsTrainer):
    """Angel: per-epoch communication, per-batch GD, averaging servers."""

    system = "Angel"

    #: Dense coordinates' worth of work charged per batch for gradient
    #: buffer allocation + GC (Section V-B2's overhead).
    alloc_overhead_coords_factor = 3.0

    _controller = BSP()

    def _local_solves(self, w: np.ndarray, lr: float,
                      data: PartitionedDataset) -> list[tuple]:
        return self._local_round(
            angel_epoch_task,
            lambda i: (w, self.objective, lr, self._batch_size(
                data.partitions[i].n_rows)), data)

    def _overhead_seconds(self, stats: list[LocalStats],
                          model_size: int) -> list[float]:
        """One gradient buffer allocated and collected per batch."""
        return [self.cluster.compute.dense_op_seconds(
                    s.n_updates * self.alloc_overhead_coords_factor
                    * model_size, self.cluster.executors[i])
                for i, s in enumerate(stats)]
