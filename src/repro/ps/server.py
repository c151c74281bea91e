"""Sharded parameter servers: the model store of Petuum and Angel.

The global model is range-partitioned across ``num_servers`` shards
(Figure 2(c)).  Workers interact through two primitives:

* ``pull()``  — fetch the full current model (all shards);
* ``push(update, combine)`` — ship a model/update vector; each shard
  combines the slice it owns into the global model by ``sum`` (model
  summation, original Petuum) or by accumulating for an ``average``
  (Petuum*/Angel-style model averaging, applied when all expected pushes
  for the logical step have arrived).

The store holds numerics only; :class:`repro.ps.engine.PsEngine` prices
the pulls and pushes.
"""

from __future__ import annotations

import numpy as np

from ..analysis.sanitizer import freeze_array
from ..collectives import partition_slices

__all__ = ["ParameterServer"]


class ParameterServer:
    """A sharded in-memory model store with sum/average combination."""

    def __init__(self, model_size: int, num_servers: int,
                 initial: np.ndarray | None = None,
                 sanitize: bool = False) -> None:
        if num_servers < 1:
            raise ValueError("need at least one server shard")
        if model_size < num_servers:
            raise ValueError("model must have at least one coordinate "
                             "per server shard")
        self.model_size = model_size
        self.num_servers = num_servers
        self.slices = partition_slices(model_size, num_servers)
        if initial is None:
            self._model = np.zeros(model_size)
        else:
            if initial.shape != (model_size,):
                raise ValueError("initial model has the wrong shape")
            self._model = np.array(initial, copy=True)
        self._pending: list[np.ndarray] = []
        #: Barrier-sanitizer mode: pulled copies are frozen read-only so
        #: a worker mutating its pulled model in place raises at the
        #: faulting line (the server's own combine stays writable).
        self._sanitize = sanitize

    # ------------------------------------------------------------------
    def pull(self) -> np.ndarray:
        """Fetch the current global model (a copy).

        Under sanitize mode the copy is write-protected: workers must
        not update the pulled snapshot in place.
        """
        copy = np.array(self._model, copy=True)
        if self._sanitize:
            copy = freeze_array(copy)
        return copy

    def push_sum(self, update: np.ndarray) -> None:
        """Model summation: add ``update`` into the global model now.

        This is original Petuum's scheme — every worker's pushed *delta* is
        summed immediately, which can diverge (Section IV-B1 remark).
        """
        self._check(update)
        self._model += update

    def push_for_average(self, model: np.ndarray) -> None:
        """Stage a full local model for averaging at the step boundary."""
        self._check(model)
        self._pending.append(np.array(model, copy=True))

    def apply_average(self) -> np.ndarray:
        """Average all staged models into the global model (Petuum*, Angel).

        Returns the new global model; raises if nothing is staged.
        """
        if not self._pending:
            raise RuntimeError("no staged models to average")
        self._model = np.mean(self._pending, axis=0)
        self._pending = []
        return self.pull()

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def _check(self, vector: np.ndarray) -> None:
        if vector.shape != (self.model_size,):
            raise ValueError(
                f"expected shape ({self.model_size},), got {vector.shape}")
