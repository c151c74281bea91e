"""MLlib*: model averaging + distributed aggregation (Algorithm 3).

The paper's full system.  Each communication step:

1. ``UpdateModel``   — every executor runs local SGD from its copy of the
   global model (many updates per step: B1 fixed);
2. ``Reduce-Scatter`` — the model is logically partitioned, executor ``r``
   owns partition ``r``; everyone ships non-owned partitions to their
   owners via shuffle, and owners average the ``k`` copies they now hold;
3. ``AllGather``      — owners ship their averaged partition to all peers;
   every executor reassembles the identical full global model.

The driver only schedules; it touches no model data (B2 fixed).  Total
traffic per step stays ~``2 k m`` (the same as the driver round-trip), but
the latency is that of two balanced shuffle rounds instead of a serialized
fan-in + fan-out through one node.
"""

from __future__ import annotations

import numpy as np

from ..engine import BspEngine, PartitionedDataset
from .trainer import DistributedTrainer

__all__ = ["MLlibStarTrainer"]


class MLlibStarTrainer(DistributedTrainer):
    """The paper's MLlib*: SendModel + shuffle-based AllReduce.

    The primal path averages the local models (plain model averaging,
    §IV-B1); a dual solver sums its gamma-scaled deltas through the same
    exchange.  There is no other combine.
    """

    system = "MLlib*"
    fixed_fields = {"tasks_per_executor": 1}
    allreduce_owners = True
    _engine: BspEngine | None = None

    # ------------------------------------------------------------------
    def _prepare(self, data: PartitionedDataset) -> None:
        self._engine = self._open_bsp_engine(data)

    # ------------------------------------------------------------------
    def _run_step(self, step: int, w: np.ndarray,
                  data: PartitionedDataset) -> np.ndarray:
        engine = self._engine
        assert engine is not None
        m = data.n_features

        # Phase 1: UpdateModel on every executor — independent local SGD
        # passes, fanned out across the execution backend (the combining
        # below stays in the parent, in fixed order).
        vectors, durations = self._send_model_round(step, w, data)
        engine.compute_phase(durations, step)
        if self._duals is not None:
            # Dual path (CoCoA/CoCoA+): the vectors are gamma-scaled
            # model *deltas*; they are summed through the exact same
            # AllReduce and applied to the broadcast iterate.
            return w + self._exchange(vectors, m, step, durations,
                                      combine="sum")
        return self._exchange(vectors, m, step, durations,
                              combine="average")

    def _exchange(self, locals_: list[np.ndarray], m: int, step: int,
                  durations: list[float], combine: str) -> np.ndarray:
        """Reduce-Scatter + AllGather of one vector per executor.

        The priced shuffle AllReduce shared by the primal path
        (``average`` the local *models*) and the dual path (``sum`` the
        gamma-scaled *deltas*) — both exchange exactly one m-vector per
        executor, so topology and sparse-wire pricing compose
        identically.
        """
        engine = self._engine
        assert engine is not None

        # Phase 2: Reduce-Scatter — owners combine their partition (a
        # crashed owner redoes its local passes and pulls a refill from
        # every peer).  --sparse-comm and --collective change what the
        # messages cost, never what they say.
        partitions, rs_wire = self._topology.reduce_scatter(locals_, combine)
        engine.reduce_scatter_phase(m, step, redo_seconds=durations,
                                    wire=rs_wire)

        # Phase 3: AllGather — everyone reassembles the global model.
        # Under --sanitize every worker's reassembled replica is
        # digest-checked for bit-identity at this barrier.
        new_w, ag_wire = self._topology.all_gather(
            partitions, m, check_replicas=self.sanitizer.enabled)
        engine.all_gather_phase(m, step, redo_seconds=durations,
                                wire=ag_wire)
        return new_w
