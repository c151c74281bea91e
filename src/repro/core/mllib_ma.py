"""MLlib + model averaging: B1 fixed, B2 still present (Figure 3(b)).

The first of the paper's two improvements in isolation: workers run local
SGD (SendModel) so each communication step contains many model updates, but
models are still combined through the driver with ``treeAggregate`` and
broadcast back — the communication pattern is unchanged from MLlib.

The paper uses this intermediate system to separate the contribution of
model averaging (fewer steps to converge) from that of AllReduce (cheaper
steps); bench Fig. 3(b) and the Fig. 4 speedup decomposition rely on it.
"""

from __future__ import annotations

import numpy as np

from ..collectives import ordered_sum
from ..engine import PartitionedDataset
from .mllib import MLlibTrainer

__all__ = ["MLlibModelAveragingTrainer"]


class MLlibModelAveragingTrainer(MLlibTrainer):
    """SendModel through the unchanged MLlib aggregation path: MLlib's
    engine and ``tree`` parameter, with a different step."""

    system = "MLlib+MA"
    supports_dual_solver = True
    fixed_fields = {"tasks_per_executor": 1}

    # ------------------------------------------------------------------
    def _run_step(self, step: int, w: np.ndarray,
                  data: PartitionedDataset) -> np.ndarray:
        engine = self._engine
        assert engine is not None
        m = data.n_features

        # Phase 1: every executor updates a local model over its
        # partition.  Under a dual solver it ships a gamma-scaled model
        # *delta* instead, through the same (and same-priced) pattern.
        locals_, durations = self._send_model_round(step, w, data)
        engine.compute_phase(durations, step)

        # Phase 2: unchanged MLlib communication — models (not gradients)
        # flow through treeAggregate to the driver...  A crash here costs
        # the executor its local model, so it redoes its local SGD passes
        # before resending.  --sparse-comm prices each model at its
        # support; --collective picks the topology that carries it.
        engine.tree_aggregate_phase(
            m, step, redo_seconds=durations,
            wire=self._topology.fan_in_wire(
                [[local] for local in locals_], m))

        # ...which combines them on the driver (one dense pass): model
        # averaging for the primal path, delta summation (applied to the
        # broadcast iterate, in fixed partition order) for the dual path.
        if self._duals is not None:
            new_w = w + ordered_sum(locals_)
        else:
            new_w = ordered_sum(locals_) / len(locals_)
        average_seconds = self.cluster.compute.dense_op_seconds(
            m, self.cluster.driver)
        engine.driver_update_phase(average_seconds, step)

        # ...and broadcasts the averaged model back (bottleneck B2 intact).
        engine.broadcast_phase(m, step)
        return new_w
