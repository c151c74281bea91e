"""Model broadcast: driver -> all executors.

After updating the global model, the MLlib driver broadcasts it back to the
executors for the next iteration.  Two cost modes are supported:

* ``serial`` (default) — the driver's uplink pushes one copy per executor,
  back to back.  This is the behaviour visible in the paper's gantt chart
  (Figure 3(a)): the broadcast time grows linearly with ``k`` and the
  executors idle while it happens.
* ``torrent`` — Spark's TorrentBroadcast-style dissemination: the model is
  chunked and peers re-share chunks, giving roughly logarithmic scaling.
  Included so the ablation benches can show the driver *update* pattern,
  not just the broadcast transport, is what MLlib* fixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cluster import ClusterSpec

__all__ = ["BroadcastModel"]


@dataclass(frozen=True)
class BroadcastModel:
    """Cost model for driver-side model broadcast."""

    mode: str = "serial"

    def __post_init__(self) -> None:
        if self.mode not in ("serial", "torrent"):
            raise ValueError("broadcast mode must be 'serial' or 'torrent'")

    def seconds(self, cluster: ClusterSpec, model_size: int) -> float:
        """Time for every executor to hold the size-``m`` model."""
        k = cluster.num_executors
        if k == 0:
            return 0.0
        net = cluster.network
        if self.mode == "serial":
            # The driver's uplink sends the k copies back to back: the
            # same serialized k transfers as a fan-in into one node.
            return net.fan_in_seconds(k, model_size)
        # Torrent: ~log2(k+1) store-and-forward rounds of the full payload.
        rounds = max(1, math.ceil(math.log2(k + 1)))
        return rounds * net.transfer_seconds(model_size)
