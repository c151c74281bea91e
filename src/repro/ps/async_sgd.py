"""Asynchronous SGD over parameter servers (ASP with real staleness).

Section III-B: parameter servers "can leverage different consistency
controllers ... It has been shown that asynchronous communication can be
beneficial for distributed machine learning [13]."  The Petuum/Angel
trainers in this reproduction model SSP's *timing* benefit but keep the
numerics step-synchronous; :class:`AsyncSgdTrainer` models the numerics
too, with a discrete-event simulation:

* every worker repeatedly (pull -> compute batch gradient -> push);
* pushes are applied to the global model **in simulated-time order**;
* a worker's gradient was computed at the model it pulled one cycle ago,
  so it is applied with real *staleness* — the number of other updates
  that landed in between (tracked and reported).

This is the Hogwild/Downpour-style regime the paper's reference [13]
analyzes: no barriers at all, maximum hardware efficiency, gradient
staleness as the price.  Heterogeneity makes fast workers contribute more
updates instead of idling at a barrier — the async counterpoint to
Figure 6's straggler problem.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..cluster import ClusterSpec, Trace
from ..collectives import wire_values
from ..core.config import TrainerConfig
from ..core.trainer import DistributedTrainer
from ..core.worker import asgd_gradient_task
from ..engine import PartitionedDataset
from ..glm import Objective, apply_update
from .engine import pull_push_seconds, worker_label

__all__ = ["AsyncSgdTrainer"]


class AsyncSgdTrainer(DistributedTrainer):
    """Fully asynchronous SGD (ASP) with event-ordered updates.

    One "communication step" in the history corresponds to ``k`` applied
    pushes (one per worker on average), so step counts remain comparable
    with the synchronous SendGradient systems.
    """

    system = "ASGD"
    #: No crash loop (the event clock has no barrier to stall or replay)
    #: and no collective: every push goes to the parameter server.
    fixed_fields = {"failure_rate": 0.0, "failure_schedule": None,
                    "checkpoint_every": 0, "collective": "flat",
                    "tasks_per_executor": 1}

    def __init__(self, objective: Objective, cluster: ClusterSpec,
                 config: TrainerConfig | None = None) -> None:
        super().__init__(objective, cluster, config)
        self._trace_store = Trace()
        self._now = 0.0
        #: (ready_time, tiebreak, worker_index) event heap.
        self._events: list[tuple[float, int, int]] = []
        self._tiebreak = 0
        #: Per-worker model snapshot at its last pull.
        self._pulled: list[np.ndarray] = []
        #: Pending gradient each worker will push at its event time.
        self._pending: list[np.ndarray | None] = []
        #: Global-update counter and per-worker counter at last pull.
        self._updates_applied = 0
        self._pull_versions: list[int] = []
        #: Observed staleness values (updates between pull and push).
        self.staleness_log: list[int] = []
        self._model: np.ndarray | None = None
        self._step_counter = 0

    # ------------------------------------------------------------------
    def _schedule(self, worker: int, ready: float) -> None:
        heapq.heappush(self._events, (ready, self._tiebreak, worker))
        self._tiebreak += 1

    def _begin_cycle(self, worker: int, start: float,
                     data: PartitionedDataset) -> None:
        """Worker pulls the model, computes a batch gradient, and is
        scheduled to push when compute + communication finish."""
        assert self._model is not None
        part = data.partitions[worker]
        batch = self._batch_size(part.n_rows)
        # The pulled snapshot is this worker's private read view of the
        # global model; under --sanitize it is frozen so a worker update
        # that writes through it raises at the faulting line.
        self._pulled[worker] = self.sanitizer.freeze(
            np.array(self._model, copy=True))
        self._pull_versions[worker] = self._updates_applied
        # The batch-gradient compute runs through the execution backend
        # (one worker at a time — the event loop itself is the scheduler).
        gradient, batch_nnz, rng = self._backend.run_one(
            asgd_gradient_task, worker,
            (self._pulled[worker], self.objective, batch,
             self._rngs[worker]))
        self._rngs[worker] = rng
        self._pending[worker] = gradient

        node = self.cluster.executors[worker]
        compute = (self._compute_seconds(2 * batch_nnz, 0, worker)
                   * self.cluster.slowdown(node, self._step_counter))
        m = data.n_features
        mode = self.config.sparse_comm
        # Wire accounting only: the push's sparse size lands in the span's
        # ``values`` field, but the event schedule runs on the dense clock
        # (one pull + one push against the shards, no peer contention
        # modelled: asynchrony spreads requests over time).  Under ASP the
        # *order* in which pushes land is part of the numerics, so
        # repricing events by sparse wire size would reorder updates and
        # change convergence.
        if mode == "off":
            push_wire = float(m)
        else:
            push_wire = wire_values(int(np.count_nonzero(gradient)), m, mode)
        comm = pull_push_seconds(self.cluster, m)
        label = worker_label(worker)
        if compute > 0:
            self._trace_store.add(label, start, start + compute, "compute",
                            self._step_counter)
        self._trace_store.add(label, start + compute, start + compute + comm,
                        "send", self._step_counter,
                        values=float(m) + push_wire)
        self._schedule(worker, start + compute + comm)

    # ------------------------------------------------------------------
    def _prepare(self, data: PartitionedDataset) -> None:
        self.cluster.reset_rng()
        self._trace_store = Trace()
        self._now = 0.0
        self._events = []
        self._tiebreak = 0
        k = data.num_partitions
        self._pulled = [np.zeros(data.n_features) for _ in range(k)]
        self._pending = [None] * k
        self._updates_applied = 0
        self._pull_versions = [0] * k
        self.staleness_log = []
        self._model = None
        self._step_counter = 0

    def _on_initial_model(self, w: np.ndarray,
                          data: PartitionedDataset) -> None:
        """Seed the global model and launch every worker's first cycle."""
        self._model = np.array(w, copy=True)
        for worker in range(data.num_partitions):
            self._begin_cycle(worker, 0.0, data)

    def _clock(self) -> float:
        return self._now

    def _trace(self) -> Trace:
        return self._trace_store

    # ------------------------------------------------------------------
    def _run_step(self, step: int, w: np.ndarray,
                  data: PartitionedDataset) -> np.ndarray:
        """Apply the next ``k`` pushes in simulated-time order."""
        assert self._model is not None
        self._step_counter = step
        k = data.num_partitions
        for _ in range(k):
            ready, _, worker = heapq.heappop(self._events)
            self._now = max(self._now, ready)
            gradient = self._pending[worker]
            assert gradient is not None
            lr = self.schedule.at(self._updates_applied + 1)
            self._model = apply_update(self._model, gradient, lr,
                                       self.objective)
            self._updates_applied += 1
            self.staleness_log.append(
                self._updates_applied - 1 - self._pull_versions[worker])
            self._begin_cycle(worker, ready, data)
        return self._model

    @property
    def mean_staleness(self) -> float:
        """Average number of updates applied between pull and push."""
        if not self.staleness_log:
            return 0.0
        return float(np.mean(self.staleness_log))
