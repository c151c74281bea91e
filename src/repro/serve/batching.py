"""Dynamic micro-batching with a bounded admission queue.

Requests arrive one at a time; the batcher coalesces them and decides
*when* a batch must leave the queue:

* **flush on size** — as soon as ``max_batch`` requests are pending the
  batch is ready immediately;
* **flush on deadline** — otherwise the batch becomes ready when the
  *oldest* pending request has waited ``max_delay`` (simulated) seconds,
  so batching never costs an idle service more than the deadline.

Admission is bounded: past ``queue_limit`` pending requests,
:meth:`MicroBatcher.offer` refuses the request (the service records it
as shed).  Overload therefore surfaces as an explicit rejection rate,
not as unbounded queueing delay — the backpressure half of the SLO
story.

The batcher is a pure data structure over simulated timestamps; the
event loop that drives it lives in :mod:`repro.serve.service`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["PredictRequest", "Prediction", "MicroBatcher", "stack_requests"]


@dataclass(frozen=True)
class PredictRequest:
    """One scoring request: a sparse feature row and its arrival time."""

    request_id: int
    features: sp.csr_matrix
    arrival: float

    def __post_init__(self) -> None:
        if self.features.shape[0] != 1:
            raise ValueError("a request carries exactly one feature row")
        if self.arrival < 0:
            raise ValueError("arrival time must be non-negative")

    @property
    def nnz(self) -> int:
        return int(self.features.nnz)


@dataclass(frozen=True)
class Prediction:
    """The served answer for one request, with its latency breakdown."""

    request_id: int
    margin: float
    label: float
    arrival: float
    dispatched: float
    completed: float

    @property
    def latency(self) -> float:
        """Arrival-to-completion time (queueing + service)."""
        return self.completed - self.arrival


def stack_requests(requests: list[PredictRequest]) -> sp.csr_matrix:
    """Stack request rows into one CSR matrix, preserving order.

    Row ``i`` of the stack is request ``i``'s feature row with its
    nonzeros in their original order, so ``stack @ w`` computes each
    per-row dot product exactly as a standalone ``row @ w`` would —
    batched predictions are bit-identical to unbatched ones.
    """
    if not requests:
        raise ValueError("cannot stack an empty batch")
    if len(requests) == 1:
        return requests[0].features
    return sp.vstack([r.features for r in requests], format="csr",
                     dtype=np.float64)


class MicroBatcher:
    """Bounded FIFO of pending requests with flush-time accounting."""

    def __init__(self, max_batch: int, max_delay: float,
                 queue_limit: int) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.queue_limit = queue_limit
        self._pending: deque[PredictRequest] = deque()

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def depth(self) -> int:
        """Current admission-queue depth."""
        return len(self._pending)

    # ------------------------------------------------------------------
    def offer(self, request: PredictRequest) -> bool:
        """Admit a request, or return False when the queue is full.

        Requests must be offered in non-decreasing arrival order — the
        batcher is driven by an event loop that replays arrivals in
        time order.
        """
        if self._pending and request.arrival < self._pending[-1].arrival:
            raise ValueError("requests must be offered in arrival order")
        if len(self._pending) >= self.queue_limit:
            return False
        self._pending.append(request)
        return True

    def next_flush_time(self) -> float | None:
        """When the current head batch becomes ready, or None if empty.

        A full batch (``max_batch`` pending) is ready the moment its
        last member arrived; a partial batch is ready at the oldest
        member's deadline.
        """
        if not self._pending:
            return None
        if len(self._pending) >= self.max_batch:
            return self._pending[self.max_batch - 1].arrival
        return self._pending[0].arrival + self.max_delay

    def take(self) -> list[PredictRequest]:
        """Pop the head batch (up to ``max_batch`` requests)."""
        if not self._pending:
            raise ValueError("no pending requests to take")
        count = min(self.max_batch, len(self._pending))
        return [self._pending.popleft() for _ in range(count)]
