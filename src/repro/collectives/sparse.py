"""Sparse-aware wire formats for the collectives (SparCML-style).

The paper's ``2 k m`` AllReduce traffic invariant (Section IV-B2) prices a
*dense* model exchange, but every target dataset (avazu, url, kddb, kdd12)
is extremely sparse: a worker's local model is supported on its partition's
column support, and a mini-batch gradient on the batch's column support —
both typically a small fraction of ``m``.  SparCML (Renggli et al.) shows
that switching to an index/value wire format in exactly this regime cuts
communication volume by orders of magnitude.

This module adds that layer:

* :class:`SparsePayload` — the index/value wire format.  One sparse
  coordinate costs **two** wire values (its index and its value), which
  gives the SparCML break-even point: sparse is cheaper iff
  ``2 * nnz < m``, i.e. ``nnz < m / 2``.
* :func:`encode` / :func:`materialize` — the deterministic dense<->sparse
  switch.  ``mode='auto'`` picks the cheaper representation per message;
  ``'on'`` forces sparse (useful to demonstrate the crossover); ``'off'``
  passes the dense array through untouched.
* :func:`sparse_reduce_scatter` / :func:`sparse_all_gather` — sparse
  variants of the shuffle collectives.  Payloads are materialized before
  combining, so the arithmetic (and therefore every iterate) is
  **bit-identical** to the dense path; only the priced wire volume
  changes.  Each returns a :class:`CommStats` for the engine to price.
* :func:`tree_fan_in_wire` — nnz-aware wire sizes for the SendGradient
  paradigm's treeAggregate fan-in (leaf messages carry batch-support
  gradients; aggregator partials carry the union support of their group).

Determinism note: coordinate supports are computed with
``np.flatnonzero`` (ascending index order) and groups are iterated in
sorted order — never via set iteration (rule DET002 applies to this
module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.sanitizer import check_replicas as _check_replicas
from ..engine.plan import PhasePlan, PhaseRequest
from ..engine.shuffle import exchange
from .allreduce import combine_weight_scale, partition_slices

__all__ = ["SPARSE_COMM_MODES", "SparsePayload", "CommStats", "TreeWire",
           "encode", "materialize", "payload_wire_values", "wire_values",
           "sparse_reduce_scatter", "sparse_all_gather", "tree_fan_in_wire"]

#: Valid values of ``TrainerConfig.sparse_comm`` / ``--sparse-comm``.
SPARSE_COMM_MODES = ("auto", "on", "off")


def _check_mode(mode: str) -> None:
    if mode not in SPARSE_COMM_MODES:
        raise ValueError(
            f"sparse-comm mode must be one of {SPARSE_COMM_MODES}, "
            f"got {mode!r}")


@dataclass(frozen=True)
class SparsePayload:
    """A vector in index/value wire format.

    ``indices`` must be strictly increasing — the support order is part of
    the wire format, so reassembly is deterministic regardless of how the
    payload was produced (rule DET002: no hash-order anywhere).
    """

    indices: np.ndarray
    values: np.ndarray
    length: int

    def __post_init__(self) -> None:
        if self.indices.ndim != 1 or self.values.ndim != 1:
            raise ValueError("indices and values must be 1-D")
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values must have the same length")
        if self.length < 0:
            raise ValueError("dense length must be non-negative")
        if self.indices.size:
            if int(self.indices[0]) < 0 or int(self.indices[-1]) >= self.length:
                raise ValueError("indices must lie in [0, length)")
            if np.any(np.diff(self.indices) <= 0):
                raise ValueError("indices must be strictly increasing")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def wire_values(self) -> float:
        """Values moved on the wire: one index + one value per coordinate."""
        return 2.0 * self.nnz

    def to_dense(self) -> np.ndarray:
        """Materialize the dense vector (exact: scatter into zeros)."""
        out = np.zeros(self.length)
        out[self.indices] = self.values
        return out

    @classmethod
    def from_dense(cls, vec: np.ndarray) -> "SparsePayload":
        """Encode a dense vector (support in ascending index order)."""
        idx = np.flatnonzero(vec)
        return cls(indices=idx, values=vec[idx], length=int(vec.shape[0]))


def wire_values(nnz: int, dense_size: int, mode: str) -> float:
    """Wire volume (in values) of one message under ``mode``.

    ``auto`` applies the SparCML break-even rule: index/value pairs iff
    ``nnz < dense_size / 2``, dense otherwise.
    """
    _check_mode(mode)
    if nnz < 0 or dense_size < 0:
        raise ValueError("nnz and dense_size must be non-negative")
    if mode == "off":
        return float(dense_size)
    if mode == "on":
        return 2.0 * nnz
    return 2.0 * nnz if 2 * nnz < dense_size else float(dense_size)


def encode(vec: np.ndarray, mode: str) -> "SparsePayload | np.ndarray":
    """Deterministic dense<->sparse switch for one message.

    Returns the original array under ``'off'`` (the dense path must stay
    bit-for-bit untouched), a :class:`SparsePayload` under ``'on'``, and
    whichever is cheaper on the wire under ``'auto'``.
    """
    _check_mode(mode)
    if mode == "off":
        return vec
    nnz = int(np.count_nonzero(vec))
    if mode == "auto" and 2 * nnz >= vec.shape[0]:
        return vec
    return SparsePayload.from_dense(vec)


def materialize(payload: "SparsePayload | np.ndarray") -> np.ndarray:
    """The dense vector a payload represents (identity for dense arrays)."""
    if isinstance(payload, SparsePayload):
        return payload.to_dense()
    return payload


def payload_wire_values(payload: "SparsePayload | np.ndarray") -> float:
    """Wire volume (in values) of one encoded message."""
    if isinstance(payload, SparsePayload):
        return payload.wire_values
    return float(payload.shape[0])


# ----------------------------------------------------------------------
# wire statistics the engines price
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CommStats:
    """Wire accounting of one collective phase.

    ``per_sender[r]`` lists the wire sizes (in values) of worker ``r``'s
    off-node messages in destination order; ``dense_values`` is what the
    dense exchange would have moved; ``wire_values`` is what actually
    moved.
    """

    phase: str
    dense_values: float
    wire_values: float
    per_sender: tuple[tuple[float, ...], ...]

    @property
    def num_senders(self) -> int:
        return len(self.per_sender)

    @property
    def compression(self) -> float:
        """Dense-over-wire volume ratio (1.0 for an empty exchange)."""
        if self.wire_values <= 0:
            return 1.0
        return self.dense_values / self.wire_values

    def phase_plan(self, request: PhaseRequest) -> PhasePlan:
        """The flat shuffle round, priced at these message sizes."""
        return request.shuffle.phase_plan(request, wire=self)


@dataclass(frozen=True)
class TreeWire:
    """Wire accounting of one treeAggregate fan-in.

    ``leaf_values[i]`` lists executor ``i``'s message sizes (one per task
    wave); ``partial_values[j]`` is the size of the ``j``-th aggregator's
    partial (aggregators in ascending executor order).  Totals count only
    messages that cross the network (an aggregator's own vectors are
    local, as is every leaf of a depth-1 plan's... no: depth-1 leaves all
    cross to the driver).
    """

    leaf_values: tuple[tuple[float, ...], ...]
    partial_values: tuple[float, ...]
    dense_values: float
    wire_values: float

    def __post_init__(self) -> None:
        mpe = self.messages_per_executor
        if any(len(row) != mpe for row in self.leaf_values):
            raise ValueError("every executor must ship the same number "
                             "of task vectors")

    @property
    def num_senders(self) -> int:
        return len(self.leaf_values)

    @property
    def messages_per_executor(self) -> int:
        return len(self.leaf_values[0]) if self.leaf_values else 0

    @property
    def compression(self) -> float:
        if self.wire_values <= 0:
            return 1.0
        return self.dense_values / self.wire_values

    def phase_plan(self, request: PhaseRequest) -> PhasePlan:
        """The flat treeAggregate, priced at these message sizes."""
        return request.tree.phase_plan(request, wire=self)


# ----------------------------------------------------------------------
# sparse shuffle collectives
# ----------------------------------------------------------------------
def sparse_reduce_scatter(models: list[np.ndarray], combine: str = "average",
                          weights: list[float] | None = None,
                          mode: str = "auto",
                          ) -> tuple[list[np.ndarray], CommStats]:
    """Reduce-Scatter with per-message sparse encoding.

    Identical semantics to :func:`repro.collectives.reduce_scatter` —
    every payload is materialized before the combine, so owner partitions
    are bit-identical to the dense path under every ``mode``.  The second
    return value prices the wire.
    """
    _check_mode(mode)
    if combine not in ("average", "sum", "weighted"):
        raise ValueError("combine must be 'average', 'sum' or 'weighted'")
    k = len(models)
    if k == 0:
        raise ValueError("need at least one model")
    m = models[0].shape[0]
    if any(w.shape != (m,) for w in models):
        raise ValueError("all local models must have the same shape")
    scale = combine_weight_scale(combine, weights, k)
    slices = partition_slices(m, k)
    sizes = [s.stop - s.start for s in slices]

    # Worker r encodes slice i of its local model for owner i; the slice
    # it owns travels locally and pays no wire cost.
    outboxes = [{owner: encode(model[slices[owner]], mode)
                 for owner in range(k)}
                for model in models]
    per_sender = tuple(
        tuple(payload_wire_values(outboxes[src][owner])
              for owner in range(k) if owner != src)
        for src in range(k))
    dense_values = float(sum(sizes[owner]
                             for src in range(k)
                             for owner in range(k) if owner != src))
    stats = CommStats(
        phase="reduce_scatter", dense_values=dense_values,
        wire_values=float(sum(v for row in per_sender for v in row)),
        per_sender=per_sender)

    inboxes = exchange(outboxes, k)
    partitions: list[np.ndarray] = []
    for owner, pieces in enumerate(inboxes):
        stacked = np.vstack([materialize(p) for p in pieces])
        if scale is not None:
            combined = scale @ stacked
        else:
            combined = stacked.sum(axis=0)
            if combine == "average":
                combined = combined / k
        partitions.append(combined)
    return partitions, stats


def sparse_all_gather(partitions: list[np.ndarray], model_size: int,
                      mode: str = "auto", check_replicas: bool = False,
                      ) -> tuple[np.ndarray, CommStats]:
    """AllGather with per-message sparse encoding.

    The reassembled model is bit-identical to
    :func:`repro.collectives.all_gather`; the second return value prices
    the wire (each owner ships its encoded partition to ``k - 1`` peers).
    """
    _check_mode(mode)
    k = len(partitions)
    if k == 0:
        raise ValueError("need at least one partition")
    slices = partition_slices(model_size, k)
    expected = [s.stop - s.start for s in slices]
    actual = [p.shape[0] for p in partitions]
    if expected != actual:
        raise ValueError(
            f"partition sizes {actual} do not match owner slices {expected}")

    encoded = [encode(p, mode) for p in partitions]
    per_sender = tuple(
        tuple(payload_wire_values(encoded[owner])
              for dst in range(k) if dst != owner)
        for owner in range(k))
    dense_values = float(sum(expected[owner] * (k - 1)
                             for owner in range(k)))
    stats = CommStats(
        phase="all_gather", dense_values=dense_values,
        wire_values=float(sum(v for row in per_sender for v in row)),
        per_sender=per_sender)

    outboxes = [{dst: encoded[owner] for dst in range(k)}
                for owner in range(k)]
    inboxes = exchange(outboxes, k)
    if check_replicas:
        replicas = [np.concatenate([materialize(p) for p in inbox])
                    for inbox in inboxes]
        _check_replicas(replicas, context="all_gather")
        return replicas[0], stats
    full = np.concatenate([materialize(p) for p in inboxes[0]])
    return full, stats


# ----------------------------------------------------------------------
# SendGradient fan-in (treeAggregate)
# ----------------------------------------------------------------------
def tree_fan_in_wire(vectors_by_executor: list[list[np.ndarray]],
                     plan: dict[int, int], model_size: int,
                     mode: str) -> TreeWire:
    """nnz-aware wire sizes for one treeAggregate of sparse vectors.

    ``vectors_by_executor[i]`` holds executor ``i``'s per-task vectors (a
    mini-batch gradient's support is the batch's column support, far
    smaller than ``m``).  ``plan`` is
    :meth:`repro.engine.TreeAggregateModel.plan`'s group assignment
    (empty for depth-1 flat aggregation).  An aggregator's partial to the
    driver carries the union support of its group's vectors.
    """
    _check_mode(mode)
    k = len(vectors_by_executor)
    if k == 0:
        raise ValueError("need at least one executor")
    supports = [[np.flatnonzero(v) for v in vectors]
                for vectors in vectors_by_executor]
    leaf_values = tuple(
        tuple(wire_values(int(idx.size), model_size, mode) for idx in row)
        for row in supports)

    aggregators = sorted(plan)
    a = len(aggregators)
    partial_values: list[float] = []
    for agg in aggregators:
        member_supports = [idx for e in range(k) if e % a == agg
                           for idx in supports[e]]
        union = (np.unique(np.concatenate(member_supports))
                 if member_supports else np.empty(0, dtype=np.int64))
        partial_values.append(wire_values(int(union.size), model_size, mode))

    if a == 0:
        # Depth 1: every leaf message crosses to the driver.
        network_leaves = [(e, t) for e in range(k)
                          for t in range(len(leaf_values[e]))]
    else:
        # Depth 2: members ship to their aggregator; an aggregator's own
        # vectors are local (executor e's aggregator is e % a).
        network_leaves = [(e, t) for e in range(k) if e % a != e
                          for t in range(len(leaf_values[e]))]
    wire_total = (sum(leaf_values[e][t] for e, t in network_leaves)
                  + sum(partial_values))
    dense_total = float(model_size) * (len(network_leaves) + a)
    return TreeWire(leaf_values=leaf_values,
                    partial_values=tuple(partial_values),
                    dense_values=dense_total, wire_values=wire_total)
