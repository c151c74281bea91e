"""Sparse-aware wire formats for the collectives (SparCML-style).

The paper's ``2 k m`` AllReduce invariant (Section IV-B2) prices a
*dense* exchange, but a worker's local model is supported on its
partition's column support and a mini-batch gradient on the batch's —
on every target dataset a small fraction of ``m``.  SparCML (Renggli et
al.) sends index/value pairs in exactly this regime.

* :class:`SparsePayload` — the index/value format: one coordinate costs
  **two** wire values, so sparse is cheaper iff ``2 * nnz < m``.
* :func:`encode` / :func:`materialize` — the deterministic dense<->sparse
  switch: ``'auto'`` picks the cheaper form per message, ``'on'`` forces
  sparse, ``'off'`` passes the dense array through.  With
  :func:`payload_wire_values` they define the format and are the
  reference ``tests/test_properties_collectives.py`` sizes against; no
  trainer-reachable path calls them.
* :class:`SupportMask` — the one sizing primitive (a *count* per message).
* :func:`flat_rs_wire` / :func:`flat_ag_wire` / :func:`flat_fan_in_wire`
  — the flat topology's builders: one mask in, a :class:`CommStats`
  (shuffle round) or :class:`TreeWire` (treeAggregate fan-in) out.  They
  size; they never combine.
* :func:`sparse_reduce_scatter` / :func:`sparse_all_gather` — the flat
  data plane composed with those builders, for callers without a
  session :class:`~.topology.Topology`.

Supports are boolean masks in coordinate order and groups are iterated
in sorted order, never via a set (rule DET002 applies to this module).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..engine.plan import PhasePlan, PhaseRequest, compression_ratio
from .allreduce import all_gather, partition_slices, reduce_scatter

__all__ = ["SPARSE_COMM_MODES", "SparsePayload", "CommStats", "TreeWire",
           "SupportMask", "encode", "materialize", "payload_wire_values",
           "wire_values", "flat_rs_wire", "flat_ag_wire",
           "flat_fan_in_wire", "sparse_reduce_scatter", "sparse_all_gather"]

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

    compression = property(compression_ratio)

    def phase_plan(self, request: PhaseRequest) -> PhasePlan:
        """The flat shuffle round, priced at these message sizes."""
        return request.shuffle.phase_plan(request, wire=self)


@dataclass(frozen=True)
class TreeWire:
    """Wire accounting of one treeAggregate fan-in.

    ``leaf_values[i]`` lists executor ``i``'s message sizes (one per task
    wave); ``partial_values[j]`` is the size of the ``j``-th aggregator's
    partial (aggregators in ascending executor order).  Totals count only
    messages that cross the network: under a depth-2 plan an aggregator's
    own vectors stay local; under a depth-1 plan (no aggregators) every
    leaf crosses to the driver.
    """

    leaf_values: tuple[tuple[float, ...], ...]
    partial_values: tuple[float, ...]
    dense_values: float
    wire_values: float

    @property
    def num_senders(self) -> int:
        return len(self.leaf_values)

    @property
    def messages_per_executor(self) -> int:
        return len(self.leaf_values[0]) if self.leaf_values else 0

    compression = property(compression_ratio)

    def phase_plan(self, request: PhaseRequest) -> PhasePlan:
        """The flat treeAggregate, priced at these message sizes."""
        return request.tree.phase_plan(request, wire=self)


# ----------------------------------------------------------------------
# the one sizing primitive
# ----------------------------------------------------------------------
class SupportMask:
    """Row ``r`` is ``vectors[r] != 0``: what vector ``r`` puts on a
    sparse wire.  Every wire builder (flat, hier, tree, and through them
    the switch fallback) sizes its messages here.

    A message's count is a ``reduceat`` over the owner ranges of the
    ``any`` of the rows whose union it carries — read from the inputs,
    never from combined floats, so sizing is immune to cancellation.
    Under ``'off'`` no size depends on a support, so nothing is scanned
    (``vectors`` may be empty).
    """

    def __init__(self, vectors: Sequence[np.ndarray], size: int,
                 mode: str) -> None:
        _check_mode(mode)
        self.size, self.mode = size, mode
        self._mask = (None if mode == "off"
                      else np.vstack([v != 0 for v in vectors]))

    def message(self, rows: Sequence[int]) -> float:
        """Wire size of one whole-vector message carrying the union
        support of vectors ``rows``."""
        return self.values(rows, [slice(0, self.size)])[0]

    def values(self, rows: Sequence[int],
               ranges: Sequence[slice]) -> tuple[float, ...]:
        """Wire size of one message per range, each carrying the union
        support of vectors ``rows`` inside that range."""
        if self._mask is None:
            return self._sized([0] * len(ranges), ranges)
        return self._sized(np.add.reduceat(
            self._mask[list(rows)].any(axis=0),
            [r.start for r in ranges], dtype=np.intp).tolist(), ranges)

    def per_row(self, k: int, ranges: Sequence[slice],
                ) -> list[tuple[float, ...]]:
        """``values([r], ranges)`` for each of the first ``k`` rows,
        counted by one ``reduceat`` along the rows of the mask."""
        if self._mask is None:
            return [self._sized([0] * len(ranges), ranges)] * k
        counts = np.add.reduceat(self._mask[:k], [r.start for r in ranges],
                                 axis=1, dtype=np.intp).tolist()
        return [self._sized(row, ranges) for row in counts]

    def _sized(self, counts: Sequence[int],
               ranges: Sequence[slice]) -> tuple[float, ...]:
        return tuple(wire_values(nnz, r.stop - r.start, self.mode)
                     for nnz, r in zip(counts, ranges))


# ----------------------------------------------------------------------
# flat wire builders: one support in, the phase's sizing out
# ----------------------------------------------------------------------
def _shuffle_stats(phase: str, model_size: int,
                   per_sender: tuple[tuple[float, ...], ...]) -> CommStats:
    return CommStats(
        phase=phase, dense_values=float((len(per_sender) - 1) * model_size),
        wire_values=float(sum(v for row in per_sender for v in row)),
        per_sender=per_sender)


def flat_rs_wire(support: SupportMask, k: int) -> CommStats:
    """Reduce-Scatter sizing: worker ``r`` (``support`` row ``r``) sends
    range ``i`` of its local model to owner ``i``; the range it owns
    travels locally and pays no wire cost."""
    sizes = support.per_row(k, partition_slices(support.size, k))
    return _shuffle_stats("reduce_scatter", support.size, tuple(
        tuple(v for owner, v in enumerate(row) if owner != src)
        for src, row in enumerate(sizes)))


def flat_ag_wire(support: SupportMask, k: int) -> CommStats:
    """AllGather sizing: each of the ``k`` owners ships its range of the
    reassembled model (``support``'s one row) to ``k - 1`` peers."""
    owned = support.values([0], partition_slices(support.size, k))
    return _shuffle_stats("all_gather", support.size,
                          tuple((v,) * (k - 1) for v in owned))


def flat_fan_in_wire(support: SupportMask, k: int, plan: dict[int, int],
                     mpe: int) -> TreeWire:
    """treeAggregate sizing: ``support`` rows ``e * mpe .. (e + 1) * mpe``
    are executor ``e``'s task vectors (a mini-batch gradient's support is
    the batch's column support, far smaller than ``m``).  ``plan`` is
    :meth:`repro.engine.TreeAggregateModel.plan`'s group assignment
    (empty for depth-1 flat aggregation); an aggregator's partial to the
    driver carries the union support of its group's vectors.
    """
    rows = [range(e * mpe, (e + 1) * mpe) for e in range(k)]
    leaf_values = tuple(tuple(support.message([r]) for r in rows[e])
                        for e in range(k))

    aggregators = sorted(plan)
    a = len(aggregators)
    partial_values = [
        support.message([r for e in range(k) if e % a == agg
                         for r in rows[e]])
        for agg in aggregators]

    # Only network messages count.  Depth 2: executor e ships to
    # aggregator e % a, so the aggregators' own vectors (e < a) are
    # local.  Depth 1 (a == 0): every leaf crosses to the driver.
    crossing = [v for row in leaf_values[a:] for v in row]
    wire_total = sum(crossing) + sum(partial_values)
    dense_total = float(support.size) * (len(crossing) + a)
    return TreeWire(leaf_values=leaf_values,
                    partial_values=tuple(partial_values),
                    dense_values=dense_total, wire_values=wire_total)


# ----------------------------------------------------------------------
# the flat data plane plus its sized wire, in one call
# ----------------------------------------------------------------------
def sparse_reduce_scatter(models: list[np.ndarray], combine: str = "average",
                          mode: str = "auto",
                          ) -> tuple[list[np.ndarray], CommStats]:
    """Reduce-Scatter with per-message sparse sizing.

    The partitions *are* :func:`repro.collectives.reduce_scatter`'s, so
    they are bit-identical to the dense path under every ``mode``; the
    second return value is :func:`flat_rs_wire`'s pricing.
    """
    partitions = reduce_scatter(models, combine=combine)
    return partitions, flat_rs_wire(
        SupportMask(models, int(models[0].shape[0]), mode), len(models))


def sparse_all_gather(partitions: list[np.ndarray], model_size: int,
                      mode: str = "auto", check_replicas: bool = False,
                      ) -> tuple[np.ndarray, CommStats]:
    """AllGather with per-message sparse sizing.

    The reassembled model *is* :func:`repro.collectives.all_gather`'s;
    the second return value is :func:`flat_ag_wire`'s pricing.
    """
    full = all_gather(partitions, model_size, check_replicas=check_replicas)
    return full, flat_ag_wire(SupportMask([full], model_size, mode),
                              len(partitions))
