"""AllReduce = Reduce-Scatter + AllGather, built on the shuffle operator.

This is the data plane of MLlib*'s distributed model averaging (Section
IV-B2, Algorithm 3).  With ``k`` workers and a size-``m`` model:

* :func:`partition_slices` splits the coordinates into ``k`` owner
  slices (ownership is logical: every worker keeps a full copy);
* :func:`reduce_scatter` — owner ``i`` combines (averages or sums) range
  ``i`` of every worker's model;
* :func:`all_gather` — every owner sends its combined range to all
  peers, which reassemble the model;
* :func:`all_reduce_average` — the composition, ``mean(local_models)``
  exactly.

Each worker sends and receives the model twice, ``2 k m`` values in all
(the paper's invariant, :func:`traffic_values`), with the latency of a
balanced all-to-all instead of a serialized fan-in
(:meth:`~repro.engine.driver.BspEngine.reduce_scatter_phase`).

:func:`ordered_sum` is the one float sum of vectors in ``src/``: this
Reduce-Scatter and every trainer's cross-worker mean call it.
:class:`~.topology.Topology` runs :func:`reduce_scatter` /
:func:`all_gather` once per exchange and hands the phase's support to its
wire builder (:mod:`.sparse`, :mod:`.hierarchical` and :mod:`.innetwork`
only size).  :func:`repro.engine.shuffle.exchange` stays the shuffle
primitive, and the routed reference that
``tests/test_properties_collectives.py`` holds this data plane equal to.
"""

from __future__ import annotations

import numpy as np

from ..analysis.sanitizer import check_replicas as _check_replicas
from ..glm.native import SparseVector

__all__ = ["ordered_sum", "partition_slices", "reduce_scatter",
           "all_gather", "all_reduce_average", "traffic_values"]


def ordered_sum(vectors: list[np.ndarray | SparseVector]) -> np.ndarray:
    """``np.stack(vectors).sum(axis=0)``, bit for bit, without the stack:
    NumPy adds the rows of a stack two or more wide in order into +0.0
    (not into a copy of row 0, which may hold ``-0.0``) and sums a width-1
    column pairwise.  A sum from +0.0 never holds ``-0.0``, so a
    :class:`~repro.glm.native.SparseVector` adds at its ``cols`` only.  A
    mean is ``ordered_sum(v) / len(v)``, as in ``np.mean``."""
    if vectors[0].size < 2:
        return np.stack(vectors).sum(axis=0)
    out = np.zeros(vectors[0].size)
    for v in vectors:
        if isinstance(v, SparseVector):
            out[v.cols] += v.values
        else:
            out += v
    return out


def partition_slices(model_size: int, num_workers: int) -> list[slice]:
    """Split ``model_size`` coordinates into ``num_workers`` owner slices.

    Sizes differ by at most one; concatenating the slices in order covers
    ``[0, model_size)`` exactly.
    """
    if num_workers < 1:
        raise ValueError("need at least one worker")
    if model_size < num_workers:
        raise ValueError(
            f"model of size {model_size} cannot be split across "
            f"{num_workers} workers with non-empty partitions")
    bounds = np.linspace(0, model_size, num_workers + 1).astype(int)
    return [slice(int(bounds[i]), int(bounds[i + 1]))
            for i in range(num_workers)]


def reduce_scatter(models: list[np.ndarray],
                   combine: str = "average") -> list[np.ndarray]:
    """Phase 1: each worker ends up with the combined partition it owns.

    ``models[r]`` is worker ``r``'s full local model.  Returns
    ``partitions`` where ``partitions[r]`` is the combined slice owned by
    worker ``r``.  Combination schemes:

    * ``average`` — plain model averaging (MLlib*'s primal exchange);
    * ``sum`` — summation (the CoCoA dual path adds its deltas).
    """
    if combine not in ("average", "sum"):
        raise ValueError("combine must be 'average' or 'sum'")
    k = len(models)
    if k == 0:
        raise ValueError("need at least one model")
    m = models[0].shape[0]
    if any(w.shape != (m,) for w in models):
        raise ValueError("all local models must have the same shape")

    # One owner range at a time, in worker order: a range's bits are
    # those of its own (k, width) stack summed, which ordered_sum gives
    # without building the stack.  NumPy sums a width-1 range (m < 2k)
    # pairwise, so one full-width sum would be an ulp off there at k >= 8.
    partitions: list[np.ndarray] = []
    for owned in partition_slices(m, k):
        combined = ordered_sum([model[owned] for model in models])
        if combine == "average":
            combined = combined / k
        partitions.append(combined)
    return partitions


def all_gather(partitions: list[np.ndarray], model_size: int,
               check_replicas: bool = False) -> np.ndarray:
    """Phase 2: reassemble the full model from owner partitions.

    Every worker receives every partition; since the reassembled vector is
    identical on all workers, one array is returned.  With
    ``check_replicas`` (the ``--sanitize`` barrier digest check) every
    worker's reassembled replica is materialized and verified
    bit-identical first — a diverging replica raises
    :class:`~repro.analysis.sanitizer.ReplicaDivergenceError` at this
    barrier instead of surfacing as unexplained drift later.
    """
    k = len(partitions)
    if k == 0:
        raise ValueError("need at least one partition")
    slices = partition_slices(model_size, k)
    expected = [s.stop - s.start for s in slices]
    actual = [p.shape[0] for p in partitions]
    if expected != actual:
        raise ValueError(
            f"partition sizes {actual} do not match owner slices {expected}")
    # Every worker receives the k partitions in owner order.
    if check_replicas:
        replicas = [np.concatenate(partitions) for _ in range(k)]
        _check_replicas(replicas, context="all_gather")
        return replicas[0]
    return np.concatenate(partitions)


def all_reduce_average(models: list[np.ndarray]) -> np.ndarray:
    """Reduce-Scatter + AllGather; equals ``np.mean(models, axis=0)``."""
    if not models:
        raise ValueError("need at least one model")
    partitions = reduce_scatter(models, combine="average")
    return all_gather(partitions, models[0].shape[0])


def traffic_values(model_size: int, num_workers: int) -> float:
    """Total values moved by one AllReduce (the paper's ``2 k m`` figure).

    Each worker sends ``(k-1)/k * m`` in each phase and receives the same,
    so total send volume is ``2 k m (k-1)/k = 2 (k-1) m``; the paper rounds
    this to ``2 k m`` ("the model is sent and received by each executor
    twice").  We return the exact value.
    """
    if num_workers < 1:
        raise ValueError("need at least one worker")
    return 2.0 * (num_workers - 1) * model_size
