"""AllReduce = Reduce-Scatter + AllGather, built on the shuffle operator.

This is the data plane of MLlib*'s distributed model averaging (Section
IV-B2, Algorithm 3).  With ``k`` workers and a size-``m`` model:

* :func:`partition_slices` splits the model coordinates into ``k`` logical
  partitions; worker ``i`` *owns* partition ``i`` (ownership is logical —
  every worker keeps a full physical copy).
* :func:`reduce_scatter` — every worker sends each non-owned partition of
  its local model to that partition's owner; owners combine (here:
  average) the ``k`` copies of their partition.
* :func:`all_gather` — every owner sends its combined partition to all
  peers; every worker reassembles the full model.
* :func:`all_reduce_average` — the composition; for every worker the result
  equals ``mean(local_models)`` exactly.

The traffic invariant the paper stresses: each worker sends and receives
the model **twice** per AllReduce, so total traffic is ``2 k m`` values —
identical to the driver-centric scheme, but with the latency of a balanced
all-to-all instead of a serialized fan-in (costs are priced by
:class:`~repro.engine.shuffle.ShuffleModel` /
:meth:`~repro.engine.driver.BspEngine.reduce_scatter_phase`).

:func:`reduce_scatter` and :func:`all_gather` are the **only** code in
``src/`` that combines or reassembles vectors: :class:`~.topology.Topology`
calls them once per exchange and hands the phase's support to its
topology's wire builder (:mod:`.sparse`, :mod:`.hierarchical`,
:mod:`.innetwork` only size); ``sparse_*`` and ``hier_*``
``reduce_scatter`` / ``all_gather`` are the same composition for callers
without a session topology.  Routing is implicit (owner ``i`` reads range ``i`` of
every model, in worker order); :func:`repro.engine.shuffle.exchange` stays
the shuffle primitive, and the routed reference that
``tests/test_properties_collectives.py`` holds this data plane equal to.
"""

from __future__ import annotations

import numpy as np

from ..analysis.sanitizer import check_replicas as _check_replicas

__all__ = ["partition_slices", "reduce_scatter", "all_gather",
           "all_reduce_average", "traffic_values"]


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

    # One owner range at a time, on purpose: reducing one full-width
    # (k, m) stack is not bit-identical (NumPy sums a width-1 range
    # pairwise, a wider one row by row: an ulp when m < 2k, k >= 8) and
    # holds k x m floats at once (+35 % peak RSS on the wide workloads).
    partitions: list[np.ndarray] = []
    for owned in partition_slices(m, k):
        combined = np.vstack([model[owned] for model in models]).sum(axis=0)
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
