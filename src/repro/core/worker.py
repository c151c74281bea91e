"""Module-level worker task functions for the execution backends.

Each function is one worker's share of a superstep's local solve,
shaped for :mod:`repro.engine.backend`:

* **module-level and partition-first** — pools pickle functions by
  reference and look the partition up in their own store, so every task
  takes ``(partition, ...)`` and is importable by name;
* **RNG round-trip** — a task that draws takes the worker's private
  ``Generator`` last and returns it last, and
  ``DistributedTrainer._local_round`` (ASGD's ``run_one``) keeps it for
  the next round.  A process backend returns a pickled copy whose state
  round-trips exactly, so every stream advances as in the serial loop;
* **numerics only** — tasks return raw work stats and the parent prices
  them, so the simulated clock never crosses a process boundary;
* **read-only inputs** — tasks never write their partition or the
  broadcast ``w``: under ``shm`` both are read-only views of shared
  segments, under ``socket`` a daemon caches the partition and a round's
  tasks share one read-only ``w``.  Only the partition's ``native`` view
  (this process's scratch, rewritten before every read) changes.
"""

from __future__ import annotations

import numpy as np

from ..data import Partition
from ..glm import (DualSolverSpec, LocalStats, Objective, SparseVector,
                   apply_update, dual_local_solve, mgd_epoch, sample_batch,
                   sampled_gradient, sgd_epoch)
from .config import TrainerConfig

__all__ = ["gradient_wave_task", "send_model_task", "petuum_batch_task",
           "angel_epoch_task", "full_pass_task", "asgd_gradient_task",
           "run_dual_on_partition"]


def gradient_wave_task(part: Partition, w: np.ndarray, objective: Objective,
                       waves: int, per_task: int, rng: np.random.Generator,
                       ) -> tuple[list[SparseVector], list[int],
                                  np.random.Generator]:
    """MLlib SendGradient: ``waves`` sequential sparse batch gradients at
    ``w`` (compiled: :func:`repro.glm.sampled_gradient`) and their nnz."""
    task_grads, nnz = zip(*(sampled_gradient(objective, w, part.X, part.y,
                                             per_task, rng, part.native)
                            for _ in range(waves)))
    return list(task_grads), list(nnz), rng


def send_model_task(part: Partition, w: np.ndarray, objective: Objective,
                    lr: float, config: TrainerConfig,
                    rng: np.random.Generator,
                    ) -> tuple[np.ndarray, LocalStats, np.random.Generator]:
    """SendModel (MLlib+MA / MLlib*): Algorithm 3's ``UpdateModel``.

    ``config.local_epochs`` shuffled passes of chunked SGD (chunk size
    ``config.local_chunk_size``, lazy L2 when configured) from the global
    model; returns the local model and the merged work stats."""
    local_w = w
    total = LocalStats()
    for _ in range(config.local_epochs):
        local_w, stats = sgd_epoch(
            objective, local_w, part.X, part.y, lr, rng,
            chunk_size=config.local_chunk_size, lazy=config.lazy_l2)
        total = total.merge(stats)
    return local_w, total, rng


def petuum_batch_task(part: Partition, w: np.ndarray, objective: Objective,
                      lr: float, batch: int, config: TrainerConfig,
                      rng: np.random.Generator,
                      ) -> tuple[np.ndarray, LocalStats,
                                 np.random.Generator]:
    """Petuum: one batch per step — GD if regularized, else parallel SGD
    inside the batch (Section III-B1)."""
    if objective.is_regularized:
        # One GD update over the batch (dense updates kept rare).
        grad, nnz = sampled_gradient(objective, w, part.X, part.y, batch,
                                     rng, part.native)
        dense = w.shape[0] if objective.regularizer.is_dense else 0
        return (apply_update(w, grad.to_dense(), lr, objective),
                LocalStats(2 * nnz, 1, dense), rng)
    # Parallel SGD inside the batch: many updates per step.
    Xb, yb = sample_batch(part.X, part.y, batch, rng)
    local_w, stats = sgd_epoch(objective, w, Xb, yb, lr, rng,
                               chunk_size=config.local_chunk_size,
                               lazy=config.lazy_l2)
    return local_w, stats, rng


def angel_epoch_task(part: Partition, w: np.ndarray, objective: Objective,
                     lr: float, batch: int, rng: np.random.Generator,
                     ) -> tuple[np.ndarray, LocalStats,
                                np.random.Generator]:
    """Angel: one mini-batch GD pass over the whole partition per step."""
    local_w, stats = mgd_epoch(objective, w, part.X, part.y, lr, batch, rng,
                               view=part.native)
    return local_w, stats, rng


def run_dual_on_partition(part: Partition, w: np.ndarray,
                          objective: Objective, spec: DualSolverSpec,
                          alpha: np.ndarray, rng: np.random.Generator,
                          ) -> tuple[np.ndarray, np.ndarray, LocalStats,
                                     np.random.Generator]:
    """CoCoA-family SendModel: ``H`` SDCA epochs over the local dual block.

    Runs the dual coordinate-ascent local solver against the broadcast
    iterate ``w`` and this worker's dual variables ``alpha`` (one per
    local row; the trainer round-trips the returned block exactly like
    the RNG).  Returns the gamma-scaled model delta — the trainers *sum*
    deltas across workers, unlike the model-averaging mean — plus the
    committed dual block, work stats and the advanced RNG.
    """
    if part.X.shape[0] == 0:
        raise ValueError(
            f"partition {part.index} is empty: the dual solver has no "
            "local dual variables to ascend on (an empty block would "
            "silently contribute a zero update)")
    delta_w, new_alpha, stats = dual_local_solve(
        objective, w, part.X, part.y, alpha, spec, rng)
    return delta_w, new_alpha, stats, rng


def full_pass_task(part: Partition, w: np.ndarray,
                   objective: Objective) -> tuple[float, np.ndarray]:
    """spark.ml: one partition's unweighted full-batch (loss, gradient).

    The parent applies the ``n_rows / total_rows`` weights and accumulates
    in partition order — the exact float-op sequence of the serial loop.
    """
    fval = objective.loss_value(w, part.X, part.y)
    grad = objective.batch_loss_gradient(w, part.X, part.y)
    return fval, grad


def asgd_gradient_task(part: Partition, model: np.ndarray,
                       objective: Objective, batch: int,
                       rng: np.random.Generator,
                       ) -> tuple[np.ndarray, int, np.random.Generator]:
    """ASGD: one worker's batch gradient at its pulled model snapshot
    (:func:`repro.glm.sampled_gradient`, as MLlib's)."""
    grad, nnz = sampled_gradient(objective, model, part.X, part.y, batch, rng,
                                 part.native)
    return grad.to_dense(), nnz, rng
