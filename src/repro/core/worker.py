"""Module-level worker task functions for the execution backends.

Each function here is one worker's share of a superstep's local-solve
phase, shaped for :mod:`repro.engine.backend`:

* **module-level and partition-first** — process pools pickle functions
  by reference and look the partition up in the pool-side store, so every
  task takes ``(partition, ...)`` and must be importable by name;
* **RNG round-trip** — tasks that draw randomness take the worker's
  private ``Generator`` last and return it last;
  ``DistributedTrainer._local_round`` supplies it and keeps what comes
  back for the next round (ASGD's one-worker ``run_one`` likewise).
  In-process backends hand back the same (already advanced) object;
  process backends hand back a pickled copy whose state round-trips
  exactly, so RNG streams advance bit-identically to the serial loop no
  matter the backend;
* **numerics only** — simulated-seconds pricing stays in the parent
  (tasks return raw work stats), so the cost model never crosses a
  process boundary and the priced clock is backend-invariant;
* **read-only inputs** — tasks never mutate their partition or the
  broadcast model ``w``; they allocate fresh outputs.  The shared-memory
  backend relies on this: under ``shm`` both the partition's CSR arrays
  and the broadcast vector arrive as *read-only views* of shared
  segments (a violating write raises), and under ``socket`` the
  partition is a daemon-cached object reused across supersteps and the
  tasks of one round share one read-only ``w``.

Cross-worker combining (means, reduce-scatter, server pushes) stays in
the trainers, in the serial code's float-addition order — that, plus the
ordered map, is what makes every backend bit-identical.
"""

from __future__ import annotations

import numpy as np

from ..data import Partition
from ..glm import (DualSolverSpec, LocalStats, Objective, dual_local_solve,
                   gd_step, mgd_epoch, sample_batch, sgd_epoch)
from .config import TrainerConfig

__all__ = ["gradient_wave_task", "send_model_task", "petuum_batch_task",
           "angel_epoch_task", "full_pass_task", "asgd_gradient_task",
           "run_dual_on_partition"]


def gradient_wave_task(part: Partition, w: np.ndarray, objective: Objective,
                       waves: int, per_task: int, rng: np.random.Generator,
                       ) -> tuple[list[np.ndarray], list[int],
                                  np.random.Generator]:
    """MLlib SendGradient: ``waves`` sequential batch gradients at ``w``."""
    task_grads: list[np.ndarray] = []
    nnz: list[int] = []
    for _ in range(waves):
        Xb, yb = sample_batch(part.X, part.y, per_task, rng)
        task_grads.append(objective.batch_loss_gradient(w, Xb, yb))
        nnz.append(int(Xb.nnz))
    return task_grads, nnz, rng


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
    Xb, yb = sample_batch(part.X, part.y, batch, rng)
    if objective.is_regularized:
        # One GD update over the batch (dense updates kept rare).
        local_w, stats = gd_step(objective, w, Xb, yb, lr)
    else:
        # Parallel SGD inside the batch: many updates per step.
        local_w, stats = sgd_epoch(objective, w, Xb, yb, lr, rng,
                                   chunk_size=config.local_chunk_size,
                                   lazy=config.lazy_l2)
    return local_w, stats, rng


def angel_epoch_task(part: Partition, w: np.ndarray, objective: Objective,
                     lr: float, batch: int, rng: np.random.Generator,
                     ) -> tuple[np.ndarray, LocalStats,
                                np.random.Generator]:
    """Angel: one mini-batch GD pass over the whole partition per step."""
    local_w, stats = mgd_epoch(objective, w, part.X, part.y, lr, batch, rng)
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
    """ASGD: one worker's batch gradient at its pulled model snapshot."""
    Xb, yb = sample_batch(part.X, part.y, batch, rng)
    grad = objective.batch_loss_gradient(model, Xb, yb)
    return grad, int(Xb.nnz), rng
