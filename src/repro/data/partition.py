"""Row partitioners: splitting a dataset across workers.

The generic architecture (Algorithm 2) starts with the master issuing
``LoadData()`` so every worker holds one partition.  Spark's default is a
hash/contiguous split of the input file; the paper additionally notes
(Section IV footnote 4) that data and model are partitioned *independently*,
which is why MLlib* needs its Reduce-Scatter phase.

Partitioners return a list of :class:`Partition`, each a copy of its
rows of the parent dataset.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.sparse as sp

from .synthetic import SparseDataset

__all__ = ["Partition", "partition_rows", "train_test_split",
           "PARTITION_STRATEGIES"]

PARTITION_STRATEGIES = ("contiguous", "round_robin", "random", "skewed")


@dataclass(frozen=True)
class Partition:
    """One worker's slice of the training data."""

    index: int
    X: sp.csr_matrix
    y: np.ndarray

    def __post_init__(self) -> None:
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("partition X and y row counts differ")

    @property
    def n_rows(self) -> int:
        return int(self.X.shape[0])

    @property
    def nnz(self) -> int:
        return int(self.X.nnz)

    @functools.cached_property
    def native(self) -> Any:
        """This process's :class:`repro.glm.native.PartitionView` of the
        partition (``None`` without the compiled tier): built on first use
        in each process, dropped with the partition, never pickled."""
        from ..glm import native
        return native.view(self.X, self.y)

    def __getstate__(self) -> dict[str, Any]:
        return {key: value for key, value in self.__dict__.items()
                if key != "native"}


def _row_assignment(n_rows: int, n_partitions: int, strategy: str,
                    seed: int) -> list[np.ndarray]:
    if strategy == "contiguous":
        return [np.asarray(block, dtype=np.int64)
                for block in np.array_split(np.arange(n_rows), n_partitions)]
    if strategy == "round_robin":
        return [np.arange(start, n_rows, n_partitions, dtype=np.int64)
                for start in range(n_partitions)]
    if strategy == "random":
        rng = np.random.default_rng(seed)
        order = rng.permutation(n_rows)
        return [np.sort(np.asarray(block, dtype=np.int64))
                for block in np.array_split(order, n_partitions)]
    if strategy == "skewed":
        # Geometric load imbalance (each partition ~2/3 the previous one),
        # the data-skew scenario of Section IV's footnote 4.  Rows are
        # still shuffled so the *distributions* stay IID — only the
        # partition sizes are unbalanced.
        rng = np.random.default_rng(seed)
        order = rng.permutation(n_rows)
        raw = np.power(2.0 / 3.0, np.arange(n_partitions))
        sizes = np.maximum(1, np.floor(raw / raw.sum() * n_rows)).astype(int)
        # Distribute rounding leftovers to the largest partition.
        sizes[0] += n_rows - int(sizes.sum())
        if sizes[0] < 1:
            raise ValueError("skew left an empty partition; "
                             "use fewer partitions")
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        return [np.sort(order[bounds[i]:bounds[i + 1]].astype(np.int64))
                for i in range(n_partitions)]
    raise ValueError(f"unknown partition strategy {strategy!r}; "
                     f"expected one of {PARTITION_STRATEGIES}")


def partition_rows(dataset: SparseDataset, n_partitions: int,
                   strategy: str = "random", seed: int = 0) -> list[Partition]:
    """Split ``dataset`` into ``n_partitions`` row partitions.

    ``random`` (the default) mimics a shuffled distributed load and keeps
    label/feature distribution roughly balanced across workers — the
    assumption behind model averaging's convergence.
    """
    if n_partitions < 1:
        raise ValueError("need at least one partition")
    if n_partitions > dataset.n_rows:
        raise ValueError(
            f"cannot split {dataset.n_rows} rows into {n_partitions} "
            "non-empty partitions")
    blocks = _row_assignment(dataset.n_rows, n_partitions, strategy, seed)
    return [Partition(index=i, X=dataset.X[rows], y=dataset.y[rows])
            for i, rows in enumerate(blocks)]


def train_test_split(dataset: SparseDataset, test_fraction: float = 0.2,
                     seed: int = 0) -> tuple[SparseDataset, SparseDataset]:
    """Random row split into train and held-out test datasets."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    n_test = int(round(test_fraction * dataset.n_rows))
    if n_test == 0 or n_test == dataset.n_rows:
        raise ValueError(
            f"test_fraction {test_fraction} leaves an empty split for "
            f"{dataset.n_rows} rows")
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.n_rows)
    test_rows = np.sort(order[:n_test])
    train_rows = np.sort(order[n_test:])
    train = SparseDataset(name=f"{dataset.name}-train",
                          X=dataset.X[train_rows], y=dataset.y[train_rows],
                          scale_bytes=dataset.scale_bytes)
    test = SparseDataset(name=f"{dataset.name}-test",
                         X=dataset.X[test_rows], y=dataset.y[test_rows],
                         scale_bytes=0.0)
    return train, test
