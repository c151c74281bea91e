"""Partitioned datasets: the engine-facing view of training data.

A :class:`PartitionedDataset` pins each data partition to an executor, the
way a cached Spark RDD pins blocks to executors.  The assignment is static
for the whole training run (Spark re-uses cached partitions across
iterations; the paper assigns exactly one task per executor, see the
footnote in Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import ClusterSpec
from ..data import Partition, SparseDataset, partition_rows

__all__ = ["PartitionedDataset"]


@dataclass(frozen=True)
class PartitionedDataset:
    """Training data split across the executors of a cluster.

    Partition ``i`` lives on executor ``i`` (0-based executor index; the
    driver holds no data).
    """

    dataset: SparseDataset
    partitions: tuple[Partition, ...]

    def __post_init__(self) -> None:
        if not self.partitions:
            raise ValueError("need at least one partition")

    @classmethod
    def load(cls, dataset: SparseDataset, cluster: ClusterSpec,
             strategy: str = "random", seed: int = 0) -> "PartitionedDataset":
        """Algorithm 2's ``LoadData()``: one partition per executor."""
        k = cluster.num_executors
        if k < 1:
            raise ValueError("cluster has no executors to load data onto")
        parts = partition_rows(dataset, k, strategy=strategy, seed=seed)
        return cls(dataset=dataset, partitions=tuple(parts))

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def n_features(self) -> int:
        return self.dataset.n_features

    def partition(self, executor_index: int) -> Partition:
        return self.partitions[executor_index]
