"""Datasets: synthetic generators, paper-analog catalog, LIBSVM IO."""

from .catalog import (CATALOG, PAPER_TABLE1, DatasetCard, avazu_like,
                      dataset_names, kddb_like, load, url_like, wx_like)
from .libsvm import read_libsvm, write_libsvm
from .partition import (PARTITION_STRATEGIES, Partition, partition_rows,
                        train_test_split)
from .synthetic import SparseDataset, SyntheticSpec, generate

__all__ = [
    "SparseDataset", "SyntheticSpec", "generate",
    "DatasetCard", "CATALOG", "PAPER_TABLE1", "dataset_names", "load",
    "avazu_like", "url_like", "kddb_like", "wx_like",
    "read_libsvm", "write_libsvm",
    "Partition", "partition_rows", "train_test_split",
    "PARTITION_STRATEGIES",
]
