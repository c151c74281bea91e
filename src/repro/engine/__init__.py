"""Spark-like BSP execution engine: RDDs, driver, aggregation, shuffle."""

from .aggregation import TreeAggregateModel, TreeAggregateTiming
from .backend import (BACKENDS, ExecutionBackend, SerialBackend,
                      ShmBackend, SocketBackend, make_backend)
from .driver import DRIVER_LABEL, BspEngine, CommRecord, executor_label
from .rdd import PartitionedDataset
from .shuffle import ShuffleModel, exchange

__all__ = [
    "BspEngine", "CommRecord", "DRIVER_LABEL", "executor_label",
    "PartitionedDataset",
    "BACKENDS", "ExecutionBackend", "SerialBackend", "ShmBackend",
    "SocketBackend", "make_backend",
    "TreeAggregateModel", "TreeAggregateTiming",
    "ShuffleModel", "exchange",
]
