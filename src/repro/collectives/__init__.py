"""MPI-style collectives (Reduce-Scatter, AllGather, AllReduce) on shuffle.

Three pluggable aggregation topologies share one data plane (the flat
combine kernels in :mod:`.allreduce`, called once per exchange) and one
sizing rule (support counts, :class:`.sparse.SupportMask`; the
``SparsePayload`` codec is the format's definition and test reference,
no trainer runs it), so every mode is bit-identical:

* ``flat`` — the shuffle-based AllReduce of the paper (:mod:`.allreduce`),
  optionally with the SparCML sparse wire format (:mod:`.sparse`).
* ``hier`` — two-tier, placement-aware aggregation (:mod:`.hierarchical`).
* ``switch`` — SwitchML-style in-network aggregation (:mod:`.innetwork`).

:func:`open_topology` (:mod:`.topology`) is the single selection point:
trainers open one :class:`Topology` per session and never branch on the
collective's name again.
"""

from .allreduce import (all_gather, all_reduce_average, partition_slices,
                        reduce_scatter, traffic_values)
from .hierarchical import (HierWire, hier_all_gather, hier_dense_wire,
                           hier_reduce_scatter, hier_tree_fan_in)
from .innetwork import (SwitchWire, switch_all_gather, switch_dense_wire,
                        switch_reduce_scatter, switch_rounds,
                        switch_stream_seconds, switch_tree_fan_in)
from .sparse import (SPARSE_COMM_MODES, CommStats, SparsePayload, TreeWire,
                     encode, materialize, payload_wire_values,
                     sparse_all_gather, sparse_reduce_scatter,
                     tree_fan_in_wire, wire_values)
from .topology import COLLECTIVES, TOPOLOGIES, Topology, open_topology

__all__ = ["partition_slices", "reduce_scatter", "all_gather",
           "all_reduce_average", "traffic_values", "SPARSE_COMM_MODES", "SparsePayload",
           "CommStats", "TreeWire", "encode", "materialize",
           "payload_wire_values", "wire_values", "sparse_reduce_scatter",
           "sparse_all_gather", "tree_fan_in_wire",
           "COLLECTIVES", "TOPOLOGIES", "Topology", "open_topology",
           "HierWire", "hier_reduce_scatter", "hier_all_gather",
           "hier_tree_fan_in", "hier_dense_wire",
           "SwitchWire", "switch_rounds", "switch_stream_seconds",
           "switch_reduce_scatter", "switch_all_gather",
           "switch_tree_fan_in", "switch_dense_wire"]
