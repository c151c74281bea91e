"""MPI-style collectives (Reduce-Scatter, AllGather, AllReduce) on shuffle.

Three aggregation topologies share one data plane (:mod:`.allreduce`, run
once per exchange by :class:`Topology`) and one sizing rule
(:class:`SupportMask`), so every mode is bit-identical:

* ``flat`` — the paper's shuffle AllReduce, optionally with the SparCML
  sparse wire format (:mod:`.sparse`);
* ``hier`` — two-tier, placement-aware aggregation (:mod:`.hierarchical`);
* ``switch`` — SwitchML-style in-network aggregation (:mod:`.innetwork`).

:func:`open_topology` (:mod:`.topology`) is the one selection point:
trainers open one :class:`Topology` per session and never branch on the
collective's name again.
"""

from .allreduce import (all_gather, all_reduce_average, ordered_sum,
                        partition_slices, reduce_scatter, traffic_values)
from .hierarchical import HierWire, hier_all_gather, hier_reduce_scatter
from .innetwork import SwitchWire, switch_rounds, switch_stream_seconds
from .sparse import (SPARSE_COMM_MODES, CommStats, SparsePayload,
                     SupportMask, TreeWire, encode, materialize,
                     payload_wire_values, sparse_all_gather,
                     sparse_reduce_scatter, wire_values)
from .topology import COLLECTIVES, TOPOLOGIES, Topology, open_topology

__all__ = ["ordered_sum", "partition_slices", "reduce_scatter", "all_gather",
           "all_reduce_average", "traffic_values", "SPARSE_COMM_MODES",
           "SparsePayload", "CommStats", "TreeWire", "SupportMask", "encode",
           "materialize", "payload_wire_values", "wire_values",
           "sparse_reduce_scatter", "sparse_all_gather", "COLLECTIVES",
           "TOPOLOGIES", "Topology", "open_topology", "HierWire",
           "hier_reduce_scatter", "hier_all_gather", "SwitchWire",
           "switch_rounds", "switch_stream_seconds"]
