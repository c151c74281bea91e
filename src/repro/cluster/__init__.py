"""Simulated cluster substrate: nodes, network, compute cost, traces.

Training math in this reproduction is *real*; the cluster substrate only
assigns simulated wall-clock time to the work and communication that the
trainers perform, so that experiments at 8 or 128 "machines" run on one
host while preserving the relative timing behaviour the paper analyzes.
"""

from .cluster import ClusterSpec, cluster1, cluster2, tiered_cluster
from .cost import ComputeCostModel
from .faults import (FAILURE_PHASES, FailureEvent, FailureModel,
                     FailureRecord, RecoveryError, RecoveryPolicy,
                     build_failure_model, parse_failure_schedule)
from .network import GIGABIT, TEN_GIGABIT, NetworkModel, TieredNetworkModel
from .node import (LogNormalStragglers, NodeSpec, NoStragglers,
                   StragglerModel, heterogeneous_nodes, homogeneous_nodes)
from .trace import SPAN_KINDS, Span, Trace

__all__ = [
    "ClusterSpec", "cluster1", "cluster2", "tiered_cluster",
    "ComputeCostModel",
    "NetworkModel", "TieredNetworkModel", "GIGABIT", "TEN_GIGABIT",
    "NodeSpec", "StragglerModel", "NoStragglers", "LogNormalStragglers",
    "homogeneous_nodes", "heterogeneous_nodes",
    "Span", "Trace", "SPAN_KINDS",
    "FAILURE_PHASES", "FailureEvent", "FailureRecord", "FailureModel",
    "RecoveryPolicy", "RecoveryError",
    "build_failure_model", "parse_failure_schedule",
]
