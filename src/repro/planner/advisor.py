"""Per-step cost breakdown and system advisor, priced by the engines.

The paper's related work discusses a cost-based optimizer for gradient
descent plans (Kaoudi et al., reference [11]); the authors sidestep it by
grid searching.  This module answers the part of that question our
simulator can answer exactly: how one communication step's simulated
time splits into compute, communication and driver-serialized work, for
every system in the study — where each step's time goes, when the driver
dominates, at what model size AllReduce starts paying off — without
running the training.

There is no second cost model here.  :func:`estimate_step_cost` runs
step 1 of a system on a fresh :class:`~repro.engine.BspEngine` or
:class:`~repro.ps.engine.PsEngine` with the same phase calls its trainer
makes, and reads the split off the engine's clock and trace — so a
fault-free ``fit`` agrees with it exactly (``tests/test_planner.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import ClusterSpec
from ..engine import DRIVER_LABEL, BspEngine
from ..ps.engine import PsEngine

__all__ = ["StepCost", "WorkloadProfile", "estimate_step_cost",
           "rank_systems", "ADVISABLE_SYSTEMS"]

ADVISABLE_SYSTEMS = ("MLlib", "MLlib+MA", "MLlib*", "Petuum*", "Angel")

#: Driver spans that serialize a step: the treeAggregate fan-in + update.
_DRIVER_KINDS = frozenset({"aggregate", "update"})


@dataclass(frozen=True)
class WorkloadProfile:
    """What the advisor needs to know about a workload.

    ``nnz_per_step_per_worker`` is the stored nonzeros one worker touches
    in one communication step (batch nnz for SendGradient/Petuum, the full
    partition — times local epochs — for SendModel systems).
    """

    model_size: int
    nnz_per_step_per_worker: float

    def __post_init__(self) -> None:
        if self.model_size < 1:
            raise ValueError("model_size must be positive")
        if self.nnz_per_step_per_worker < 0:
            raise ValueError("nnz per step must be non-negative")


@dataclass(frozen=True)
class StepCost:
    """One system's per-step time decomposition (simulated seconds)."""

    system: str
    compute: float
    communication: float
    driver: float

    @property
    def total(self) -> float:
        return self.compute + self.communication + self.driver

    def describe(self) -> str:
        return (f"{self.system}: {self.total:.4f}s "
                f"(compute {self.compute:.4f}, "
                f"comm {self.communication:.4f}, "
                f"driver {self.driver:.4f})")


def estimate_step_cost(system: str, cluster: ClusterSpec,
                       profile: WorkloadProfile) -> StepCost:
    """Step 1 of ``system`` on ``cluster``, priced by its trainer's engine.

    Every executor makes one sparse pass with updates (2 x nnz) over its
    share.  ``compute`` is that phase's duration, ``driver`` the driver's
    aggregate + update spans, ``communication`` the rest of the step.
    """
    m = profile.model_size
    work = [cluster.compute.sparse_pass_seconds(
        2 * profile.nnz_per_step_per_worker, node)
        for node in cluster.executors]
    if system in ("Petuum*", "Angel"):
        engine = PsEngine(cluster)
        engine.run_step(work, m)
        compute = max((s.end for s in engine.trace.spans
                       if s.kind == "compute"), default=0.0)
    elif system in ADVISABLE_SYSTEMS:
        engine = BspEngine(cluster)
        compute = engine.compute_phase(work, 1)
        if system == "MLlib*":
            engine.reduce_scatter_phase(m, 1)
            engine.all_gather_phase(m, 1)
        else:
            engine.tree_aggregate_phase(m, 1)
            engine.driver_update_phase(
                cluster.compute.dense_op_seconds(m, cluster.driver), 1)
            engine.broadcast_phase(m, 1)
    else:
        raise KeyError(f"unknown system {system!r}; "
                       f"choose from {ADVISABLE_SYSTEMS}")
    driver = engine.trace.busy_seconds(DRIVER_LABEL, _DRIVER_KINDS)
    return StepCost(system=system, compute=compute,
                    communication=engine.now - compute - driver,
                    driver=driver)


def rank_systems(cluster: ClusterSpec, profile: WorkloadProfile,
                 systems: tuple[str, ...] = ADVISABLE_SYSTEMS,
                 ) -> list[StepCost]:
    """All systems' per-step costs, cheapest first.

    Per-step cost is only half the story (SendModel systems need far fewer
    steps — Figure 4); the advisor exposes the communication structure so
    callers can combine it with their convergence expectations.
    """
    costs = [estimate_step_cost(s, cluster, profile) for s in systems]
    costs.sort(key=lambda c: c.total)
    return costs
