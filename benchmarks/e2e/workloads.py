"""The six workloads of the end-to-end ``fit`` benchmark.

A workload is a frozen recipe: dataset spec, objective, simulated cluster
profile, trainer config and a fixed quality target.  ``--seed`` only moves
the *inputs* (dataset seed = recipe seed + seed - 1, ``TrainerConfig.seed
= seed``), so ``--seed 1`` reproduces the catalog analogs exactly and the
program under test never learns which workload it is running.

Why these six (one line each lives in ``why`` and in ``BENCHMARK.json``):
every optimisation on the ROADMAP has one workload that exercises its
mechanism and one that bypasses it, so "no change" is a checkable
prediction — see README.md's interaction table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster import ClusterSpec, cluster1, tiered_cluster
from repro.core import MLlibStarTrainer, MLlibTrainer, TrainerConfig
from repro.data import CATALOG, SparseDataset, SyntheticSpec, generate
from repro.glm import Objective

__all__ = ["Workload", "WORKLOADS", "PARALLEL_BACKENDS"]

#: Backends that run local solves in other processes; their results must
#: match a serial twin bit for bit.
PARALLEL_BACKENDS = ("shm", "socket")

#: Hyperparameters shared by every workload (the paper-tuned SendModel /
#: MLlib settings the legacy benches use).
_BASE = dict(learning_rate=0.5, lr_schedule="inv_sqrt", local_chunk_size=64)

_WIDE = SyntheticSpec(n_rows=16_000, n_features=400_000, nnz_per_row=12.0,
                      noise=0.02, seed=17)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see the module docstring)."""

    name: str
    why: str
    system: str                 # "MLlib*" or "MLlib"
    data: SyntheticSpec
    l2: float
    machines: int               # >1 -> tiered_cluster(machines, per_machine)
    per_machine: int
    target: float               # objective that defines sim_to_target_s
    config: dict = field(default_factory=dict)
    #: ``--smoke`` shape: (rows, features, supersteps).
    smoke_shape: tuple[int, int, int] = (1_600, 2_000, 4)

    @property
    def backend(self) -> str:
        return self.config.get("backend", "serial")

    @property
    def executors(self) -> int:
        return self.machines * self.per_machine

    def smoke(self) -> "Workload":
        """Tiny twin for ``--smoke``: same code path, no claims.  The
        target only asks for progress from the zero model (objective 1)."""
        rows, features, steps = self.smoke_shape
        config = dict(self.config, max_steps=steps,
                      eval_every=min(self.config.get("eval_every", 1), 2))
        return replace(
            self, data=replace(self.data, n_rows=rows, n_features=features),
            config=config, target=0.999)

    def dataset(self, seed: int) -> SparseDataset:
        """The recipe's rows in a ``seed``-keyed order."""
        base = generate(self.data, name=self.name)
        order = np.random.default_rng(seed).permutation(base.n_rows)
        return SparseDataset(name=base.name, X=base.X[order],
                             y=base.y[order])

    def cluster(self) -> ClusterSpec:
        if self.machines > 1:
            return tiered_cluster(self.machines, self.per_machine)
        return cluster1(executors=self.per_machine)

    def trainer(self, seed: int, backend: str | None = None):
        """A fresh trainer; ``backend`` overrides the recipe (the serial
        twin of a parallel workload)."""
        objective = (Objective("hinge", "l2", self.l2) if self.l2 > 0
                     else Objective("hinge"))
        config = TrainerConfig(seed=seed, **_BASE, **self.config)
        if backend is not None:
            config = config.with_overrides(backend=backend)
        cls = MLlibStarTrainer if self.system == "MLlib*" else MLlibTrainer
        return cls(objective, self.cluster(), config)

    def examples_per_step(self, partition_rows: list[int]) -> int:
        """Training rows the local solves consume in one superstep — a
        constant of the recipe, so throughput is wall time in disguise
        but comparable across workload sizes."""
        config = TrainerConfig(**_BASE, **self.config)
        if self.system == "MLlib*":
            return sum(partition_rows) * config.local_epochs
        return sum(max(1, int(round(config.batch_fraction * rows)))
                   for rows in partition_rows)


def _workloads() -> dict[str, Workload]:
    wx, kddb = CATALOG["WX"].spec, CATALOG["kddb"].spec
    items = [
        Workload(
            "star_wx_serial",
            "MLlib* on the WX analog, serial: >99% of stepping time is glm "
            "kernels, every other layer idle; a kernel change shows here, "
            "a backend or collective change must not",
            "MLlib*", wx, 0.1, 1, 8, target=0.975,
            config=dict(max_steps=4)),
        Workload(
            "star_wx_shm",
            "same inputs on the shm backend: kernels over nproc cores "
            "plus dispatch/IPC/pool start-up; the ROADMAP acceptance "
            "workload for 'parallel backends win', bit-identical to serial",
            "MLlib*", wx, 0.1, 1, 8, target=0.975,
            config=dict(max_steps=4, backend="shm")),
        Workload(
            "star_wide_shm",
            "light compute, 3.2 MB model on shm: the broadcast arena and "
            "pickled dense returns dominate, so per-fit set-up vs per-step "
            "copies trade off against star_wx_shm",
            "MLlib*", _WIDE, 0.0, 1, 8, target=0.2855,
            config=dict(max_steps=16, backend="shm")),
        Workload(
            "star_wide_socket",
            "same wide inputs over socket daemons: the only workload "
            "where wire/daemon frames carry most of a step, and the "
            "measured wire the simulator calibration needs",
            "MLlib*", _WIDE, 0.0, 1, 8, target=0.2855,
            config=dict(max_steps=16, backend="socket")),
        Workload(
            "mllib_kddb_steps",
            "MLlib SendGradient, 400 supersteps of ~2.5 ms with ~46% of the "
            "time outside the local solve: per-superstep fixed overhead "
            "(combine, BspEngine pricing, Trace spans, trainer glue)",
            "MLlib", kddb, 0.0, 1, 8, target=0.5,
            config=dict(max_steps=400, eval_every=25, batch_fraction=0.01),
            smoke_shape=(1_600, 2_000, 40)),
        Workload(
            "star_kddb_hier32",
            "MLlib* on 4x8 tiered executors, hier collective + sparse "
            "wire: reduce-scatter/all-gather, wire building and tiered "
            "pricing are ~45% of a step across 32 parts",
            "MLlib*", kddb, 0.0, 4, 8, target=0.9,
            config=dict(max_steps=12, collective="hier",
                        sparse_comm="auto")),
    ]
    return {w.name: w for w in items}


WORKLOADS: dict[str, Workload] = _workloads()
