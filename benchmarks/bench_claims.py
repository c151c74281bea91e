"""The paper's claims as one table, checked on every run.

Each :class:`Claim` row is one claim of the paper's evaluation (§V: Table
I, Fig. 1 and 3-6), of a design choice behind B1/B2, or of an extension
(``ext.``; the CoCoA+, ladder and sparse rows name the related paper by
arXiv id, the scheduler and serving rows the subsystem): the claim, the
paper's own number or the rule a row checks where there is one, a
``measure`` and a ``check``.
Training is real (sparse SGD on the analog datasets); time is the
simulated cluster clock, so every measured value is deterministic and the
rows check *shapes* (who wins, by roughly how much), not the paper's
seconds.  Training goes through the memoized :func:`fit`, so a run
several rows share (Fig. 4 and 5 share their MLlib* references and their
L2 = 0.1 MLlib runs) trains once per session.

    PYTHONPATH=src:benchmarks python -m pytest -q benchmarks/bench_claims.py
    PYTHONPATH=src python benchmarks/bench_claims.py

pytest runs one item per row, ``bench_claim[<row id>]``, plus
``bench_experiments_md_current``, which fails when EXPERIMENTS.md's
generated blocks differ from what the module's main writes into them.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from repro.cli import SYSTEMS
from repro.cluster import (GIGABIT, ClusterSpec, ComputeCostModel,
                           NetworkModel, cluster1, cluster2,
                           homogeneous_nodes, tiered_cluster)
from repro.core import TrainerConfig, TrainResult
from repro.data import (CATALOG, SparseDataset, SyntheticSpec,
                        dataset_names, generate, load)
from repro.engine import BspEngine, TreeAggregateModel
from repro.glm import GLMModel, Objective
from repro.metrics import (ConvergenceResult, SchedReport, comm_report,
                           format_speedup, sched_report, speedup, summarize)
from repro.ps import ASP, BSP, SSP, PsEngine
from repro.sched import (ClusterScheduler, JobSpec, SchedConfig, SchedResult,
                         poisson_job_trace)
from repro.serve import ServeConfig, ServingCostModel, rate_sweep

EXPERIMENTS = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

#: The paper's regularization setting ("with and without L2", lambda = 0.1).
SVM_L2 = 0.1
#: The paper's Cluster 1: homogeneous, 1 Gbps, 8 executors.
C1 = (cluster1, 8)
FIG45_DATASETS = ("avazu", "url", "kddb", "kdd12")


# ----------------------------------------------------------------------
# recipes
# ----------------------------------------------------------------------
def synth(name: str, rows: int, features: int, nnz_per_row: float,
          seed: int, noise: float = 0.03,
          **spec: Any) -> tuple[str, SyntheticSpec]:
    """A synthetic workload key for :func:`fit`."""
    return name, SyntheticSpec(n_rows=rows, n_features=features,
                               nnz_per_row=nnz_per_row, noise=noise,
                               seed=seed, **spec)


@functools.cache
def dataset(data: str | tuple[str, SyntheticSpec]) -> SparseDataset:
    """A catalog analog by name, or a :func:`synth` workload."""
    if isinstance(data, str):
        return load(data)
    name, spec = data
    return generate(spec, name=name)


def make_trainer(system: str, cluster: tuple, config: TrainerConfig,
                 l2: float = 0.0, loss: str = "hinge"):
    """A fresh trainer; ``cluster`` is ``(factory, *args)``."""
    objective = Objective(loss, "l2", l2) if l2 > 0 else Objective(loss)
    return SYSTEMS[system](objective, cluster[0](*cluster[1:]), config)


@functools.cache
def fit(system: str, data, cluster: tuple, config: TrainerConfig,
        l2: float = 0.0, loss: str = "hinge",
        partition: str = "random") -> TrainResult:
    """One run's result, trained once per session.

    ``partition="label-sorted"`` sorts the rows by label and partitions
    them contiguously, giving each worker a near-single-class shard.
    """
    rows = dataset(data)
    if partition == "label-sorted":
        order = np.argsort(rows.y, kind="mergesort")
        rows = SparseDataset(name=f"{rows.name}-sorted", X=rows.X[order],
                             y=rows.y[order])
        partition = "contiguous"
    return make_trainer(system, cluster, config, l2, loss).fit(
        rows, partition_strategy=partition)


# Per-system defaults that mirror the paper's tuning conclusions: MLlib
# runs its stepSize/sqrt(t) decay on ~1% batches; SendModel systems run
# chunked local SGD under the same decay; Petuum communicates per batch
# (larger batches keep communication sane); Angel uses per-epoch steps.
_SENDMODEL = TrainerConfig(learning_rate=0.5, lr_schedule="inv_sqrt",
                           local_chunk_size=64, max_steps=30, seed=1)
DEFAULT_CONFIGS: dict[str, TrainerConfig] = {
    "MLlib": TrainerConfig(learning_rate=0.5, lr_schedule="inv_sqrt",
                           batch_fraction=0.01, max_steps=4000,
                           eval_every=25, seed=1),
    "MLlib*": _SENDMODEL,
    "Petuum*": TrainerConfig(learning_rate=1.0, lr_schedule="inv_sqrt",
                             batch_fraction=0.2, local_chunk_size=16,
                             max_steps=400, eval_every=10, seed=1),
    "Angel": TrainerConfig(learning_rate=0.5, lr_schedule="inv_sqrt",
                           batch_fraction=0.01, max_steps=100, seed=1),
}

# The paper tunes batch size / learning rate per (system, workload) by
# grid search.  Grid-search results for our analogs: on unregularized
# workloads MLlib's best configuration is a constant step size (the
# default stepSize/sqrt(t) decay throttles it before it can reach the
# optimum), with a deep step budget.  Fig. 4 uses it; Fig. 5 does not.
MLLIB_L2_ZERO = dict(learning_rate=1.0, lr_schedule="constant",
                     max_steps=8000, eval_every=40)


def run_comparison(system: str, name: str, l2: float,
                   fig: int = 5) -> ConvergenceResult:
    """``system`` on the analog ``name`` (Cluster 1), scored at 0.01
    accuracy loss.

    The MLlib* reference runs first; its best objective plus the 0.01
    tolerance becomes the early-stop threshold for the others, which
    mirrors the paper's "accuracy loss 0.01 vs the optimum" metric while
    keeping host-side runtime bounded.  Every system is scored against
    that same fixed threshold.  (Deriving it from the global minimum
    would move the goalposts whenever a system's final step overshoots
    below the reference optimum.)
    """
    ref = fit("MLlib*", name, C1, DEFAULT_CONFIGS["MLlib*"], l2)
    threshold = ref.history.best_objective + 0.01
    run = ref
    if system != "MLlib*":
        tuned = MLLIB_L2_ZERO if (fig, system, l2) == (4, "MLlib", 0) else {}
        run = fit(system, name, C1, DEFAULT_CONFIGS[system].with_overrides(
            stop_threshold=threshold, **tuned), l2)
    return ConvergenceResult.from_history(run.history, threshold)


def fig4_speedup(name: str, l2: float, axis: str) -> float | None:
    return speedup(run_comparison("MLlib", name, l2, fig=4),
                   run_comparison("MLlib*", name, l2, fig=4), axis)


def fig4_amplification(name: str) -> float | None:
    """Time speedup over step speedup at L2 = 0 (the AllReduce effect)."""
    s_steps = fig4_speedup(name, 0.0, "steps")
    s_time = fig4_speedup(name, 0.0, "seconds")
    if s_steps is None or s_time is None:
        return None
    return s_time / s_steps


def fig5_seconds(system: str, name: str, l2: float) -> float | None:
    conv = run_comparison(system, name, l2)
    return conv.seconds if conv.converged else None


def fig3(system: str) -> dict[str, float]:
    """Fig. 3's gantt chart (SVM on kdd12, 8 executors, 5 steps) as
    activity fractions."""
    cfg = TrainerConfig(max_steps=5, learning_rate=0.5,
                        lr_schedule="inv_sqrt", local_chunk_size=64,
                        batch_fraction=0.01, seed=1)
    s = summarize(fit(system, "kdd12", C1, cfg).trace)
    return {"makespan": s.makespan, "driver busy": s.driver_busy_fraction,
            "exec busy": s.executor_busy_fraction,
            "exec wait": s.executor_wait_fraction}


# Fig. 6: the WX analog on heterogeneous Cluster 2.  Machine counts are
# the paper's 32/64/128 scaled by 4, keeping its 4x ratio.  The analog is
# ~180x smaller (in nnz) than the 434 GB original, which would leave the
# simulated epochs communication-bound at any machine count; scaling
# sec_per_nnz restores the paper's compute/communication balance.
MACHINE_COUNTS = (8, 16, 32)
WX_COMPUTE = ComputeCostModel(sec_per_nnz=1.0e-6)
_WX_STAR = _SENDMODEL.with_overrides(max_steps=6)
FIG6_CONFIGS = {
    "MLlib*": _WX_STAR,
    "Angel": _WX_STAR.with_overrides(batch_fraction=0.05),
    "MLlib": TrainerConfig(max_steps=240, eval_every=20, learning_rate=0.5,
                           lr_schedule="inv_sqrt", batch_fraction=0.01,
                           seed=1),
}


def wx_cluster(machines: int):
    return cluster2(machines=machines, seed=7, compute=WX_COMPUTE)


def fig6(system: str, k: int) -> TrainResult:
    return fit(system, "WX", (wx_cluster, k), FIG6_CONFIGS[system])


def fig6_scaling(system: str) -> float:
    """Simulated-time speedup from the smallest to the largest cluster."""
    return (fig6(system, MACHINE_COUNTS[0]).history.total_seconds
            / fig6(system, MACHINE_COUNTS[-1]).history.total_seconds)


def waves_seconds() -> dict[int, float]:
    """MLlib's seconds per iteration under 1/2/4/8 tasks per executor."""
    cfg = TrainerConfig(max_steps=5, learning_rate=0.5,
                        lr_schedule="inv_sqrt", batch_fraction=0.05, seed=1)
    return {w: fit("MLlib", "kdd12", C1, cfg.with_overrides(
        tasks_per_executor=w)).history.total_seconds / 5
        for w in (1, 2, 4, 8)}


def angel_epoch_seconds() -> dict[float, float]:
    """Angel's seconds per epoch on kdd12 by batch fraction."""
    cfg = TrainerConfig(max_steps=3, learning_rate=0.5,
                        lr_schedule="inv_sqrt", seed=1)
    return {f: fit("Angel", "kdd12", C1, cfg.with_overrides(
        batch_fraction=f)).history.total_seconds / 3
        for f in (0.001, 0.01, 0.1)}


def lazy_pair() -> dict[str, TrainResult]:
    """MLlib* with lazy (scaled-vector) and eager L2 on kddb."""
    cfg = TrainerConfig(max_steps=8, learning_rate=0.5,
                        lr_schedule="inv_sqrt", local_chunk_size=16, seed=1)
    return {name: fit("MLlib*", "kddb", C1, cfg.with_overrides(lazy_l2=lazy),
                      SVM_L2)
            for name, lazy in (("lazy", True), ("eager", False))}


def local_epoch_hits() -> dict[int, Any]:
    """First history point at f = 0.32 for T' = 1/2/4 local epochs."""
    cfg = TrainerConfig(max_steps=60, learning_rate=0.3,
                        lr_schedule="inv_sqrt", local_chunk_size=16,
                        stop_threshold=0.32, seed=1)
    data = synth("tprime", 6000, 400, 12.0, 51)
    return {t: fit("MLlib*", data, C1, cfg.with_overrides(
        local_epochs=t)).history.first_reaching(0.32) for t in (1, 2, 4)}


def partitioning_best() -> dict[str, float]:
    """Best objective of MLlib* on random vs label-sorted shards."""
    cfg = TrainerConfig(max_steps=12, learning_rate=0.3,
                        lr_schedule="inv_sqrt", local_chunk_size=16, seed=1)
    data = synth("iid-study", 4000, 300, 12.0, 21)
    return {p: fit("MLlib*", data, C1, cfg, partition=p
                   ).history.best_objective
            for p in ("random", "label-sorted")}


def aggregation_sweep() -> dict[float, tuple[TrainResult, TrainResult]]:
    """(Petuum summation, Petuum* averaging) on least squares by rate."""
    data = synth("ablation", 2000, 200, 12.0, 11)
    cfg = TrainerConfig(max_steps=40, batch_fraction=0.5,
                        local_chunk_size=1000, seed=1)
    return {lr: tuple(fit(s, data, (cluster1, 4), cfg.with_overrides(
        learning_rate=lr), loss="squared") for s in ("Petuum", "Petuum*"))
        for lr in (0.02, 0.05, 0.1)}


def consistency_makespans() -> dict[float, dict[str, float]]:
    """PS makespan of 30 identical steps on 16 heterogeneous workers."""
    controllers = {"BSP": BSP(), "SSP(s=1)": SSP(staleness=1),
                   "SSP(s=3)": SSP(staleness=3), "ASP": ASP()}
    out: dict[float, dict[str, float]] = {}
    for sigma in (0.2, 0.5):
        for name, controller in controllers.items():
            engine = PsEngine(cluster2(machines=16, seed=3,
                                       straggler_sigma=sigma),
                              controller=controller)
            for _ in range(30):
                last = engine.run_step([0.5] * 16, 100_000)
            out.setdefault(sigma, {})[name] = last
    return out


def aggregation_patterns() -> dict[int, dict[str, tuple[float, float]]]:
    """(round-trip, driver) seconds of one aggregation + redistribution
    of a 5M-float model under treeAggregate depth 1/2 and AllReduce."""
    m = 5_000_000
    out: dict[int, dict[str, tuple[float, float]]] = {}
    for k in (8, 32):
        rows = out[k] = {}
        for depth in (1, 2):
            tree = TreeAggregateModel(depth=depth)
            engine = BspEngine(cluster1(executors=k), tree=tree)
            rows[f"depth {depth}"] = (
                engine.tree_aggregate_phase(m, 0)
                + engine.broadcast_phase(m, 0),
                tree.timing(cluster1(executors=k), m).driver_seconds)
        star = BspEngine(cluster1(executors=k))
        rows["AllReduce"] = (star.reduce_scatter_phase(m, 0)
                             + star.all_gather_phase(m, 0), 0.0)
    return out


@functools.cache
def async_pair() -> dict[str, float]:
    """ASGD vs BSP MLlib at matched update budgets (60 x 8 pushes) on a
    straggler-prone heterogeneous cluster.  The ASGD run trains here, not
    through :func:`fit`: its mean staleness lives on the trainer."""
    data = synth("async-study", 4000, 200, 10.0, 41)
    cluster = (cluster2, 8, 0.5, 4)  # machines, straggler sigma, seed
    cfg = TrainerConfig(max_steps=60, learning_rate=0.2, batch_fraction=0.05,
                        eval_every=5, seed=1)
    asgd_trainer = make_trainer("ASGD", cluster, cfg)
    asgd = asgd_trainer.fit(dataset(data))
    # BSP applies 1 update per step, so it gets 8x the steps.
    bsp = fit("MLlib", data, cluster,
              cfg.with_overrides(max_steps=480, eval_every=40))
    deadline = asgd.history.total_seconds
    reached = [p.objective for p in itertools.takewhile(
        lambda p: p.seconds <= deadline, bsp.history)]
    return {"asgd s": deadline, "bsp s": bsp.history.total_seconds,
            "staleness": asgd_trainer.mean_staleness,
            "asgd f": asgd.final_objective,
            "bsp f at asgd s": (reached[-1] if reached
                                else bsp.history.objectives()[0])}


def spark_ml_pair() -> dict[str, TrainResult]:
    """spark.ml and spark.ml* L-BFGS, 8 iterations on kddb."""
    return {s: fit(s, "kddb", C1, TrainerConfig(max_steps=8, seed=1), 0.01,
                   loss="logistic") for s in ("spark.ml", "spark.ml*")}


FAULT_SYSTEMS = ("MLlib", "MLlib+MA", "MLlib*", "Petuum*", "Angel")
#: One crash early, one mid-run, one double crash late (0-based).
FAILURE_SCHEDULE = "1@3,3@7,2@10x2"


@functools.cache
def fault_runs(system: str) -> tuple[TrainResult, TrainResult, TrainResult]:
    """(clean, faulty, faulty trained a second time) under one plan."""
    # restart_seconds is scaled to the simulation's clock (makespans are
    # tens of milliseconds here); the default 1s would drown the
    # per-pattern differences in a constant.
    clean = TrainerConfig(max_steps=12, learning_rate=0.5,
                          lr_schedule="inv_sqrt", batch_fraction=0.1,
                          local_chunk_size=64, eval_every=4, seed=1,
                          restart_seconds=0.002)
    faulty = clean.with_overrides(failure_schedule=FAILURE_SCHEDULE)
    data, cluster = synth("fault-study", 3000, 300, 10.0, 23), (cluster1, 4)
    return (fit(system, data, cluster, clean, SVM_L2),
            fit(system, data, cluster, faulty, SVM_L2),
            make_trainer(system, cluster, faulty, SVM_L2).fit(dataset(data)))


def uniform_cluster(network: NetworkModel, executors: int) -> ClusterSpec:
    """``executors`` identical nodes plus a driver on ``network``."""
    return ClusterSpec(nodes=homogeneous_nodes(executors + 1, speed=1.0),
                       network=network)


# Dual local solvers (Dünner et al., 1612.01437), scored by certified
# time-to-suboptimality: a long CoCoA+ run's final dual value D_ref is a
# weak-duality lower bound on P(w*), so the first point with
# P(w) <= D_ref + EPS is certified within EPS + its gap of the optimum.
#: The paper's "accuracy loss 0.01".
EPS = 0.01
#: One computation priced on three fabrics (numerics never see the price).
FABRICS = {
    "comm-bound": NetworkModel(bandwidth=GIGABIT / 10, alpha=3.0e-3),
    "balanced": NetworkModel(bandwidth=GIGABIT, alpha=1.0e-3),
    "compute-bound": NetworkModel(bandwidth=10 * GIGABIT, alpha=1.0e-4),
}
# Wide and sparse, so messages are model-sized while a local pass is
# cheap; 120 rows per partition, so no single local pass near-solves it.
COCOA_DATA = synth("cocoa", 960, 20000, 10.0, 11, noise=0.02)
COCOA_H = (1, 4, 16)


def dual_config(solver: str, h: int,
                stop: float | None = None) -> TrainerConfig:
    return TrainerConfig(max_steps=60, seed=1, local_solver=solver,
                         local_iters=h, eval_every=1, stop_threshold=stop)


def cocoa_reference() -> TrainResult:
    """The strongest solver of the sweep (CoCoA+, H = 32), run to its
    step budget; its last certificate gives D_ref."""
    return fit("MLlib*", COCOA_DATA, (uniform_cluster, FABRICS["balanced"], 8),
               dual_config("cocoa+", 32), SVM_L2)


def cocoa_target() -> float:
    return cocoa_reference().duality_gaps[-1].dual + EPS


def cocoa_runs(name: str) -> dict[str, TrainResult]:
    """MGD (the SendModel default) and every (solver, H) on one fabric,
    each stopped at the certified target."""
    target, cluster = cocoa_target(), (uniform_cluster, FABRICS[name], 8)
    mgd = _SENDMODEL.with_overrides(max_steps=400, eval_every=1,
                                    stop_threshold=target)
    runs = {"mgd": fit("MLlib*", COCOA_DATA, cluster, mgd, SVM_L2)}
    for solver in ("cocoa", "cocoa+"):
        for h in COCOA_H:
            runs[f"{solver} H={h}"] = fit("MLlib*", COCOA_DATA, cluster,
                                          dual_config(solver, h, target),
                                          SVM_L2)
    return runs


def cocoa_hits(name: str) -> dict[str, Any]:
    """Each run's first history point at the certified target, or None."""
    return {run: r.history.first_reaching(cocoa_target())
            for run, r in cocoa_runs(name).items()}


def cocoa_vs_mgd(name: str) -> dict[str, float | None]:
    """MGD's seconds to the target over each dual run's."""
    hits = cocoa_hits(name)
    return {run: None if None in (hits["mgd"], hit)
            else hits["mgd"].seconds / hit.seconds
            for run, hit in hits.items() if run != "mgd"}


def cocoa_certificates() -> dict[str, Any]:
    """Every dual run of the sweep: are its certificates there, is its
    dual ascending, and the smallest gap it recorded."""
    runs = [r for name in FABRICS
            for run, r in cocoa_runs(name).items() if run != "mgd"]
    duals = [[g.dual for g in r.duality_gaps] for r in runs]
    return {"runs": len(runs),
            "certified": sum(bool(r.duality_gaps) for r in runs),
            "dual ascends": sum(all(b >= a - 1e-12 for a, b in zip(d, d[1:]))
                                for d in duals),
            "min gap": min(g.gap for r in runs for g in r.duality_gaps)}


def cocoa_dial() -> dict[int, tuple[int, float]]:
    """CoCoA+ (supersteps to the target, gap at the stop) at the smallest
    and largest H on the comm-bound fabric."""
    runs, hits = cocoa_runs("comm-bound"), cocoa_hits("comm-bound")
    return {h: (hits[f"cocoa+ H={h}"].step,
                runs[f"cocoa+ H={h}"].duality_gaps[-1].gap)
            for h in (COCOA_H[0], COCOA_H[-1])}


# The aggregation ladder: flat Reduce-Scatter/AllGather, Snap ML's two-tier
# hier (1803.06333) and SwitchML's in-network switch (1903.06701) on
# tiered clusters.  The model is wide and the rows few, so latency and
# bandwidth dominate the priced phases.
#: machines x executors per machine: 4, 8 and 16 executors.
LADDER_SHAPES = ((2, 2), (2, 4), (4, 4))
LADDER_DATA = {"dense": synth("topology-dense", 1600, 40000, 64.0, 11,
                              noise=0.02),
               "sparse": synth("topology-sparse", 1600, 40000, 4.0, 11,
                               noise=0.02)}
#: rung -> (collective, switch slots); one slot forces one switch round
#: per chunk, so the starved stream pays a per-round latency ~157 times.
LADDER_RUNGS = {"flat": ("flat", 512), "hier": ("hier", 512),
                "switch": ("switch", 512), "starved": ("switch", 1)}


def ladder_run(density: str, shape: tuple[int, int],
               rung: str) -> TrainResult:
    """MLlib* for 5 supersteps; the dense analog ships full-size
    messages (``sparse_comm=off``), the sparse one local supports."""
    collective, slots = LADDER_RUNGS[rung]
    cfg = _SENDMODEL.with_overrides(
        max_steps=5, collective=collective, switch_slots=slots,
        sparse_comm="off" if density == "dense" else "auto")
    return fit("MLlib*", LADDER_DATA[density], (tiered_cluster, *shape), cfg)


def ladder_cells() -> list[tuple[str, tuple[int, int], tuple[str, ...]]]:
    """(density, shape, rungs); the starved switch runs at 4x4, dense."""
    return [(density, shape, ("flat", "hier", "switch") + (
        ("starved",) if (density, shape) == ("dense", (4, 4)) else ()))
        for density in LADDER_DATA for shape in LADDER_SHAPES]


def same_model(a: TrainResult, b: TrainResult) -> bool:
    return (np.array_equal(a.model.weights, b.model.weights)
            and a.history.objectives() == b.history.objectives())


def ladder_comm(density: str, shape: tuple[int, int],
                rung: str) -> float | None:
    """The rung's priced communication seconds, or None when it changed
    the model: a topology that changes the weights is a bug, not a win,
    so no ratio is taken from it."""
    run = ladder_run(density, shape, rung)
    if not same_model(ladder_run(density, shape, "flat"), run):
        return None
    return run.comm_seconds


# SparCML's sparse AllReduce (1802.08021): the three wire modes over a
# per-row density sweep, on a bandwidth-dominated network so the priced
# seconds track wire volume.  Local SGD visits every partition row per
# superstep, so the union support is ~1 - (1 - density)^rows of the
# model: the sweep brackets the break-even (union density 0.5).
SPARSE_DENSITIES = (0.01, 0.05, 0.10, 0.25, 0.45, 0.70)
SPARSE_MODES = ("off", "auto", "on")


def sparse_run(density: float, mode: str) -> TrainResult:
    data = synth(f"density-{density:g}", 8, 20_000, density * 20_000, 29,
                 noise=0.02, feature_skew=0.0)
    cfg = TrainerConfig(max_steps=3, learning_rate=0.5,
                        lr_schedule="inv_sqrt", local_chunk_size=2, seed=5,
                        sparse_comm=mode)
    network = NetworkModel(bandwidth=GIGABIT, alpha=1.0e-5)
    return fit("MLlib*", data, (uniform_cluster, network, 4), cfg, SVM_L2)


def sparse_vs_dense(density: float, mode: str) -> float:
    """Dense (``off``) communication seconds over ``mode``'s."""
    return (comm_report(sparse_run(density, "off")).comm_seconds
            / comm_report(sparse_run(density, mode)).comm_seconds)


def per_step_vs_dense(result: TrainResult) -> dict[int, float]:
    """Each superstep's dense-priced seconds over its wire seconds."""
    return {step: sum(r.dense_seconds for r in result.comm if r.step == step)
            / sum(r.seconds for r in result.comm if r.step == step)
            for step in sorted({r.step for r in result.comm})}


# Multi-tenant scheduling (``repro.sched``): one Poisson trace of elastic
# training jobs per arrival rate, replayed under four policies on an
# 8-executor pool, so differences between variants are pure policy.  The
# last rate is the contended regime the policy rows judge.
SCHED_POOL = 8
SCHED_CONTENDED = 240.0
SCHED_RATES = (80.0, 160.0, SCHED_CONTENDED)
SCHED_VARIANTS = {
    "fifo": SchedConfig(policy="fifo", total_executors=SCHED_POOL),
    "fair": SchedConfig(policy="fair", total_executors=SCHED_POOL),
    "fair+elastic": SchedConfig(policy="fair", elastic=True,
                                total_executors=SCHED_POOL),
    "fair+elastic+preempt": SchedConfig(policy="fair", elastic=True,
                                        preempt=True,
                                        total_executors=SCHED_POOL),
}


@functools.cache
def sched_trace(rate: float) -> tuple[JobSpec, ...]:
    """0.25 simulated seconds of arrivals (seed 23, widths up to 6)."""
    return tuple(poisson_job_trace(rate=rate, duration=0.25, seed=23,
                                   elastic=True, max_width=6))


def sched_replay(variant: str, rate: float) -> SchedResult:
    """A fresh scheduler run of ``variant`` over the rate's trace."""
    scheduler = ClusterScheduler(SCHED_VARIANTS[variant])
    for spec in sched_trace(rate):
        scheduler.submit(spec)
    return scheduler.run()


sched_run = functools.cache(sched_replay)


def sched_cell(variant: str, rate: float = SCHED_CONTENDED) -> SchedReport:
    return sched_report(sched_run(variant, rate))


def sched_replays() -> dict[str, bool]:
    """The most contended configuration, run a second time."""
    first = sched_run("fair+elastic+preempt", SCHED_CONTENDED).log
    second = sched_replay("fair+elastic+preempt", SCHED_CONTENDED).log
    return {"digest": first.digest() == second.digest(),
            "text": first.text() == second.text()}


def sched_standalone() -> dict[str, bool]:
    """The trace's first job under FIFO (fixed width) against the same
    spec trained alone on its own cluster."""
    spec = sched_trace(SCHED_CONTENDED)[0]
    got = sched_run("fifo", SCHED_CONTENDED).results[spec.name]
    solo = spec.make_trainer(
        cluster1(executors=spec.executors, seed=0)).fit(spec.dataset())
    return {"weights equal": bool(np.array_equal(got.model.weights,
                                                 solo.model.weights)),
            "objectives equal": (got.history.objectives()
                                 == solo.history.objectives())}


# Serving (``repro.serve``): an open-loop Poisson sweep against a trained
# model on a 2-worker pool with micro-batches of up to 32 and a bounded
# admission queue of 128, at multiples of the batched pool's saturation
# throughput; the single-request pool (``max_batch=1``) is pushed to 2x
# its own saturation.  Each rate offers 0.02 simulated seconds of load.
SERVE_MULTIPLIERS = (0.25, 0.5, 1.0, 1.5, 2.0)
SERVE_DURATION = 0.02
SERVE_BATCHED = ServeConfig(max_batch=32, max_delay=1.0e-3, queue_limit=128,
                            workers=2, seed=11)
SERVE_DATA = synth("serving-study", 3000, 300, 10.0, 23)
#: (data, cluster, config, l2) of the MLlib* model the sweep serves.
_SERVE_TRAIN = (SERVE_DATA, (cluster1, 4),
                TrainerConfig(max_steps=6, learning_rate=0.5,
                              lr_schedule="inv_sqrt", local_chunk_size=64,
                              eval_every=3, seed=1), SVM_L2)


def serve_nnz_per_row() -> float:
    return dataset(SERVE_DATA).nnz / dataset(SERVE_DATA).n_rows


def serve_saturation(config: ServeConfig) -> float:
    """Rows per second ``config``'s pool sustains at full batches."""
    return ServingCostModel().saturation_qps(config.workers, config.max_batch,
                                             serve_nnz_per_row())


def serve_sweep(model: GLMModel, config: ServeConfig,
                multipliers: tuple[float, ...]) -> list[dict]:
    """One service run per multiple of ``config``'s saturation rate."""
    saturation = serve_saturation(config)
    return rate_sweep(model, dataset(SERVE_DATA), config,
                      [round(saturation * m) for m in multipliers],
                      SERVE_DURATION, cost=ServingCostModel())


def serve_p99_bound() -> float:
    """A full admission queue's drain time plus the deadline: the last
    request admitted waits for ``queue_limit / (workers x max_batch)``
    batches ahead of it, then its own batch's deadline and service.  A
    p99 above it means latency grows with offered load."""
    b = SERVE_BATCHED
    batch_time = ServingCostModel().batch_seconds(
        b.max_batch, round(b.max_batch * serve_nnz_per_row()))
    return ((b.queue_limit / (b.workers * b.max_batch) + 1.0) * batch_time
            + b.max_delay)


@functools.cache
def serving_study() -> dict[str, list[dict]]:
    """The batched sweep and the single-request baseline."""
    model = fit("MLlib*", *_SERVE_TRAIN).model
    single = SERVE_BATCHED.with_overrides(max_batch=1)
    return {"sweep": serve_sweep(model, SERVE_BATCHED, SERVE_MULTIPLIERS),
            "single": serve_sweep(model, single, (2.0,))}


def serve_overload() -> dict[str, float]:
    """The sweep's last (2x saturation) row against the p99 bound."""
    row = serving_study()["sweep"][-1]
    return {"x saturation": row["rate"] / serve_saturation(SERVE_BATCHED),
            "shed": row["shed_rate"], "p99 s": row["latency"]["p99"],
            "bound s": serve_p99_bound(), "max queue": row["max_queue_depth"]}


def serve_replays() -> bool:
    """A second sweep, model retrained and every rate re-run, equals the
    first bit for bit."""
    model = make_trainer("MLlib*", *_SERVE_TRAIN[1:]).fit(
        dataset(SERVE_DATA)).model
    return (serve_sweep(model, SERVE_BATCHED, SERVE_MULTIPLIERS)
            == serving_study()["sweep"])


# ----------------------------------------------------------------------
# the claims table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Claim:
    id: str
    figure: str
    claim: str
    #: The paper's own number or words, "" where it states none.
    paper: str
    measure: Callable[[], Any]
    check: Callable[[Any], bool]


#: Fig. 1 as reported: survey data, not re-measurable.
WORKLOAD_SHARES = {"Angel": 51.0, "XGBoost": 24.0, "TensorFlow": 22.0,
                   "MLlib": 3.0}
WORKLOADS = [(n, l2) for n in FIG45_DATASETS for l2 in (0.0, SVM_L2)]
#: Fig. 4's (step, time) speedups as the paper states them.
FIG4_PAPER = dict(zip(WORKLOADS, [
    ("200x", "123x"), ("10x", "7x"), ("MLlib n/c", ""), ("500x", "1150x"),
    ("MLlib n/c", ""), ("13x", "37x"), ("80x", "240x"), ("10x", "21x")]))

ROWS = [
    Claim("table1-conditioning", "Table I",
          "the analogs keep each dataset's conditioning (url and kddb "
          "underdetermined, the rest determined)",
          "url, kddb: more features than instances",
          lambda: {n: CATALOG[n].is_underdetermined for n in dataset_names()},
          lambda v: v == {"avazu": False, "url": True, "kddb": True,
                          "kdd12": False, "WX": False}),
    Claim("table1-model-size-order", "Table I",
          "the analogs keep the model-size order avazu < url < kddb < kdd12",
          "1.0M < 3.2M < 29.9M < 54.7M features",
          lambda: {n: CATALOG[n].spec.n_features for n in FIG45_DATASETS},
          lambda v: v["avazu"] < v["url"] < v["kddb"] < v["kdd12"]),
    Claim("fig1-shares", "Fig. 1",
          "only 3% of ML workloads on Tencent's platform use MLlib (survey "
          "constants, a consistent distribution)",
          "Angel 51%, XGBoost 24%, TensorFlow 22%, MLlib 3%",
          lambda: WORKLOAD_SHARES,
          lambda v: sum(v.values()) == 100.0
          and v["MLlib"] == min(v.values())),
    Claim("fig3-driver-centric", "Fig. 3(a)(b)",
          "MLlib and MLlib+MA: the driver works while executors wait",
          "bottlenecks B1 + B2",
          lambda: {s: fig3(s) for s in ("MLlib", "MLlib+MA")},
          lambda v: v["MLlib"]["driver busy"] > 0
          and v["MLlib+MA"]["driver busy"] > 0
          and v["MLlib"]["exec wait"] > 0.2),
    Claim("fig3-star-busy", "Fig. 3(c)",
          "MLlib* takes the driver off the data path and keeps executors "
          "busier than either driver-centric variant",
          "all executors busy almost all the time",
          lambda: {s: fig3(s) for s in ("MLlib*", "MLlib+MA", "MLlib")},
          lambda v: v["MLlib*"]["driver busy"] == 0.0
          and v["MLlib*"]["exec busy"] > v["MLlib+MA"]["exec busy"]
          and v["MLlib*"]["exec busy"] > v["MLlib"]["exec busy"]
          and v["MLlib*"]["exec wait"] < 0.25),
    Claim("fig4-star-converges", "Fig. 4",
          "MLlib* reaches 0.01 accuracy loss on every dataset at L2 = 0", "",
          lambda: {n: run_comparison("MLlib*", n, 0.0, fig=4).converged
                   for n in FIG45_DATASETS},
          lambda v: all(v.values())),
    Claim("fig4-step-speedup", "Fig. 4",
          "on determined data at L2 = 0 MLlib* needs one to two orders of "
          "magnitude fewer steps (bound: > 20x)", "avazu 200x, kdd12 80x",
          lambda: {n: fig4_speedup(n, 0.0, "steps")
                   for n in ("avazu", "kdd12")},
          lambda v: all(r is None or r > 20 for r in v.values())),
    Claim("fig4-underdetermined", "Fig. 4(d)(f)",
          "on url and kddb at L2 = 0 MLlib fails to reach the optimum or "
          "needs >= 10x the steps", "MLlib n/c on url and kddb",
          lambda: {n: fig4_speedup(n, 0.0, "steps") for n in ("url", "kddb")},
          lambda v: all(
              r is not None and r >= 10
              for n, r in v.items()
              if run_comparison("MLlib", n, 0.0, fig=4).converged)),
    Claim("fig4-mllib-converges-l2", "Fig. 4",
          "with L2 = 0.1 MLlib converges on the underdetermined datasets too",
          "", lambda: {n: run_comparison("MLlib", n, SVM_L2, fig=4).converged
                       for n in ("url", "kddb")},
          lambda v: all(v.values())),
    Claim("fig4-allreduce-amplifies", "Fig. 4",
          "time speedup over step speedup is larger on the large-model "
          "kdd12 than on the small-model avazu (AllReduce)",
          "kdd12 240x vs 80x; avazu 123x vs 200x",
          lambda: {n: fig4_amplification(n) for n in ("avazu", "kdd12")},
          lambda v: None in v.values() or v["kdd12"] > v["avazu"]),
    Claim("fig5-star-converges", "Fig. 5",
          "MLlib* reaches 0.01 accuracy loss on all eight workloads", "",
          lambda: {f"{n} {l2:g}": fig5_seconds("MLlib*", n, l2)
                   for n, l2 in WORKLOADS},
          lambda v: None not in v.values()),
    Claim("fig5-ps-beat-mllib", "Fig. 5",
          "parameter servers beat MLlib whenever both converge (1.5x slack "
          "for regularized Petuum*'s single update per step)",
          "PS significantly outperform MLlib",
          lambda: {f"{n} {l2:g} {ps}": (fig5_seconds(ps, n, l2),
                                        fig5_seconds("MLlib", n, l2))
                   for n, l2 in WORKLOADS for ps in ("Petuum*", "Angel")},
          lambda v: all(ps < 1.5 * mllib for ps, mllib in v.values()
                        if ps is not None and mllib is not None)),
    Claim("fig5-star-fastest-l2", "Fig. 5",
          "with L2 = 0.1 MLlib* is within 2x of (or faster than) both "
          "parameter servers on url and kddb",
          "MLlib* fastest; biggest gaps on url, kddb",
          lambda: {f"{n} {s}": fig5_seconds(s, n, SVM_L2)
                   for n in ("url", "kddb")
                   for s in ("MLlib*", "Petuum*", "Angel")},
          lambda v: all(v[f"{n} {s}"] is None
                        or v[f"{n} MLlib*"] <= v[f"{n} {s}"] * 2.0
                        for n in ("url", "kddb")
                        for s in ("Petuum*", "Angel"))),
    Claim("fig5-star-comparable", "Fig. 5",
          "at L2 = 0 a parameter server converges on every workload and "
          "MLlib* is within 10x of the best one",
          "MLlib* comparable to Petuum*, faster than Angel",
          lambda: {n: (fig5_seconds("MLlib*", n, 0.0),
                       [t for t in (fig5_seconds("Petuum*", n, 0.0),
                                    fig5_seconds("Angel", n, 0.0))
                        if t is not None]) for n in FIG45_DATASETS},
          lambda v: all(ps and star <= 10 * min(ps)
                        for star, ps in v.values())),
    Claim("fig6-star-lowest-loss", "Fig. 6(a-c)",
          "MLlib* reaches a lower loss than MLlib at every cluster size",
          "MLlib* converges much faster than Angel and MLlib",
          lambda: {k: (fig6("MLlib*", k).final_objective,
                       fig6("MLlib", k).final_objective)
                   for k in MACHINE_COUNTS},
          lambda v: all(star < mllib for star, mllib in v.values())),
    Claim("fig6-sublinear", "Fig. 6(d)",
          "8 -> 32 machines: MLlib* and Angel speed up, far below the ideal "
          "4x (bound: 1x to 3x)", "MLlib* 1.7x, Angel 1.5x",
          lambda: {s: fig6_scaling(s) for s in ("MLlib*", "Angel")},
          lambda v: all(1.0 < x < 0.75 * 4 for x in v.values())),
    Claim("fig6-mllib-slower", "Fig. 6(d)",
          "MLlib gets slower with more machines and scales worst",
          "MLlib even gets slower",
          lambda: {s: fig6_scaling(s) for s in ("MLlib", "MLlib*")},
          lambda v: v["MLlib"] < 1.0 and v["MLlib"] < v["MLlib*"]),
    Claim("aggregation-averaging-stable", "§IV-B1",
          "model averaging (Petuum*) never diverges across the rate sweep",
          "", lambda: {lr: avg.diverged
                       for lr, (_, avg) in aggregation_sweep().items()},
          lambda v: not any(v.values())),
    Claim("aggregation-summation-diverges", "§IV-B1",
          "model summation (Petuum) diverges, or is 10x worse, at a swept "
          "rate where averaging is fine", "summation can diverge [15]",
          lambda: {lr: "diverged" if s.diverged else (s.final_objective,
                                                      a.final_objective)
                   for lr, (s, a) in aggregation_sweep().items()},
          lambda v: any(r == "diverged" or r[0] > 10 * r[1]
                        for r in v.values())),
    Claim("angel-batch", "§V-B2",
          "Angel's per-epoch time grows strictly as batches shrink (one "
          "gradient buffer per batch), > 2x at the smallest",
          "Angel cannot support small batch sizes very efficiently",
          angel_epoch_seconds,
          lambda v: v[0.001] > v[0.01] > v[0.1] and v[0.001] > 2 * v[0.1]),
    Claim("consistency-order", "§III-B",
          "staleness relaxes the barrier monotonically: ASP <= SSP(3) <= "
          "SSP(1) <= BSP makespan", "", consistency_makespans,
          lambda v: all(t["ASP"] <= t["SSP(s=3)"] <= t["SSP(s=1)"]
                        <= t["BSP"] for t in v.values())),
    Claim("consistency-stragglers", "§V-B2",
          "SSP's gain over BSP grows with straggler severity",
          "Petuum* uses SSP to alleviate latency from stragglers",
          lambda: {s: t["BSP"] / t["SSP(s=3)"]
                   for s, t in consistency_makespans().items()},
          lambda v: v[0.5] > v[0.2]),
    Claim("lazy-l2-exact", "§IV-B1",
          "Bottou's lazy L2 update gives the eager update's iterates "
          "(objectives within 1e-8)", "",
          lambda: {k: r.final_objective for k, r in lazy_pair().items()},
          lambda v: abs(v["lazy"] - v["eager"]) < 1e-8),
    Claim("lazy-l2-cheaper", "§IV-B1",
          "the lazy update is materially cheaper (< 0.8x the eager "
          "simulated time)", "",
          lambda: {k: r.history.total_seconds for k, r in lazy_pair().items()},
          lambda v: v["lazy"] < 0.8 * v["eager"]),
    Claim("local-epochs", "§II-B",
          "with more local passes T' per step MLlib* needs fewer "
          "communication steps to f = 0.32", "T' >> 1: many more updates",
          lambda: {t: None if h is None else h.step
                   for t, h in local_epoch_hits().items()},
          lambda v: None not in v.values() and v[1] > v[2] >= v[4]),
    Claim("partitioning-iid", "§IV-B2 fn. 4",
          "label-sorted shards hurt model averaging: best f(w) > 0.01 "
          "above random shuffling's", "data need to be randomly shuffled",
          partitioning_best,
          lambda v: v["label-sorted"] > v["random"] + 0.01),
    Claim("tree-depth-driver", "§III-A",
          "treeAggregate (depth 2) sheds driver time against flat (depth 1)",
          "", lambda: {k: (p["depth 2"][1], p["depth 1"][1])
                       for k, p in aggregation_patterns().items()},
          lambda v: all(tree < flat for tree, flat in v.values())),
    Claim("tree-depth-allreduce", "§IV-B2",
          "AllReduce beats both tree depths and has no driver time", "",
          lambda: {k: {n: t for n, (t, _) in p.items()} | {
              "AllReduce driver": p["AllReduce"][1]}
              for k, p in aggregation_patterns().items()},
          lambda v: all(p["AllReduce"] < p["depth 2"]
                        and p["AllReduce"] < p["depth 1"]
                        and p["AllReduce driver"] == 0.0
                        for p in v.values())),
    Claim("tree-depth-scaling", "§IV-B2",
          "AllReduce's advantage over treeAggregate grows from 8 to 32 "
          "executors", "",
          lambda: {k: p["depth 2"][0] / p["AllReduce"][0]
                   for k, p in aggregation_patterns().items()},
          lambda v: v[32] > v[8]),
    Claim("waves", "§V-C",
          "one task per executor is optimal: per-iteration time rises with "
          "waves, > 1.5x at 8", "one task per executor is optimal",
          waves_seconds,
          lambda v: list(v.values()) == sorted(v.values())
          and v[8] > 1.5 * v[1]),
    Claim("async-clock", "§III-B [13]",
          "ASGD lands BSP's update count in < 0.3x its simulated time "
          "(no barrier-to-slowest)",
          "asynchronous communication can be beneficial",
          lambda: {k: async_pair()[k] for k in ("asgd s", "bsp s")},
          lambda v: v["asgd s"] < 0.3 * v["bsp s"]),
    Claim("async-staleness", "§III-B [13]",
          "ASGD's gradients are really stale (mean staleness > 1)", "",
          lambda: async_pair()["staleness"], lambda v: v > 1),
    Claim("async-matched-time", "§III-B [13]",
          "at ASGD's finishing time ASGD's objective is > 0.05 below BSP's",
          "", lambda: {k: async_pair()[k] for k in ("asgd f",
                                                    "bsp f at asgd s")},
          lambda v: v["asgd f"] < v["bsp f at asgd s"] - 0.05),
    Claim("spark-ml-same-iterates", "§VII",
          "spark.ml* (AllReduce, replicated line search) computes "
          "spark.ml's L-BFGS iterates", "",
          lambda: {"weights allclose": bool(np.allclose(*(
              r.model.weights for r in spark_ml_pair().values()))),
              "objectives equal": operator.eq(*(
                  r.history.objectives() for r in spark_ml_pair().values()))},
          lambda v: all(v.values())),
    Claim("spark-ml-optimizes", "§VII",
          "L-BFGS cuts the objective below 0.9x its start in 8 iterations",
          "", lambda: {"final": spark_ml_pair()["spark.ml"].final_objective,
                       "start": spark_ml_pair()["spark.ml"].history
                       .objectives()[0]},
          lambda v: v["final"] < 0.9 * v["start"]),
    Claim("spark-ml-star-faster", "§VII",
          "spark.ml* takes < 0.6x spark.ml's simulated time",
          "open question: can spark.ml be sped up like MLlib?",
          lambda: {s: r.history.total_seconds
                   for s, r in spark_ml_pair().items()},
          lambda v: v["spark.ml*"] < 0.6 * v["spark.ml"]),
    Claim("fault-weights-unchanged", "ext.",
          "injected crashes change the clock, never the weights", "",
          lambda: {s: (fault_runs(s)[1].final_objective
                       == fault_runs(s)[0].final_objective)
                   for s in FAULT_SYSTEMS},
          lambda v: all(v.values())),
    Claim("fault-costs-time", "ext.",
          "every system sees the 4 scripted crashes and loses time "
          "recovering from them", "",
          lambda: {s: (len(f.failures), f.history.total_seconds
                       - c.history.total_seconds, f.recovery_seconds)
                   for s in FAULT_SYSTEMS for c, f, _ in [fault_runs(s)]},
          lambda v: all(n == 4 and added > 0 and recovery > 0
                        for n, added, recovery in v.values())),
    Claim("fault-deterministic", "ext.",
          "a second faulty run reproduces the times and crashes", "",
          lambda: {s: (r.history.total_seconds == f.history.total_seconds
                       and r.failures == f.failures)
                   for s in FAULT_SYSTEMS for _, f, r in [fault_runs(s)]},
          lambda v: all(v.values())),
    Claim("fault-star-wins", "ext.",
          "crashes add time to MLlib* and MLlib+MA alike, and MLlib* still "
          "finishes first", "",
          lambda: {s: (f.history.total_seconds - c.history.total_seconds,
                       f.history.total_seconds)
                   for s in ("MLlib*", "MLlib+MA")
                   for c, f, _ in [fault_runs(s)]},
          lambda v: v["MLlib*"][0] > 0 and v["MLlib+MA"][0] > 0
          and v["MLlib*"][1] < v["MLlib+MA"][1]),
    Claim("cocoa-reference-certified", "ext. 1612.01437",
          "a CoCoA+ run (H = 32) certifies its own duality gap <= eps/2 = "
          "0.005, so D_ref + eps is a certified target for every run",
          "the duality gap certifies suboptimality: D(alpha) <= P(w*) <= "
          "P(w)", lambda: cocoa_reference().duality_gaps[-1].gap,
          lambda v: v <= EPS / 2),
    Claim("cocoa-certificates", "ext. 1612.01437",
          "every dual run of the sweep records certificates, each gap >= "
          "-1e-9, and its dual never decreases", "dual ascent",
          cocoa_certificates,
          lambda v: v["runs"] == len(FABRICS) * 2 * len(COCOA_H)
          and v["certified"] == v["dual ascends"] == v["runs"]
          and v["min gap"] >= -1e-9),
    Claim("cocoa-reach-target", "ext. 1612.01437",
          "MGD and every (solver, H) run reach the certified target on "
          "every fabric (supersteps: mgd, cocoa H = 1/4/16, cocoa+ H = "
          "1/4/16)", "",
          lambda: {name: tuple(hit and hit.step
                               for hit in cocoa_hits(name).values())
                   for name in FABRICS},
          lambda v: all(None not in steps for steps in v.values())),
    Claim("cocoa-plus-beats-mgd", "ext. 1612.01437",
          "on the comm-bound fabric the best CoCoA+ H reaches the certified "
          "target >= 2x sooner than MGD (simulated seconds)",
          "more local work per barrier pays on a slow fabric",
          lambda: {run: x for run, x in cocoa_vs_mgd("comm-bound").items()
                   if run.startswith("cocoa+")},
          lambda v: max((x for x in v.values() if x is not None),
                        default=0.0) >= 2.0),
    Claim("cocoa-h-dial", "ext. 1612.01437",
          "H is a local-progress dial: on the comm-bound fabric CoCoA+ at "
          "H = 16 takes no more supersteps to the target than H = 1, and "
          "fewer of them or a smaller certified gap at the stop",
          "H trades local work for communication rounds", cocoa_dial,
          lambda v: v[16][0] <= v[1][0]
          and (v[16][0] < v[1][0] or v[16][1] < v[1][1])),
    Claim("ladder-bit-identical", "ext. 1903.06701",
          "every hier and switch run has its flat twin's weights and "
          "per-step objectives: the ladder reprices, never changes the model",
          "", lambda: {f"{d} {m}x{e}": all(
              same_model(ladder_run(d, (m, e), "flat"),
                         ladder_run(d, (m, e), rung)) for rung in rungs)
              for d, (m, e), rungs in ladder_cells()},
          lambda v: all(v.values())),
    Claim("ladder-hier-beats-flat", "ext. 1803.06333",
          "on the dense analog hier's priced communication beats flat's "
          "from 8 executors up (sim s: hier, flat)",
          "combine on the machine first, then across machines",
          lambda: {f"{m}x{e}": (ladder_comm("dense", (m, e), "hier"),
                                ladder_comm("dense", (m, e), "flat"))
                   for m, e in LADDER_SHAPES if m * e >= 8},
          lambda v: all(hier is not None and hier < flat
                        for hier, flat in v.values())),
    Claim("ladder-switch-fastest", "ext. 1903.06701",
          "at 4x4 on the dense analog the in-network switch beats hier and "
          "flat (sim s)", "aggregate in the switch at line rate",
          lambda: {rung: ladder_comm("dense", (4, 4), rung)
                   for rung in ("switch", "hier", "flat")},
          lambda v: None not in v.values()
          and v["switch"] < v["hier"] and v["switch"] < v["flat"]),
    Claim("ladder-starved-switch", "ext. 1903.06701",
          "a one-slot switch pool stalls the stream: slower than the roomy "
          "switch and than flat (sim s)",
          "the slot pool must cover the bandwidth-delay product",
          lambda: {rung: ladder_comm("dense", (4, 4), rung)
                   for rung in ("starved", "switch", "flat")},
          lambda v: None not in v.values()
          and v["starved"] > v["switch"] and v["starved"] > v["flat"]),
    Claim("sparse-same-iterates", "ext. 1802.08021",
          "auto and forced-on wires give off's final objective bit for bit "
          "at every density", "sparsity changes the cost, never the sum",
          lambda: {d: all(sparse_run(d, mode).final_objective
                          == sparse_run(d, "off").final_objective
                          for mode in ("auto", "on"))
                   for d in SPARSE_DENSITIES},
          lambda v: all(v.values())),
    Claim("sparse-1pct-per-step", "ext. 1802.08021",
          "at 1% density auto cuts every superstep's priced communication "
          ">= 5x (dense over wire seconds)", "",
          lambda: per_step_vs_dense(sparse_run(0.01, "auto")),
          lambda v: bool(v) and all(x >= 5.0 for x in v.values())),
    Claim("sparse-auto-never-loses", "ext. 1802.08021",
          "auto never loses to the dense wire and never inflates it, at any "
          "density (speedup, compression)",
          "per message: sparse iff 2 nnz < m",
          lambda: {d: (sparse_vs_dense(d, "auto"),
                       comm_report(sparse_run(d, "auto")).compression)
                   for d in SPARSE_DENSITIES},
          lambda v: all(x >= 1.0 - 1e-12 and c >= 1.0
                        for x, c in v.values())),
    Claim("sparse-forced-crossover", "ext. 1802.08021",
          "a forced sparse wire crosses over: > 3x cheaper than dense at 1% "
          "density, < 0.75x at 70% once the union support saturates",
          "break-even at 2 nnz = m",
          lambda: {d: sparse_vs_dense(d, "on") for d in (0.01, 0.70)},
          lambda v: v[0.01] > 3.0 and v[0.70] < 0.75),
    Claim("sparse-auto-falls-back", "ext. 1802.08021",
          "at 70% density auto's wire is exactly the dense wire (wire "
          "values, dense values)", "past break-even, send dense",
          lambda: (comm_report(sparse_run(0.70, "auto")).wire_values,
                   comm_report(sparse_run(0.70, "auto")).dense_values),
          lambda v: v[0] == v[1]),
    Claim("sched-replay", "ext. repro.sched",
          "the most contended configuration (fair+elastic+preempt at "
          "240 jobs/s) replays to the same schedule log, digest and text",
          "same seed and arrival trace, byte-identical schedule",
          sched_replays, lambda v: all(v.values())),
    Claim("sched-standalone", "ext. repro.sched",
          "a fixed-width job through the scheduler equals the same spec "
          "trained alone (weights and per-step objectives)",
          "the scheduler multiplexes, it never perturbs", sched_standalone,
          lambda v: all(v.values())),
    Claim("sched-all-finish", "ext. repro.sched",
          "every policy finishes every job of the trace at every rate "
          "(finished, jobs)", "policy changes who waits, never who finishes",
          lambda: {f"{rate:g}/s {variant}": (r.finished, r.jobs)
                   for rate in SCHED_RATES for variant in SCHED_VARIANTS
                   for r in [sched_cell(variant, rate)]},
          lambda v: all(done == jobs for done, jobs in v.values())),
    Claim("sched-fair-beats-fifo", "ext. repro.sched",
          "at 240 jobs/s fair+elastic beats FIFO on p95 job-completion "
          "time at equal or better goodput (p95 JCT sim s, goodput "
          "steps/s)", "priority to short jobs cuts the tail",
          lambda: {v: (r.jct_p95, r.goodput) for v in ("fair+elastic", "fifo")
                   for r in [sched_cell(v)]},
          lambda v: v["fair+elastic"][0] < v["fifo"][0]
          and v["fair+elastic"][1] >= v["fifo"][1]),
    Claim("sched-elastic-goodput", "ext. repro.sched",
          "at 240 jobs/s elastic widths beat the static fair policy on "
          "goodput (steps/s)", "idle executors become finished supersteps",
          lambda: {v: sched_cell(v).goodput for v in ("fair+elastic", "fair")},
          lambda v: v["fair+elastic"] > v["fair"]),
    Claim("serve-batching-gain", "ext. repro.serve",
          "at 2x saturation micro-batching sustains >= 5x the QPS of the "
          "single-request pool", "batching amortizes the dispatch overhead",
          lambda: (serving_study()["sweep"][-1]["qps"]
                   / serving_study()["single"][0]["qps"]),
          lambda v: v >= 5.0),
    Claim("serve-overload-sheds", "ext. repro.serve",
          "at 2x saturation the bounded queue sheds > 20% of requests and "
          "holds p99 under the queue-drain bound",
          "shed load, not latency, absorbs overload",
          serve_overload,
          lambda v: v["x saturation"] >= 1.99 and v["shed"] > 0.2
          and v["p99 s"] <= v["bound s"]
          and v["max queue"] <= SERVE_BATCHED.queue_limit),
    Claim("serve-plateau", "ext. repro.serve",
          "shed rate never falls as load grows, and completed QPS "
          "plateaus: 2x saturation within 1.05x of 1.5x (shed, qps)",
          "past saturation throughput is flat",
          lambda: [(r["shed_rate"], r["qps"])
                   for r in serving_study()["sweep"]],
          lambda v: [s for s, _ in v] == sorted(s for s, _ in v)
          and v[-1][1] <= 1.05 * v[-2][1]),
    Claim("serve-below-saturation", "ext. repro.serve",
          "below saturation the pool keeps up: nothing sheds at 0.25x and "
          "< 1% at 0.5x (shed)", "below saturation the service keeps up",
          lambda: [r["shed_rate"] for r in serving_study()["sweep"][:2]],
          lambda v: v[0] == 0.0 and v[1] < 0.01),
    Claim("serve-replay", "ext. repro.serve",
          "the sweep re-run from a retrained model is bit-identical",
          "a simulated clock replays bit for bit",
          serve_replays, lambda v: v),
]


# ----------------------------------------------------------------------
# runner: one pytest item per row, and EXPERIMENTS.md's tables
# ----------------------------------------------------------------------
def show(value: Any, nested: bool = False) -> str:
    if isinstance(value, dict):
        text = ", ".join(f"{k}: {show(v, True)}" for k, v in value.items())
        return f"[{text}]" if nested else text
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(show(v, True) for v in value) + ")"
    if isinstance(value, float):
        return f"{value:.3g}"
    return "n/c" if value is None else str(value)


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def bench_claim(row: Claim) -> None:
    value = row.measure()
    assert row.check(value), (
        f"{row.id} ({row.figure}) does not hold: {row.claim}; measured "
        f"{show(value)}; paper: {row.paper or 'no number'}")


def md_table(headers: list[str], rows: list[list[Any]]) -> list[str]:
    return ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers),
            *("| " + " | ".join(str(c) for c in row) + " |" for row in rows)]


def seconds(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


def claims_block() -> list[str]:
    rows = []
    for row in ROWS:
        value = row.measure()
        rows.append([f"`{row.id}`", row.figure, row.claim, row.paper,
                     show(value), "yes" if row.check(value) else "**no**"])
    return md_table(["row", "figure", "claim", "paper", "measured", "holds"],
                    rows)


def table1_block() -> list[str]:
    rows = []
    for name in dataset_names():
        card, analog = CATALOG[name], dataset(name)
        rows.append([name, f"{card.paper_instances:,}",
                     f"{card.paper_features:,}", f"{card.paper_size_gb} GB",
                     f"{analog.n_rows:,}", f"{analog.n_features:,}",
                     f"{analog.nnz:,}",
                     "under" if card.is_underdetermined else "determined"])
    return md_table(["dataset", "paper #inst", "paper #feat", "paper size",
                     "analog #inst", "analog #feat", "analog nnz",
                     "conditioning"], rows)


def fig3_block() -> list[str]:
    rows = []
    for system in ("MLlib", "MLlib+MA", "MLlib*"):
        f = fig3(system)
        rows.append([system, f"{f['makespan']:.2f}",
                     *(f"{f[k]:.0%}" for k in ("driver busy", "exec busy",
                                               "exec wait"))])
    return md_table(["system", "makespan (sim s)", "driver busy",
                     "executors busy", "executors waiting"], rows)


def fig4_block() -> list[str]:
    rows = []
    for name, l2 in WORKLOADS:
        star, mllib = (run_comparison(s, name, l2, fig=4)
                       for s in ("MLlib*", "MLlib"))
        paper_steps, paper_time = FIG4_PAPER[(name, l2)]
        rows.append([name, f"{l2:g}", star.steps, mllib.steps or "n/c",
                     seconds(star.seconds), seconds(mllib.seconds),
                     f"{format_speedup(fig4_speedup(name, l2, 'steps'))} "
                     f"({paper_steps or '-'})",
                     f"{format_speedup(fig4_speedup(name, l2, 'seconds'))} "
                     f"({paper_time or '-'})"])
    return md_table(["dataset", "L2", "MLlib* steps", "MLlib steps",
                     "MLlib* sec", "MLlib sec", "step speedup (paper)",
                     "time speedup (paper)"], rows)


def fig5_block() -> list[str]:
    systems = ("MLlib*", "Petuum*", "Angel", "MLlib")
    return md_table(["dataset", "L2", *systems], [
        [name, f"{l2:g}", *(seconds(fig5_seconds(s, name, l2))
                            for s in systems)] for name, l2 in WORKLOADS])


def fig6_block() -> list[str]:
    paper = {"MLlib*": "1.7x", "Angel": "1.5x", "MLlib": "slower"}
    rows = [[system, *(seconds(fig6(system, k).history.total_seconds)
                       for k in MACHINE_COUNTS),
             f"{fig6(system, MACHINE_COUNTS[-1]).final_objective:.4f}",
             f"{fig6_scaling(system):.2f}x", paper[system]]
            for system in FIG6_CONFIGS]
    return md_table(["system", *(f"{k} machines (sim s)"
                                 for k in MACHINE_COUNTS),
                     "final f(w) at 32", "8 -> 32 speedup (ideal 4x)",
                     "paper 32 -> 128"], rows)


def cocoa_block() -> list[str]:
    ref, hits = cocoa_reference().duality_gaps[-1], cocoa_hits("comm-bound")
    speedups = {name: cocoa_vs_mgd(name) for name in FABRICS}
    rows = []
    for run, result in cocoa_runs("comm-bound").items():
        solver, _, h = run.partition(" H=")
        hit, gaps = hits[run], result.duality_gaps
        rows.append([solver, h or "-", show(hit and hit.step),
                     show(hit and hit.seconds),
                     *(format_speedup(speedups[name].get(run, 1.0))
                       for name in FABRICS),
                     f"{gaps[-1].gap:.2e}" if gaps else "-"])
    return [f"D_ref = {ref.dual:.6f} (reference gap {ref.gap:.2e}); "
            f"target P(w) <= {cocoa_target():.6f}.", "",
            *md_table(["solver", "H", "supersteps", "sim s (comm-bound)",
                       *(f"vs MGD, {name}" for name in FABRICS),
                       "gap at the stop"], rows)]


def ladder_block() -> list[str]:
    rows = []
    for density, shape, rungs in ladder_cells():
        flat = ladder_run(density, shape, "flat").comm_seconds
        comm = {rung: ladder_comm(density, shape, rung) for rung in rungs}
        rows.append([density, "x".join(map(str, shape)), f"{flat:.4f}", *(
            "-" if comm.get(r) is None else format_speedup(flat / comm[r])
            for r in ("hier", "switch", "starved"))])
    return md_table(["analog", "machines x executors", "flat comm (sim s)",
                     "hier vs flat", "switch vs flat",
                     "1-slot switch vs flat"], rows)


def sparse_block() -> list[str]:
    rows = []
    for d in SPARSE_DENSITIES:
        reports = {mode: comm_report(sparse_run(d, mode))
                   for mode in SPARSE_MODES}
        dense = reports["off"].comm_seconds
        rows.append([f"{d:.0%}", *(f"{r.comm_seconds * 1e3:.3f}"
                                   for r in reports.values()),
                     *(format_speedup(dense / reports[mode].comm_seconds)
                       for mode in ("auto", "on")),
                     f"{reports['auto'].compression:.1f}x"])
    return md_table(["density", "dense ms", "auto ms", "forced-on ms",
                     "auto speedup", "on speedup", "auto compression"], rows)


def sched_block() -> list[str]:
    rows = []
    for rate in SCHED_RATES:
        for variant in SCHED_VARIANTS:
            r = sched_cell(variant, rate)
            rows.append([f"{rate:g}", variant, r.jobs, f"{r.goodput:.1f}",
                         f"{r.utilization:.3f}", f"{r.jct_p50:.4f}",
                         f"{r.jct_p95:.4f}", f"{r.mean_queue_wait:.4f}",
                         r.preemptions, r.resizes])
    return md_table(["jobs/s", "policy", "jobs", "goodput (steps/s)", "util",
                     "p50 JCT (sim s)", "p95 JCT (sim s)", "mean wait",
                     "preempt", "resize"], rows)


def serving_block() -> list[str]:
    study = serving_study()
    gain = study["sweep"][-1]["qps"] / study["single"][0]["qps"]
    rows = [[label, r["rate"], r["offered"], r["completed"],
             f"{r['shed_rate']:.1%}", round(r["qps"]),
             f"{r['mean_batch']:.2f}", f"{r['latency']['p50'] * 1e3:.3f}",
             f"{r['latency']['p99'] * 1e3:.3f}"]
            for label, r in [*zip((f"{m:g}x" for m in SERVE_MULTIPLIERS),
                                  study["sweep"]),
                             ("max_batch=1, 2x", study["single"][0])]]
    return [f"Saturation {serve_saturation(SERVE_BATCHED):,.0f} req/s; p99 "
            f"bound {serve_p99_bound() * 1e3:.3f} ms; batching gain at 2x "
            f"saturation {gain:.1f}x.",
            "", *md_table(["load", "rate (req/s)", "offered", "completed",
                           "shed", "qps", "mean batch", "p50 ms", "p99 ms"],
                          rows)]


BLOCKS = {"claims": claims_block, "table1": table1_block,
          "fig3": fig3_block, "fig4": fig4_block, "fig5": fig5_block,
          "fig6": fig6_block, "cocoa": cocoa_block, "ladder": ladder_block,
          "sparse": sparse_block, "sched": sched_block,
          "serving": serving_block}
_BLOCK = re.compile(r"(<!-- generated: (\w+) -->\n).*?(?=<!-- end -->)",
                    re.S)


def render(text: str) -> str:
    """``text`` with every generated block rewritten from the rows."""
    found = [m[2] for m in _BLOCK.finditer(text)]
    assert sorted(found) == sorted(BLOCKS), found
    return _BLOCK.sub(lambda m: m[1] + "\n".join(BLOCKS[m[2]]()) + "\n",
                      text)


def bench_experiments_md_current() -> None:
    text = EXPERIMENTS.read_text()
    assert render(text) == text, (
        "EXPERIMENTS.md is stale; rewrite its generated blocks with "
        "`PYTHONPATH=src python benchmarks/bench_claims.py`")


def main() -> None:
    EXPERIMENTS.write_text(render(EXPERIMENTS.read_text()))
    print(f"rewrote {len(BLOCKS)} generated blocks of {EXPERIMENTS}")


if __name__ == "__main__":
    main()
