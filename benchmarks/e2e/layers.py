"""The traced pass: where one workload's time goes, layer by layer.

End-to-end metrics are measured with tracing off.  This pass runs
afterwards and produces every ``per_layer`` metric of ``BENCHMARK.json``
from spans recorded *in this file* around calls into each layer:

* in-situ spans from the program's one public hook,
  ``trainer.profiler = PhaseProfiler()`` (``superstep`` / ``evaluate`` /
  ``local_solve``), and ``trainer.last_wire_stats`` for the socket wire;
* direct replays of layer entry points (one worker task, backend
  install/map/close, ``wire.encode``/``decode``, the collective combine,
  one superstep of ``BspEngine`` pricing) on inputs captured from the
  workload: the model the traced fit produced, its real partitions and
  the simulated compute seconds it priced.

Layer names are this repository's module names.  A metric of a layer the
workload leaves idle (the wire on a serial run) reads 0.  Counts and
simulated values repeat exactly for a seed; times do not gate a change.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from repro.collectives import (hier_all_gather, hier_reduce_scatter,
                               sparse_all_gather, sparse_reduce_scatter)
from repro.core.worker import gradient_wave_task, send_model_task
from repro.engine import BspEngine, PartitionedDataset, wire
from repro.engine.backend import SerialBackend, make_backend
from repro.glm import apply_update
from repro.perf.netcheck import simulate_wire_log
from repro.perf.profiler import PhaseProfiler, measure

from measure import FitSample, percentile, timed_fit
from workloads import PARALLEL_BACKENDS, Workload

__all__ = ["TRACED_FITS", "traced_pass", "derived"]

#: Traced fits per pass; the program's spans are averaged over them and
#: the median wall gives ``trace.overhead_pct``.
TRACED_FITS = 3


def derived(map_s: float, twin_compute_s: float, lanes: int,
            superstep_s: float) -> dict[str, float]:
    """The metrics computed from other metrics, in one place so the test
    can recompute them from their parts.

    ``overhead_s`` is what the backend adds to a perfectly parallel
    local solve; ``efficiency`` is the share of ``lanes x map_s``
    lane-seconds that did solver work; ``step_other_s`` is the
    parent-side rest of a superstep (combine + pricing + glue).
    """
    other = superstep_s - map_s
    return {
        "engine.backend.overhead_s": map_s - twin_compute_s / lanes,
        "engine.backend.efficiency":
            twin_compute_s / (map_s * lanes) if map_s > 0 else 0.0,
        "core.step_other_s": other,
        "core.step_other_share": other / superstep_s
        if superstep_s > 0 else 0.0,
    }


def _task_args(workload: Workload, trainer, partitions, w: np.ndarray,
               seed: int):
    """One superstep's real task: ``(fn, args_by_worker)`` as the trainer
    would submit it at step 1 (fresh RNG streams; inputs are read-only)."""
    rngs = [np.random.default_rng([seed, i]) for i in range(len(partitions))]
    if workload.system == "MLlib*":
        lr = trainer.schedule.at(1)
        return send_model_task, [
            (w, trainer.objective, lr, trainer.config, rng) for rng in rngs]
    fraction = trainer.config.batch_fraction
    return gradient_wave_task, [
        (w, trainer.objective, 1, max(1, int(round(fraction * p.n_rows))),
         rng) for p, rng in zip(partitions, rngs)]


def _replay_step(workload: Workload, trainer, results, w: np.ndarray,
                 durations: list[float]) -> tuple[float, float]:
    """``(combine seconds, pricing seconds)`` of one superstep: the
    workload's collective on the k real local vectors, then its pricing
    calls on a fresh ``BspEngine`` with the wire that collective built."""
    config, cluster = trainer.config, trainer.cluster
    m = w.shape[0]
    vectors = [r[0] for r in results]
    clock = time.perf_counter
    engine = BspEngine(cluster)
    if workload.system == "MLlib":
        # Flat treeAggregate: the numerics are a mean + one update.
        t0 = clock()
        mean_grad = np.mean([np.mean(v, axis=0) for v in vectors], axis=0)
        apply_update(w, mean_grad, trainer.schedule.at(1), trainer.objective)
        combine_s = clock() - t0
        update_s = cluster.compute.dense_op_seconds(m, cluster.driver)
        t0 = clock()
        engine.compute_phase(durations, 1)
        engine.tree_aggregate_phase(m, 1, redo_seconds=durations)
        engine.driver_update_phase(update_s, 1)
        engine.broadcast_phase(m, 1)
        return combine_s, clock() - t0
    mode = config.sparse_comm
    t0 = clock()
    if config.collective == "hier":
        groups = cluster.executor_groups()
        parts, rs_wire = hier_reduce_scatter(vectors, groups, mode=mode)
        _, ag_wire = hier_all_gather(parts, m, groups, mode=mode)
    else:
        parts, rs_wire = sparse_reduce_scatter(vectors, mode=mode)
        _, ag_wire = sparse_all_gather(parts, m, mode=mode)
        if mode == "off":
            rs_wire = ag_wire = None
    combine_s = clock() - t0
    t0 = clock()
    engine.compute_phase(durations, 1)
    engine.reduce_scatter_phase(m, 1, redo_seconds=durations, wire=rs_wire)
    engine.all_gather_phase(m, 1, redo_seconds=durations, wire=ag_wire)
    return combine_s, clock() - t0


def _replay_backend(name: str, partitions, fn, args) -> tuple[float, float]:
    """``(install seconds, close seconds)`` of the workload's backend
    around one real map (pools fork lazily, so close without a map would
    reap nothing)."""
    backend = make_backend(name)
    try:
        t0 = time.perf_counter()
        backend.install_partitions(partitions)
        install_s = time.perf_counter() - t0
        backend.map_partitions(fn, args)
    finally:
        t0 = time.perf_counter()
        backend.close()
        close_s = time.perf_counter() - t0
    return install_s, close_s


def traced_pass(workload: Workload, seed: int, dataset,
                repeats: list[FitSample],
                ) -> tuple[dict[str, float], list[FitSample]]:
    """Run the traced fits and the replays; return the per-layer values
    (keyed as in ``BENCHMARK.json``, host/data-build entries excluded —
    the runner owns those) and the fits made here, which are operations
    like any other."""
    profiler = PhaseProfiler()
    traced = [timed_fit(workload, seed, dataset, profiler=profiler)
              for _ in range(TRACED_FITS)]
    fits = list(traced)
    stats = profiler.report()
    last = traced[-1]
    result = last.result
    steps = len(last.step_walls)
    n = float(TRACED_FITS)

    def wall(phase: str) -> float:
        return profiler.wall(phase) / n

    def calls(phase: str) -> float:
        return stats[phase].calls / n if phase in stats else 0.0

    if workload.backend in PARALLEL_BACKENDS:
        # The serial twin on the same inputs: what the local solves cost
        # with no backend in the way.
        twin_profiler = PhaseProfiler()
        fits += [timed_fit(workload, seed, dataset, backend="serial",
                           profiler=twin_profiler)
                 for _ in range(TRACED_FITS)]
        twin_compute = twin_profiler.wall("local_solve") / n
        twin_superstep = twin_profiler.wall("superstep") / n
        lanes = max(1, min(os.cpu_count() or 1, workload.executors))
    else:
        twin_compute, twin_superstep, lanes = (
            wall("local_solve"), wall("superstep"), 1)

    trainer = workload.trainer(seed)
    cluster = trainer.cluster
    k = cluster.num_executors
    w = np.array(result.model.weights)

    # -- data: the partitioner, called directly ------------------------
    data, partition_s = measure(
        lambda: PartitionedDataset.load(dataset, cluster, seed=seed), 3)
    partitions = data.partitions

    # -- glm: one real worker task on partition 0 ----------------------
    fn, args = _task_args(workload, trainer, partitions, w, seed)
    out, task_s = measure(lambda: fn(partitions[0], *args[0]), 5)
    task_nnz = (out[1].nnz_processed if workload.system == "MLlib*"
                else sum(out[1]))

    # -- engine.backend: install / map / close, called directly --------
    install_s, close_s = _replay_backend(workload.backend, partitions,
                                         fn, args)

    # -- collectives + engine.driver: one superstep, replayed ----------
    serial = SerialBackend()
    serial.install_partitions(partitions)
    results = serial.map_partitions(fn, args)
    durations = [s.duration for s in result.trace.spans
                 if s.kind == "compute" and s.step == 1]
    replays = [_replay_step(workload, trainer, results, w, durations)
               for _ in range(3)]
    combine_s = statistics.median(r[0] for r in replays)
    phase_s = statistics.median(r[1] for r in replays)
    comm = result.comm
    dense_values = sum(r.dense_values for r in comm)
    wire_values = sum(r.wire_values for r in comm)

    # -- engine.wire: the measured socket transport --------------------
    wire_metrics = dict.fromkeys(
        ("messages", "bytes_out", "bytes_in", "install_bytes",
         "bytes_per_step", "roundtrip_s", "compute_s", "comm_s",
         "comm_share", "encode_ms", "decode_ms", "measured_over_sim"), 0.0)
    stats_wire = last.wire_stats
    if stats_wire:
        task_rows = [r for r in stats_wire["per_superstep"]
                     if r["superstep"] > 0]
        simulated = sum(
            r["simulated_seconds"]
            for r in simulate_wire_log(stats_wire, cluster)["per_superstep"]
            if r["superstep"] > 0)
        task_comm = sum(r["comm_seconds"] for r in task_rows)
        frame = (fn, 0, args[0])
        payload, encode_s = measure(lambda: wire.encode(frame), 5)
        _, decode_s = measure(lambda: wire.decode(payload), 5)
        wire_metrics.update(
            messages=stats_wire["messages"],
            bytes_out=stats_wire["bytes_out"],
            bytes_in=stats_wire["bytes_in"],
            install_bytes=stats_wire["install_bytes"],
            bytes_per_step=sum(r["bytes_out"] + r["bytes_in"]
                               for r in task_rows) / max(1, len(task_rows)),
            roundtrip_s=stats_wire["roundtrip_seconds"],
            compute_s=stats_wire["compute_seconds"],
            comm_s=stats_wire["comm_seconds"],
            comm_share=(stats_wire["comm_seconds"]
                        / stats_wire["roundtrip_seconds"]),
            encode_ms=1e3 * encode_s, decode_ms=1e3 * decode_s,
            measured_over_sim=task_comm / simulated if simulated else 0.0)

    # -- cluster: what the simulator charged for the same run ----------
    kinds = result.trace.kind_totals()
    sim_compute = kinds.get("compute", 0.0)
    sim_comm = kinds.get("send", 0.0) + kinds.get("recv", 0.0)
    sim_busy = sum(kinds.values())

    step_walls = [s for fit in repeats for s in fit.step_walls]
    try:
        p90_ms = 1e3 * percentile(step_walls, 90)
    except ValueError:
        p90_ms = 0.0  # fewer than 100 samples: not reported
    # Against the untraced fits nearest in time: the host drifts by more
    # than tracing costs over the length of a run.
    untraced_wall = statistics.median(
        f.wall_s for f in repeats[-TRACED_FITS:])
    traced_wall = statistics.median(f.wall_s for f in traced)

    metrics = {
        "data.rows": dataset.n_rows,
        "data.features": dataset.n_features,
        "data.nnz": dataset.nnz,
        "data.partition_s": partition_s,
        "core.open_session_s": statistics.median(f.open_s for f in repeats),
        "core.close_s": statistics.median(f.close_s for f in repeats),
        "core.supersteps": steps,
        "core.superstep_s": wall("superstep"),
        "core.step_samples": len(step_walls),
        "core.step_p50_ms": 1e3 * statistics.median(step_walls),
        "core.step_p90_ms": p90_ms,
        "glm.task_ms": 1e3 * task_s,
        "glm.task_nnz": task_nnz,
        "glm.nnz_per_s": task_nnz / task_s,
        "glm.evaluate_s": wall("evaluate"),
        "glm.evaluate_calls": calls("evaluate"),
        "glm.share": twin_compute / twin_superstep,
        "engine.backend.install_s": install_s,
        "engine.backend.close_s": close_s,
        "engine.backend.map_s": wall("local_solve"),
        "engine.backend.map_calls": calls("local_solve"),
        "engine.backend.twin_compute_s": twin_compute,
        "engine.backend.lanes": lanes,
        "engine.backend.children": last.children,
        "engine.backend.leaked_children":
            sum(f.leaked_children for f in traced),
        "engine.shm.segment_bytes": last.segment_bytes,
        "engine.shm.leaked_segments":
            sum(f.leaked_segments for f in traced),
        "engine.driver.phase_ms": 1e3 * phase_s,
        "engine.driver.spans_per_step": len(result.trace) / steps,
        "engine.driver.comm_records": len(comm),
        "collectives.combine_ms": 1e3 * combine_s,
        "collectives.calls":
            steps * (2 if workload.system == "MLlib*" else 1),
        "collectives.dense_values": dense_values,
        "collectives.wire_values": wire_values,
        "collectives.compression": result.comm_compression,
        "cluster.sim_total_s": result.trace.end_time(),
        "cluster.sim_compute_s": sim_compute,
        "cluster.sim_comm_s": sim_comm,
        "cluster.sim_wait_s": kinds.get("wait", 0.0),
        "cluster.sim_comm_share": sim_comm / sim_busy,
        "cluster.sim_over_wall_compute":
            sim_compute / (k * steps) / task_s,
        "trace.overhead_pct":
            100.0 * (traced_wall - untraced_wall) / untraced_wall,
    }
    metrics.update({f"engine.wire.{key}": value
                    for key, value in wire_metrics.items()})
    metrics.update(derived(wall("local_solve"), twin_compute, lanes,
                           wall("superstep")))
    return metrics, fits
