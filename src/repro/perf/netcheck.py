"""Measured-vs-simulated network validation (``repro perf``).

Everything priced by :class:`repro.cluster.network.NetworkModel` has so
far been *simulated*: ``alpha + bytes / bandwidth`` with paper-derived
constants.  The socket backend finally gives us a real transport — each
superstep's task exchanges cross localhost TCP with measured
bytes-on-wire and wall seconds — so the alpha-beta model can be checked
against observations:

1. train the same workload twice, on the ``serial`` and ``socket``
   backends, and **gate on bit-identity** (histories point-for-point,
   weights bit-equal) — a validation run whose numerics drifted is
   measuring a different computation;
2. replay the socket run's wire log through the cluster's
   ``NetworkModel``: each request/response is priced as two transfers of
   its actual byte counts — the *simulated* seconds the model assigns to
   exactly the messages that crossed the wire;
3. least-squares fit the alpha-beta constants to the measured
   ``(bytes, comm_seconds)`` samples (``comm_seconds`` is the round trip
   minus the daemon-reported compute time), giving the localhost
   transport's *empirical* per-message latency and bandwidth next to the
   model's configured ones.

Localhost TCP is not the paper's 1 Gbps datacenter fabric, so the
interesting output is not "ratio == 1" but the decomposition: how much
of measured wall time is per-message overhead (alpha-like, dominant for
model-sized messages on loopback) vs payload (beta-like), and whether
the model's *shape* — linear in bytes with a constant floor — holds on a
real wire.  Like the rest of :mod:`repro.perf`, this module is on the
wall-clock side of the DET001 fence; nothing here feeds the simulated
clock.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..cluster import ClusterSpec, cluster1
from ..core import MLlibStarTrainer, TrainerConfig
from ..data import SyntheticSpec, generate
from ..glm import Objective

__all__ = ["validate_network", "fit_alpha_beta", "simulate_wire_log"]


def _unfittable(reason: str, samples: int,
                distinct_sizes: int) -> dict[str, Any]:
    """Diagnostic result for a sample set that cannot identify the line."""
    return {"ok": False, "reason": reason, "samples": samples,
            "distinct_sizes": distinct_sizes}


def fit_alpha_beta(samples: list[tuple[float, float]]) -> dict[str, Any]:
    """Least-squares fit ``seconds = 2*alpha + bytes / bandwidth``.

    ``samples`` are per-request ``(roundtrip_bytes, comm_seconds)``
    observations; the factor 2 reflects one request + one response, each
    paying the per-message latency.  Always returns a dict: on success
    ``ok`` is True alongside the fitted constants; when the samples
    cannot identify the line — fewer than two samples (a single
    superstep), fewer than two *distinct* message sizes (the normal
    equations are singular: every run with uniform frames would
    otherwise crash in the solver), non-finite measurements, or a
    non-physical non-positive slope — ``ok`` is False and ``reason``
    says which degeneracy was hit, so callers report *why* instead of
    dying on a singular matrix.
    """
    sizes = np.array([s[0] for s in samples], dtype=np.float64)
    secs = np.array([s[1] for s in samples], dtype=np.float64)
    distinct = int(np.unique(sizes).size)
    if len(samples) < 2:
        return _unfittable(
            f"need at least 2 samples to fit a line, got {len(samples)} "
            "(a single superstep cannot separate latency from bandwidth)",
            len(samples), distinct)
    if not (np.all(np.isfinite(sizes)) and np.all(np.isfinite(secs))):
        return _unfittable(
            "samples contain non-finite byte counts or seconds",
            len(samples), distinct)
    if distinct < 2:
        return _unfittable(
            f"all {len(samples)} samples share one message size "
            f"({sizes[0]:.0f} bytes): uniform frames cannot separate "
            "per-message latency (alpha) from payload cost (beta)",
            len(samples), distinct)
    try:
        slope, intercept = np.polyfit(sizes, secs, 1)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        return _unfittable(f"least-squares solve failed: {exc}",
                           len(samples), distinct)
    if slope <= 0:
        return _unfittable(
            f"fitted slope {float(slope):.3g} s/byte is not positive: "
            "larger messages did not take longer, so the samples are "
            "noise-dominated (non-physical negative bandwidth)",
            len(samples), distinct)
    predicted = intercept + slope * sizes
    residual = float(np.sqrt(np.mean((secs - predicted) ** 2)))
    return {
        "ok": True,
        "alpha_seconds": max(0.0, float(intercept) / 2.0),
        "bandwidth_bytes_per_second": 1.0 / float(slope),
        "rms_residual_seconds": residual,
        "samples": len(samples),
        "distinct_sizes": distinct,
    }


def simulate_wire_log(wire_stats: dict[str, Any],
                      cluster: ClusterSpec) -> dict[str, Any]:
    """Price the socket run's actual messages through the cluster's
    simulated :class:`NetworkModel`.

    Each recorded superstep row aggregates its records' bytes; every
    record (one result frame plus its share of the round's request) is
    priced as two transfers (out + in) of its measured volume, using the
    model's ``bytes_per_value`` to convert bytes back into the value
    counts ``transfer_seconds`` expects.  A round sends one request per
    daemon, not per task, so the out side is charged a few ``alpha`` more
    than crossed; the bytes are exact.
    """
    network = cluster.network
    per_superstep = []
    total = 0.0
    for row in wire_stats["per_superstep"]:
        messages = row["messages"]
        out_values = row["bytes_out"] / network.bytes_per_value
        in_values = row["bytes_in"] / network.bytes_per_value
        # messages request shares + messages responses, each paying
        # alpha; the payload is the sum of the actual frame bytes.
        seconds = (network.transfer_seconds(out_values / max(1, messages))
                   * messages
                   + network.transfer_seconds(in_values / max(1, messages))
                   * messages)
        per_superstep.append({
            "superstep": row["superstep"],
            "messages": messages,
            "bytes": row["bytes_out"] + row["bytes_in"],
            "simulated_seconds": seconds,
            "measured_comm_seconds": row["comm_seconds"],
        })
        total += seconds
    return {
        "seconds": total,
        "alpha_seconds": network.alpha,
        "bandwidth_bytes_per_second": network.bandwidth,
        "per_superstep": per_superstep,
    }


def validate_network(rows: int = 400, features: int = 48,
                     executors: int = 4, steps: int = 5,
                     seed: int = 3) -> dict[str, Any]:
    """Run the serial-vs-socket validation; return the full report.

    The workload is MLlib* on a ``rows`` x ``features`` synthetic set
    over ``cluster1(executors)``, whose network model prices the wire.
    Raises :class:`AssertionError` if the socket run is not bit-identical
    to serial — measured numbers for a drifted computation would be
    meaningless.
    """
    dataset = generate(SyntheticSpec(n_rows=rows, n_features=features,
                                     nnz_per_row=8.0, noise=0.02, seed=17),
                       name="netcheck")
    objective = Objective("hinge", "l2", 0.1)
    cluster = cluster1(executors=executors)

    def factory(backend: str) -> MLlibStarTrainer:
        config = TrainerConfig(max_steps=steps, learning_rate=0.3,
                               lr_schedule="inv_sqrt", batch_fraction=0.25,
                               local_chunk_size=16, seed=seed,
                               backend=backend)
        return MLlibStarTrainer(objective, cluster, config)

    serial_trainer = factory("serial")
    serial_result = serial_trainer.fit(dataset)
    socket_trainer = factory("socket")
    socket_result = socket_trainer.fit(dataset)

    serial_points = list(serial_result.history.points)
    socket_points = list(socket_result.history.points)
    identical = (serial_points == socket_points
                 and np.array_equal(serial_result.model.weights,
                                    socket_result.model.weights))
    if not identical:
        raise AssertionError(
            "socket backend is not bit-identical to serial on the "
            "validation workload — refusing to compare measured vs "
            "simulated seconds for a drifted computation")

    wire_stats = socket_trainer.last_wire_stats
    if not wire_stats:
        raise AssertionError("socket run produced no wire accounting")

    simulated = simulate_wire_log(wire_stats, cluster)
    task_rows = [r for r in wire_stats["per_superstep"]
                 if r["superstep"] > 0]
    # Fit over every superstep INCLUDING the partition install — its
    # much larger frames are what give the regression the size spread
    # needed to separate per-message latency from payload cost.
    samples = [(float(r["bytes_out"] + r["bytes_in"]) / max(1,
                                                            r["messages"]),
                r["comm_seconds"] / max(1, r["messages"]))
               for r in wire_stats["per_superstep"]]
    measured_comm = sum(r["comm_seconds"] for r in task_rows)
    simulated_tasks = sum(r["simulated_seconds"]
                          for r in simulated["per_superstep"]
                          if r["superstep"] > 0)
    return {
        "bit_identical": True,
        "workload": {
            "system": socket_trainer.system,
            "dataset": dataset.name,
            "executors": cluster.num_executors,
            "history_points": len(serial_points),
        },
        "measured": {
            "messages": wire_stats["messages"],
            "bytes_on_wire": (wire_stats["bytes_out"]
                              + wire_stats["bytes_in"]),
            "install_bytes": wire_stats["install_bytes"],
            "roundtrip_seconds": wire_stats["roundtrip_seconds"],
            "compute_seconds": wire_stats["compute_seconds"],
            "comm_seconds": wire_stats["comm_seconds"],
            "task_comm_seconds": measured_comm,
        },
        "simulated": {
            "seconds": simulated["seconds"],
            "task_seconds": simulated_tasks,
            "alpha_seconds": simulated["alpha_seconds"],
            "bandwidth_bytes_per_second":
                simulated["bandwidth_bytes_per_second"],
        },
        "ratio_measured_over_simulated":
            measured_comm / simulated_tasks if simulated_tasks else None,
        "fitted": fit_alpha_beta(samples),
        "per_superstep": simulated["per_superstep"],
    }
