"""Extension — sparse AllReduce: the dense/sparse wire crossover.

The paper prices AllReduce traffic densely (``2 k m`` values per
superstep), but its target datasets are ~0.01% dense.  This bench sweeps
per-row density on an MLlib* workload and runs the three ``sparse_comm``
modes side by side:

* ``off``  — the paper's dense pricing (baseline);
* ``on``   — forced index/value encoding, even past the break-even point;
* ``auto`` — SparCML's per-message rule (sparse iff ``2 nnz < m``).

Three facts the sweep must reproduce:

1. numerics are mode-invariant — every mode reaches the *same* final
   objective bit for bit (sparsity changes cost, never math);
2. at 1% density ``auto`` cuts priced communication seconds per superstep
   by >= 5x, and it never loses to dense at any density;
3. forced-``on`` crosses over: cheaper than dense at low density, up to
   ~2x *more* expensive when the union support saturates the model.

Results are written to ``BENCH_sparse_comm.json`` at the repo root.
"""

import json
from pathlib import Path

from repro.cluster import GIGABIT, ClusterSpec, NetworkModel, homogeneous_nodes
from repro.core import MLlibStarTrainer, TrainerConfig
from repro.data import SyntheticSpec, generate
from repro.glm import Objective
from repro.metrics import comm_report, format_table

BENCH_PATH = (Path(__file__).resolve().parent.parent
              / "BENCH_sparse_comm.json")

#: Fraction of the model each example touches.  Local SGD visits every
#: partition row per superstep, so the wire's union support is roughly
#: ``1 - (1 - density)^n_rows`` of the model — the sweep brackets the
#: SparCML break-even point (union density 0.5) from both sides.
DENSITIES = [0.01, 0.05, 0.10, 0.25, 0.45, 0.70]
MODES = ["off", "auto", "on"]

N_FEATURES = 20_000
N_ROWS = 8
EXECUTORS = 4
STEPS = 3


def _cluster() -> ClusterSpec:
    """Bandwidth-dominated network: per-message latency is negligible, so
    the priced seconds track wire volume (the regime sparsity targets)."""
    return ClusterSpec(
        nodes=homogeneous_nodes(EXECUTORS + 1, speed=1.0),
        network=NetworkModel(bandwidth=GIGABIT, alpha=1.0e-5))


def _run(density: float, mode: str):
    dataset = generate(
        SyntheticSpec(n_rows=N_ROWS, n_features=N_FEATURES,
                      nnz_per_row=density * N_FEATURES, noise=0.02,
                      feature_skew=0.0, seed=29),
        name=f"density-{density:g}")
    config = TrainerConfig(max_steps=STEPS, learning_rate=0.5,
                           lr_schedule="inv_sqrt", local_chunk_size=2,
                           seed=5, sparse_comm=mode)
    trainer = MLlibStarTrainer(Objective("hinge", "l2", 0.1), _cluster(),
                               config)
    return trainer.fit(dataset)


def run_density_sweep():
    return {density: {mode: _run(density, mode) for mode in MODES}
            for density in DENSITIES}


def bench_ext_sparse_comm(benchmark):
    sweep = benchmark.pedantic(run_density_sweep, rounds=1, iterations=1)

    study = {
        "workload": {
            "system": "MLlib*",
            "n_rows": N_ROWS,
            "n_features": N_FEATURES,
            "executors": EXECUTORS,
            "supersteps": STEPS,
            "network_alpha_seconds": 1.0e-5,
        },
        "densities": {},
    }
    rows = []
    for density in DENSITIES:
        results = sweep[density]
        reports = {mode: comm_report(results[mode]) for mode in MODES}
        dense_seconds = reports["off"].comm_seconds
        entry = {}
        for mode in MODES:
            report = reports[mode]
            entry[mode] = {
                "comm_seconds": report.comm_seconds,
                "wire_values": report.wire_values,
                "dense_values": report.dense_values,
                "compression": report.compression,
                "speedup_vs_dense": dense_seconds / report.comm_seconds,
            }
        study["densities"][f"{density:g}"] = entry
        rows.append([
            f"{density:.0%}",
            round(dense_seconds * 1e3, 3),
            round(reports["auto"].comm_seconds * 1e3, 3),
            round(reports["on"].comm_seconds * 1e3, 3),
            f"{entry['auto']['speedup_vs_dense']:.2f}x",
            f"{entry['on']['speedup_vs_dense']:.2f}x",
            f"{reports['auto'].compression:.1f}x",
        ])
    print()
    print(format_table(
        ["density", "dense ms", "auto ms", "forced-on ms", "auto speedup",
         "on speedup", "auto compression"], rows,
        title=f"Extension: sparse AllReduce crossover (MLlib*, "
              f"m={N_FEATURES}, {EXECUTORS} executors, {STEPS} supersteps)"))

    # 1. Numerics are mode-invariant at every density.
    for density in DENSITIES:
        results = sweep[density]
        assert (results["auto"].final_objective
                == results["off"].final_objective), density
        assert (results["on"].final_objective
                == results["off"].final_objective), density

    # 2. The acceptance bar: >= 5x per superstep at 1% density ...
    auto_low = sweep[0.01]["auto"]
    for step in sorted({r.step for r in auto_low.comm}):
        wire = sum(r.seconds for r in auto_low.comm if r.step == step)
        dense = sum(r.dense_seconds for r in auto_low.comm
                    if r.step == step)
        assert dense / wire >= 5.0, f"step {step}: {dense / wire:.2f}x"
    # ... and auto never loses to dense anywhere on the sweep.
    for density in DENSITIES:
        entry = study["densities"][f"{density:g}"]
        assert entry["auto"]["speedup_vs_dense"] >= 1.0 - 1e-12, density
        assert entry["auto"]["compression"] >= 1.0, density

    # 3. Forced-on crosses over: a clear win at 1%, a clear loss once the
    # union support saturates the model (every pair costs ~2x dense).
    assert study["densities"]["0.01"]["on"]["speedup_vs_dense"] > 3.0
    assert study["densities"]["0.7"]["on"]["speedup_vs_dense"] < 0.75
    # At saturation auto has fallen back to dense pricing entirely.
    top = study["densities"]["0.7"]["auto"]
    assert top["wire_values"] == top["dense_values"]

    BENCH_PATH.write_text(json.dumps(study, indent=2, sort_keys=True)
                          + "\n")
    print(f"wrote {BENCH_PATH}")
