"""Extension — the aggregation ladder: flat vs hierarchical vs in-network.

MLlib* exchanges its model with Reduce-Scatter + AllGather over a *flat*
ring of executors.  This bench climbs the two extra rungs added by the
topology collectives PR, on tiered clusters (``tiered_cluster``: a 1 Gbps
cross-node fabric, a ~100 Gbps shared-memory intra-node tier, and a block
executor->machine placement map):

* **hier** — Snap ML-style two-tier AllReduce: executors sharing a
  machine combine over the intra tier first, then only the machine
  leaders exchange slices over the slow fabric;
* **switch** — SwitchML-style in-network aggregation: a switch "node"
  combines dense chunks at line rate through a bounded slot pool, so the
  whole exchange costs one line-rate stream per executor (plus extra
  per-round latencies when the pool is starved).

Every mode reuses the flat combine kernels verbatim, so the *numerics*
never change — only the pricing does.  The bit-identity of every run
against its ``--collective flat`` twin (weights, per-step objectives) is
asserted *before* any speedup is reported: a topology that changed the
model is a bug, not a win.

The sweep is executor count x payload density:

* shapes: 2x2, 2x4, 4x4 machines x executors/machine (4..16 executors);
* density: a dense WX-style analog (``--sparse-comm off``: every message
  at full model size) and a sparse analog (``--sparse-comm auto``: local
  supports on the wire, the in-network switch deterministically falling
  back to host aggregation when sparse is strictly cheaper).

Acceptance bars, asserted below and recorded in ``BENCH_topology.json``:
hier beats flat at >= 8 executors on the dense analog; switch beats both
at the largest shape when its slot pool suffices; a slot-starved switch
(``--switch-slots 1``) is slower than the roomy one and than flat.

Run modes::

    # full study (writes BENCH_topology.json at the repo root)
    PYTHONPATH=src python benchmarks/bench_ext_topology.py

    # CI smoke: small model, same sweep and assertions, no JSON write
    PYTHONPATH=src python benchmarks/bench_ext_topology.py --smoke

    # pytest entry (smoke-sized, no JSON write)
    PYTHONPATH=src python -m pytest benchmarks/bench_ext_topology.py \
        --benchmark-only -q -s
"""

import argparse
import json
from pathlib import Path

import numpy as np

from repro.cluster import tiered_cluster
from repro.core import MLlibStarTrainer, TrainerConfig
from repro.data import SyntheticSpec, generate
from repro.glm import Objective
from repro.metrics import format_table

BENCH_PATH = (Path(__file__).resolve().parent.parent
              / "BENCH_topology.json")

STEPS = 5

#: machines x executors/machine; 4, 8 and 16 executors.
SHAPES = ((2, 2), (2, 4), (4, 4))

#: The slot-starved switch variant (largest shape, dense payloads only):
#: one slot forces one switch round per chunk, so the stream pays a full
#: per-round latency ~157 times instead of once.
STARVED_SLOTS = 1

#: Executor count from which the two-tier schedule must pay off.
HIER_BAR_EXECUTORS = 8


def _dataset(density: str, smoke: bool):
    """Dense/sparse analogs of the paper's WX workload, bench-sized.

    The model is wide (40k features full, 4k smoke) so alpha + bandwidth
    dominate the priced phases; rows are few so the local solves stay
    cheap.  ``dense`` ships full-size messages (``sparse_comm=off``);
    ``sparse`` keeps per-partition supports small (``sparse_comm=auto``).
    """
    features = 4000 if smoke else 40000
    rows = 400 if smoke else 1600
    nnz = 4.0 if density == "sparse" else (32.0 if smoke else 64.0)
    spec = SyntheticSpec(n_rows=rows, n_features=features,
                         nnz_per_row=nnz, noise=0.02, seed=11)
    return generate(spec, name=f"topology-{density}")


def _run(dataset, machines: int, executors_per_machine: int, mode: str,
         collective: str, switch_slots: int = 512):
    config = TrainerConfig(max_steps=STEPS, learning_rate=0.5,
                           lr_schedule="inv_sqrt", local_chunk_size=64,
                           seed=1, sparse_comm=mode, collective=collective,
                           switch_slots=switch_slots)
    trainer = MLlibStarTrainer(
        Objective("hinge"),
        tiered_cluster(machines=machines,
                       executors_per_machine=executors_per_machine),
        config)
    return trainer.fit(dataset)


def _assert_bit_identical(flat, result, label: str) -> None:
    """The gate in front of every reported speedup."""
    assert np.array_equal(result.model.weights, flat.model.weights), (
        f"{label}: weights differ from --collective flat")
    flat_points = flat.history.points
    points = result.history.points
    assert len(points) == len(flat_points), label
    for a, b in zip(flat_points, points):
        assert b.objective == a.objective, (
            f"{label}: objective diverged from flat at step {a.step}")


def run_study(smoke: bool):
    rows = []
    for density in ("dense", "sparse"):
        dataset = _dataset(density, smoke)
        mode = "off" if density == "dense" else "auto"
        for machines, per_machine in SHAPES:
            executors = machines * per_machine
            variants = [("flat", 512), ("hier", 512), ("switch", 512)]
            if density == "dense" and (machines, per_machine) == SHAPES[-1]:
                variants.append(("switch-starved", STARVED_SLOTS))
            flat = None
            for collective, slots in variants:
                result = _run(dataset, machines, per_machine, mode,
                              collective.split("-")[0], switch_slots=slots)
                label = f"{density}/k={executors}/{collective}"
                if collective == "flat":
                    flat = result
                else:
                    assert flat is not None
                    _assert_bit_identical(flat, result, label)
                rows.append({
                    "density": density,
                    "sparse_comm": mode,
                    "machines": machines,
                    "executors_per_machine": per_machine,
                    "executors": executors,
                    "collective": collective,
                    "switch_slots": (slots if collective.startswith(
                        "switch") else None),
                    "comm_seconds": result.comm_seconds,
                    "total_seconds": result.history.points[-1].seconds,
                    "final_objective": result.final_objective,
                    "comm_speedup_vs_flat": (
                        flat.comm_seconds / result.comm_seconds),
                    "bit_identical_to_flat": True,
                })
    return rows


def _cell(rows, density, executors, collective):
    for row in rows:
        if (row["density"] == density and row["executors"] == executors
                and row["collective"] == collective):
            return row
    raise KeyError((density, executors, collective))


def report_and_check(rows, smoke: bool) -> None:
    for density in ("dense", "sparse"):
        table = [[f"{r['machines']}x{r['executors_per_machine']}",
                  r["collective"], f"{r['comm_seconds']:.5f}",
                  f"{r['total_seconds']:.4f}",
                  f"{r['comm_speedup_vs_flat']:.2f}x"]
                 for r in rows if r["density"] == density]
        print(format_table(
            ["shape", "collective", "comm s", "total s", "vs flat"],
            table,
            title=f"MLlib* on the {density} analog "
                  "(simulated seconds; numerics bit-identical to flat)"))
        print()

    # Bit-identity was asserted per run inside run_study; these are the
    # speed bars from the PR's acceptance criteria.
    largest = SHAPES[-1][0] * SHAPES[-1][1]
    for machines, per_machine in SHAPES:
        executors = machines * per_machine
        if executors < HIER_BAR_EXECUTORS:
            continue
        flat = _cell(rows, "dense", executors, "flat")
        hier = _cell(rows, "dense", executors, "hier")
        assert hier["comm_seconds"] < flat["comm_seconds"], (
            f"hier must beat flat at {executors} executors", hier, flat)
    flat = _cell(rows, "dense", largest, "flat")
    hier = _cell(rows, "dense", largest, "hier")
    switch = _cell(rows, "dense", largest, "switch")
    starved = _cell(rows, "dense", largest, "switch-starved")
    assert switch["comm_seconds"] < hier["comm_seconds"], (switch, hier)
    assert switch["comm_seconds"] < flat["comm_seconds"], (switch, flat)
    assert starved["comm_seconds"] > switch["comm_seconds"], (
        "a starved slot pool must stall the stream", starved, switch)
    assert starved["comm_seconds"] > flat["comm_seconds"], (starved, flat)


def _payload(rows, smoke: bool):
    return {
        "bench": "topology",
        "workload": {
            "system": "MLlib*",
            "supersteps": STEPS,
            "shapes": [list(s) for s in SHAPES],
            "densities": ["dense", "sparse"],
            "starved_slots": STARVED_SLOTS,
            "smoke": smoke,
        },
        "runs": rows,
    }


def bench_ext_topology(benchmark):
    """Pytest entry: smoke-sized, asserts the bars, never writes JSON."""
    rows = benchmark.pedantic(lambda: run_study(smoke=True),
                              rounds=1, iterations=1)
    print()
    report_and_check(rows, smoke=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small model, same sweep and assertions, no "
                             "BENCH_topology.json write")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="override the JSON output path")
    args = parser.parse_args()

    rows = run_study(smoke=args.smoke)
    report_and_check(rows, smoke=args.smoke)
    if args.smoke and args.out is None:
        print("smoke mode: all assertions passed; no JSON written")
        return 0
    out = Path(args.out) if args.out else BENCH_PATH
    out.write_text(json.dumps(_payload(rows, smoke=args.smoke),
                              indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
