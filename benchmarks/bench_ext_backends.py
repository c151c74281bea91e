"""Extension — real executors: shm + socket next to the serial reference.

A plain process pool re-pickles the broadcast model into every task
message, every superstep.  The ``shm`` backend removes that copy
(partitions and the broadcast model live in shared memory; only task
scalars and local-model deltas cross process boundaries) and the
``socket`` backend replaces the pool with long-lived daemons on a real
localhost TCP wire, so bytes and seconds are *measured*.

Two results are recorded, both **gated on bit-identity** (every run's
convergence history must match point-for-point before any number is
reported):

* an end-to-end sweep — MLlib* under every backend, ``serial`` (the
  reference every other file compares to) as the baseline, on a
  wide-model workload (the regime the shared-memory broadcast targets);
* the measured-vs-simulated network validation
  (:func:`repro.perf.netcheck.validate_network`): the socket run's
  actual bytes-on-wire priced through the simulated
  :class:`~repro.cluster.network.NetworkModel`, plus the empirical
  alpha/bandwidth fitted from the measured exchanges.

Wall-clock caveat (same as ``bench_ext_wallclock``): this workload is
light on compute, so on a host with few cores every pool pays overhead
without parallel payoff.  The study asserts the gates and *records* the
seconds; speed bars live in the end-to-end benchmark (``BENCHMARK.json``).

Run modes::

    # full study (writes BENCH_backends.json at the repo root)
    PYTHONPATH=src python benchmarks/bench_ext_backends.py

    # CI smoke: small workload, same gates, no JSON write
    PYTHONPATH=src python benchmarks/bench_ext_backends.py --smoke

    # pytest entry (smoke-sized, no JSON write)
    PYTHONPATH=src python -m pytest benchmarks/bench_ext_backends.py \
        --benchmark-only -q -s
"""

import argparse
import json
from pathlib import Path

from repro.cluster import cluster1
from repro.core import MLlibStarTrainer, TrainerConfig
from repro.data import SyntheticSpec, generate
from repro.glm import Objective
from repro.metrics import format_table
from repro.perf.harness import backend_sweep
from repro.perf.netcheck import validate_network

BENCH_PATH = (Path(__file__).resolve().parent.parent
              / "BENCH_backends.json")


def _make_workload(smoke: bool):
    """A wide-model workload — broadcast traffic is what shm removes."""
    if smoke:
        rows, features, executors, steps = 4000, 20000, 4, 3
    else:
        rows, features, executors, steps = 40000, 200000, 8, 6
    dataset = generate(
        SyntheticSpec(n_rows=rows, n_features=features, nnz_per_row=12.0,
                      noise=0.02, seed=17),
        name=f"backends-{'smoke' if smoke else 'full'}")

    def make_trainer(backend: str):
        config = TrainerConfig(max_steps=steps, learning_rate=0.5,
                               lr_schedule="inv_sqrt", local_chunk_size=64,
                               seed=1, backend=backend)
        return MLlibStarTrainer(Objective("hinge"),
                                cluster1(executors=executors), config)

    return make_trainer, dataset, executors, steps


def run_study(smoke: bool):
    make_trainer, dataset, executors, steps = _make_workload(smoke)
    sweep = backend_sweep(make_trainer, dataset,
                          repeats=1 if smoke else 2,
                          include_reference_baseline=False)
    if smoke:
        network = validate_network(rows=200, features=64, executors=2,
                                   steps=3, seed=3)
    else:
        network = validate_network(rows=2000, features=4096, executors=4,
                                   steps=6, seed=3)
    return sweep, network, dataset.name, executors, steps


def report_and_check(sweep, network, dataset_name, executors, steps):
    print(format_table(
        ["backend", "wall s", "speedup vs serial"],
        [[name, f"{sweep['seconds'][name]:.3f}",
          f"{sweep['speedup_vs_baseline'][name]:.2f}x"]
         for name in sweep["seconds"]],
        title=f"MLlib* end-to-end on {dataset_name} "
              f"({executors} executors, {steps} supersteps; "
              "histories bit-identical)"))
    print()
    measured = network["measured"]
    simulated = network["simulated"]
    print(f"measured wire:  {measured['messages']} messages, "
          f"{measured['bytes_on_wire']} bytes, "
          f"comm {measured['task_comm_seconds']:.4f}s")
    print(f"simulated:      {simulated['task_seconds']:.4f}s "
          f"(alpha={simulated['alpha_seconds']:.2e}s, "
          f"bw={simulated['bandwidth_bytes_per_second']:.2e} B/s)")
    ratio = network["ratio_measured_over_simulated"]
    if ratio is not None:
        print(f"measured/simulated comm ratio: {ratio:.4f}")

    # The gates: both the sweep and the validation run refuse to report
    # numbers for a drifted computation.
    assert sweep["bit_identical"], sweep
    assert sweep["baseline"] == "serial"
    assert network["bit_identical"], network
    assert measured["bytes_on_wire"] > measured["install_bytes"] > 0


def _payload(sweep, network, dataset_name, executors, steps):
    return {
        "bench": "backends",
        "workload": {
            "system": "MLlib*",
            "dataset": dataset_name,
            "executors": executors,
            "supersteps": steps,
            "backends_baseline": sweep["baseline"],
        },
        "backends": sweep,
        "network_validation": network,
    }


def bench_ext_backends(benchmark):
    """Pytest entry: smoke-sized, asserts the gates, never writes JSON."""
    sweep, network, name, executors, steps = benchmark.pedantic(
        lambda: run_study(smoke=True), rounds=1, iterations=1)
    print()
    report_and_check(sweep, network, name, executors, steps)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small workload, same gates, no "
                             "BENCH_backends.json write")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="override the JSON output path")
    args = parser.parse_args()

    sweep, network, name, executors, steps = run_study(smoke=args.smoke)
    report_and_check(sweep, network, name, executors, steps)
    if args.smoke and args.out is None:
        print("smoke mode: all gates passed; no JSON written")
        return 0
    out = Path(args.out) if args.out else BENCH_PATH
    out.write_text(json.dumps(
        _payload(sweep, network, name, executors, steps),
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
