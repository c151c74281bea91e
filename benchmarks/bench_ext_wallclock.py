"""Extension — the wall-clock fast path: kernels + execution backends.

The repo's benches report *simulated* seconds; this one reports *real*
ones.  Two layers of the PR are measured, each against a retained
"before" implementation, and bit-identity is asserted before any speedup
is reported (a measurement that changed the numerics is a bug):

* **kernels** — the local-solver hot loops (:mod:`repro.glm.kernels`)
  vs the pre-optimization reference bodies (:mod:`repro.glm.reference`),
  timed per dispatch branch;
* **backends** — MLlib* end-to-end on the Figure 6 WX analog workload
  (8 heterogeneous machines), run serial-with-reference-kernels (the
  pre-PR code), then every execution backend on the fast kernels.

The acceptance bar, asserted below and recorded in
``BENCH_wallclock.json``: the ``shm`` backend beats the
serial+reference baseline by >= 2x end-to-end, and every run's
convergence history is point-for-point identical.

On a single-core container ``shm`` cannot beat ``serial`` via
parallelism — the pool only pays its overhead — so the end-to-end bar is
against the reference baseline (where the kernel pass dominates); on
multi-core hosts the fan-out stacks on top.

Run modes::

    # full study (writes BENCH_wallclock.json at the repo root)
    PYTHONPATH=src python benchmarks/bench_ext_wallclock.py

    # CI smoke: small workload, same assertions, no JSON write
    PYTHONPATH=src python benchmarks/bench_ext_wallclock.py --smoke

    # pytest entry (smoke-sized, no JSON write)
    PYTHONPATH=src python -m pytest benchmarks/bench_ext_wallclock.py \
        --benchmark-only -q -s
"""

import argparse
import json
from pathlib import Path

from repro.cluster import ComputeCostModel, cluster2
from repro.core import MLlibStarTrainer, TrainerConfig
from repro.data import SyntheticSpec, generate, wx_like
from repro.glm import Objective
from repro.metrics import format_table
from repro.perf.harness import backend_sweep, kernel_benchmarks

BENCH_PATH = (Path(__file__).resolve().parent.parent
              / "BENCH_wallclock.json")

#: Same compute scaling as the Figure 6 bench — irrelevant to wall-clock
#: speed, but it keeps the committed workload identical to fig6's.
WX_COMPUTE = ComputeCostModel(sec_per_nnz=1.0e-6)
EXECUTORS = 8
STEPS = 6

#: End-to-end wall-clock bar: shm (fast kernels) vs the
#: serial+reference baseline on the full workload.
FULL_SPEEDUP_BAR = 2.0


def _make_trainer_factory(dataset_rows: int | None):
    """Trainer factory for the sweep; ``None`` rows = the full WX analog."""
    if dataset_rows is None:
        dataset = wx_like()
        executors, steps = EXECUTORS, STEPS
    else:
        # Big enough that the kernel savings dwarf the one-time process
        # pool startup, small enough for a CI smoke lane.
        dataset = generate(
            SyntheticSpec(n_rows=dataset_rows, n_features=20000,
                          nnz_per_row=12.0, noise=0.02, seed=17),
            name="wallclock-smoke")
        executors, steps = 4, 3

    def make_trainer(backend: str):
        config = TrainerConfig(max_steps=steps, learning_rate=0.5,
                               lr_schedule="inv_sqrt", local_chunk_size=64,
                               seed=1, backend=backend)
        return MLlibStarTrainer(
            Objective("hinge"),
            cluster2(machines=executors, seed=7, compute=WX_COMPUTE),
            config)

    return make_trainer, dataset, executors


def run_study(smoke: bool):
    if smoke:
        kernels = kernel_benchmarks(rows=500, features=12000, repeats=2)
        make_trainer, dataset, executors = _make_trainer_factory(30000)
        repeats = 1
    else:
        kernels = kernel_benchmarks(repeats=3)
        make_trainer, dataset, executors = _make_trainer_factory(None)
        repeats = 2
    backends = backend_sweep(make_trainer, dataset, repeats=repeats)
    return kernels, backends, dataset.name, executors


def report_and_check(kernels, backends, dataset_name, executors,
                     smoke: bool):
    print(format_table(
        ["kernel", "reference s", "fast s", "speedup"],
        [[e["kernel"], f"{e['reference_seconds']:.4f}",
          f"{e['fast_seconds']:.4f}", f"{e['speedup']:.2f}x"]
         for e in kernels],
        title="local-solver kernels: reference vs fast (bit-identical)"))
    print()
    print(format_table(
        ["backend", "wall s", "speedup vs serial+reference"],
        [[name, f"{backends['seconds'][name]:.3f}",
          f"{backends['speedup_vs_baseline'][name]:.2f}x"]
         for name in backends["seconds"]],
        title=f"MLlib* end-to-end on {dataset_name} "
              f"({executors} executors; histories bit-identical)"))

    # The harness already asserted bit-identity; these are the speed bars.
    speedups = backends["speedup_vs_baseline"]
    assert backends["baseline"] == "serial+reference"
    # The kernel pass must pay for itself on the epoch solvers' lazy path
    # (the WX regime the optimization targets).
    lazy = {e["kernel"]: e["speedup"] for e in kernels}
    assert lazy["sgd_lazy_l2"] > 1.0, lazy
    # shm must beat the pre-PR code end-to-end — on the full
    # workload by the 2x acceptance bar, on the smoke workload by any
    # margin (the workload is small, the pool overhead is not).
    bar = 1.0 if smoke else FULL_SPEEDUP_BAR
    assert speedups["shm"] >= bar, speedups
    assert speedups["serial"] >= bar, speedups


def _payload(kernels, backends, dataset_name, executors):
    return {
        "bench": "wallclock",
        "workload": {
            "system": "MLlib*",
            "dataset": dataset_name,
            "executors": executors,
            "supersteps": STEPS,
            "backends_baseline": backends["baseline"],
        },
        "kernels": kernels,
        "backends": backends,
    }


def bench_ext_wallclock(benchmark):
    """Pytest entry: smoke-sized, asserts the bars, never writes JSON."""
    kernels, backends, name, executors = benchmark.pedantic(
        lambda: run_study(smoke=True), rounds=1, iterations=1)
    print()
    report_and_check(kernels, backends, name, executors, smoke=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small workload, same assertions, no "
                             "BENCH_wallclock.json write")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="override the JSON output path")
    args = parser.parse_args()

    kernels, backends, name, executors = run_study(smoke=args.smoke)
    report_and_check(kernels, backends, name, executors, smoke=args.smoke)
    if args.smoke and args.out is None:
        print("smoke mode: all assertions passed; no JSON written")
        return 0
    out = Path(args.out) if args.out else BENCH_PATH
    out.write_text(json.dumps(_payload(kernels, backends, name, executors),
                              indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
